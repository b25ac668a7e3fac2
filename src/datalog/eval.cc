#include "datalog/eval.h"

#include <algorithm>
#include <string>
#include <vector>

#include "common/check.h"
#include "cq/eval.h"
#include "obs/trace.h"

namespace lamp {

namespace {

/// Adds ADom(v) for every active-domain value of \p edb when the program
/// uses the ADom predicate.
void PopulateADom(const Schema& schema, const Instance& edb, Instance& out) {
  const RelationId adom_rel = schema.TryIdOf(kADomRelationName);
  if (adom_rel == Interner::kNotFound) return;
  LAMP_CHECK(schema.ArityOf(adom_rel) == 1);
  for (Value v : edb.ActiveDomain()) {
    out.InsertRow(adom_rel, &v, 1);
  }
}

/// One semi-naive/naive iteration's bookkeeping: trace event + histogram.
void RecordIteration(std::size_t stratum, std::size_t iteration,
                     std::size_t delta_size, obs::MetricsRegistry* metrics) {
  obs::Emit(obs::EventKind::kDatalogIteration,
            static_cast<std::uint32_t>(stratum),
            static_cast<std::uint32_t>(iteration), delta_size);
  if (metrics != nullptr) {
    metrics->GetHistogram(obs::kDatalogDeltaSize)
        .Observe(static_cast<double>(delta_size));
  }
}

}  // namespace

void DatalogStats::ToMetrics(obs::MetricsRegistry& registry) const {
  registry.GetCounter(obs::kDatalogIterations).Add(iterations);
  registry.GetCounter(obs::kDatalogFactsDerived).Add(facts_derived);
  registry.GetCounter(obs::kDatalogDeltaIndexHits).Add(delta_index_hits);
  registry.GetCounter(obs::kRelationalRowsScanned).Add(rows_scanned);
}

Instance EvaluateProgram(Schema& schema, const DatalogProgram& program,
                         const Instance& edb, DatalogStats* stats,
                         obs::MetricsRegistry* metrics) {
  const auto strata = program.Stratify();
  LAMP_CHECK_MSG(strata.has_value(),
                 "program does not stratify; use well-founded evaluation");

  Instance current = edb;
  PopulateADom(schema, edb, current);

  DatalogStats local_stats;
  CqEvalStats cq_stats;

  for (const std::vector<std::size_t>& stratum : *strata) {
    const std::size_t stratum_idx =
        static_cast<std::size_t>(&stratum - &(*strata)[0]);
    std::size_t iteration_idx = 0;
    // Recursive predicates of this stratum (sorted, deduped) and their
    // delta relations, kept in a flat RelationId-indexed vector so the
    // inner loop never pays a map lookup.
    std::vector<RelationId> recursive;
    for (std::size_t idx : stratum) {
      recursive.push_back(program.rules()[idx].head().relation);
    }
    std::sort(recursive.begin(), recursive.end());
    recursive.erase(std::unique(recursive.begin(), recursive.end()),
                    recursive.end());

    constexpr RelationId kNoDelta = static_cast<RelationId>(-1);
    std::vector<RelationId> delta_of(schema.NumRelations(), kNoDelta);
    for (RelationId rel : recursive) {
      delta_of[rel] = schema.AddRelation(
          "__delta_" + schema.NameOf(rel) + "_s" +
              std::to_string(stratum_idx),
          schema.ArityOf(rel));
    }

    // Delta versions of each rule: one per occurrence of a recursive atom,
    // in original rule order, each remembering which predicate's delta it
    // consumes so empty-delta rounds can skip it.
    struct DeltaRule {
      ConjunctiveQuery query;
      RelationId delta_source;  // The (original) recursive predicate.
    };
    std::vector<DeltaRule> delta_rules;
    for (std::size_t idx : stratum) {
      const ConjunctiveQuery& rule = program.rules()[idx];
      for (std::size_t a = 0; a < rule.body().size(); ++a) {
        const RelationId body_rel = rule.body()[a].relation;
        if (body_rel >= delta_of.size() || delta_of[body_rel] == kNoDelta) {
          continue;
        }
        ConjunctiveQuery rewritten = rule;
        rewritten.SetBodyRelation(a, delta_of[body_rel]);
        delta_rules.push_back({std::move(rewritten), body_rel});
      }
    }

    // Round 0: evaluate every rule on `current` (recursive predicates are
    // still empty, so this derives the base facts of the stratum).
    Instance delta;
    const RowBatchSink into_delta = [&current, &delta](RelationId rel,
                                                       const Value* rows,
                                                       std::size_t count,
                                                       std::size_t arity) {
      for (std::size_t t = 0; t < count; ++t) {
        const Value* row = rows + t * arity;
        if (!current.ContainsRow(rel, row, arity)) {
          delta.InsertRow(rel, row, arity);
        }
      }
    };
    for (std::size_t idx : stratum) {
      EvaluateIntoBatches(program.rules()[idx], current, into_delta,
                          &cq_stats);
    }
    ++local_stats.iterations;
    RecordIteration(stratum_idx, iteration_idx++, delta.Size(), metrics);

    // The working instance (current + delta re-tagged under the delta
    // relations) is copied once per stratum and maintained incrementally:
    // each round appends the new facts — the same insert sequence
    // `current` sees, so row order stays identical — and re-tags the delta
    // relations in place instead of rebuilding the whole instance.
    Instance working = current;
    Instance next_delta;
    // Fused containment + insert: rules evaluate over `working`, so the
    // sink may mutate `current` directly. A successful insert is exactly
    // "not seen before", so next_delta receives the same rows in the same
    // order the old ContainsRow-filter-then-merge scheme produced, with
    // one hash probe instead of two.
    const RowBatchSink into_next_delta =
        [&current, &next_delta](RelationId rel, const Value* rows,
                                std::size_t count, std::size_t arity) {
          current.InsertRowsInto(rel, rows, count, arity, next_delta);
        };

    // Only the round-0 delta is not yet in `current`; later deltas are
    // merged at emission time by the fused sink above.
    bool merge_round0 = true;
    while (!delta.Empty()) {
      local_stats.facts_derived += delta.Size();
      if (merge_round0) {
        current.InsertAll(delta);
        merge_round0 = false;
      }
      working.InsertAll(delta);
      for (RelationId rel : recursive) working.ClearRelation(delta_of[rel]);
      for (RelationId rel : recursive) {
        const RowsView rows = delta.RowsOf(rel);
        for (std::size_t i = 0; i < rows.num_rows; ++i) {
          working.InsertRow(delta_of[rel], rows.Row(i), rows.arity);
        }
      }

      next_delta = Instance();
      for (const DeltaRule& dr : delta_rules) {
        // Delta-index skip: a rule whose delta relation is empty this
        // round derives nothing.
        if (delta.NumRows(dr.delta_source) == 0) continue;
        ++local_stats.delta_index_hits;
        EvaluateIntoBatches(dr.query, working, into_next_delta, &cq_stats);
      }
      delta = std::move(next_delta);
      next_delta = Instance();
      ++local_stats.iterations;
      RecordIteration(stratum_idx, iteration_idx++, delta.Size(), metrics);
    }
  }

  local_stats.rows_scanned = cq_stats.rows_scanned;
  if (stats != nullptr) *stats = local_stats;
  if (metrics != nullptr) local_stats.ToMetrics(*metrics);
  return current;
}

FixpointContinuation::FixpointContinuation(Schema& schema,
                                           const DatalogProgram& program) {
  LAMP_CHECK_MSG(!program.HasNegation(),
                 "fixpoint continuation needs a negation-free program");
  LAMP_CHECK_MSG(schema.TryIdOf(kADomRelationName) == Interner::kNotFound,
                 "fixpoint continuation cannot maintain ADom");
  const auto strata = program.Stratify();
  LAMP_CHECK(strata.has_value());

  constexpr RelationId kNoDelta = static_cast<RelationId>(-1);
  for (const std::vector<std::size_t>& rule_ids : *strata) {
    Stratum stratum;
    for (std::size_t idx : rule_ids) {
      const ConjunctiveQuery& rule = program.rules()[idx];
      stratum.heads.push_back(rule.head().relation);
      for (const Atom& atom : rule.body()) {
        stratum.sources.push_back(atom.relation);
      }
    }
    for (std::vector<RelationId>* rels : {&stratum.heads, &stratum.sources}) {
      std::sort(rels->begin(), rels->end());
      rels->erase(std::unique(rels->begin(), rels->end()), rels->end());
    }
    for (RelationId rel : stratum.sources) {
      if (rel >= delta_of_.size()) delta_of_.resize(rel + 1, kNoDelta);
      if (delta_of_[rel] != kNoDelta) continue;
      delta_of_[rel] = schema.AddRelation("__cont_" + schema.NameOf(rel),
                                          schema.ArityOf(rel));
    }
    for (std::size_t idx : rule_ids) {
      const ConjunctiveQuery& rule = program.rules()[idx];
      for (std::size_t a = 0; a < rule.body().size(); ++a) {
        const RelationId body_rel = rule.body()[a].relation;
        ConjunctiveQuery rewritten = rule;
        rewritten.SetBodyRelation(a, delta_of_[body_rel]);
        stratum.rules.push_back({std::move(rewritten), body_rel});
      }
    }
    strata_.push_back(std::move(stratum));
  }
}

FixpointContinuation::Marks FixpointContinuation::Mark(
    const Instance& state) {
  Marks marks(state.NumRelationIds());
  for (RelationId rel = 0; rel < marks.size(); ++rel) {
    marks[rel] = state.NumRows(rel);
  }
  return marks;
}

void FixpointContinuation::Continue(Instance& state, const Marks& closed,
                                    DatalogStats* stats,
                                    obs::MetricsRegistry* metrics) const {
  DatalogStats local_stats;
  CqEvalStats cq_stats;
  // Rows [from[r], to[r]) of relation r are its delta this round.
  std::vector<std::size_t> from(delta_of_.size());
  std::vector<std::size_t> to(delta_of_.size());
  std::vector<Value> tagged;
  std::vector<Value> staged;
  std::size_t staged_rows = 0;
  const RowBatchSink stage = [&staged, &staged_rows](
                                 RelationId, const Value* rows,
                                 std::size_t count, std::size_t arity) {
    staged.insert(staged.end(), rows, rows + count * arity);
    staged_rows += count;
  };

  for (const Stratum& stratum : strata_) {
    const std::size_t stratum_idx =
        static_cast<std::size_t>(&stratum - strata_.data());
    std::size_t iteration_idx = 0;
    // Round 0's delta: every row new since `closed` (inserted, or derived
    // by a lower stratum) of every relation the stratum reads.
    for (RelationId rel : stratum.sources) {
      from[rel] = rel < closed.size() ? closed[rel] : 0;
      to[rel] = state.NumRows(rel);
    }
    while (true) {
      bool any_delta = false;
      for (RelationId rel : stratum.sources) {
        if (from[rel] == to[rel]) continue;
        any_delta = true;
        const RowsView rows = state.RowsOf(rel);
        tagged.assign(rows.data + from[rel] * rows.arity,
                      rows.data + to[rel] * rows.arity);
        state.InsertRows(delta_of_[rel], tagged.data(), to[rel] - from[rel],
                         rows.arity);
      }
      if (!any_delta) break;

      // Rules read `state`, so each rule's rows are staged and appended
      // once it finishes; later rules of the round already see them.
      const std::size_t size_before = state.Size();
      for (const DeltaRule& dr : stratum.rules) {
        if (from[dr.delta_source] == to[dr.delta_source]) continue;
        ++local_stats.delta_index_hits;
        staged.clear();
        staged_rows = 0;
        EvaluateIntoBatches(dr.query, state, stage, &cq_stats);
        state.InsertRows(dr.query.head().relation, staged.data(), staged_rows,
                         dr.query.head().terms.size());
      }
      const std::size_t derived = state.Size() - size_before;
      for (RelationId rel : stratum.sources) {
        state.ClearRelation(delta_of_[rel]);
      }

      // The next delta: what this round appended to the stratum's heads.
      for (RelationId rel : stratum.sources) {
        from[rel] = to[rel];
        if (std::binary_search(stratum.heads.begin(), stratum.heads.end(),
                               rel)) {
          to[rel] = state.NumRows(rel);
        }
      }
      local_stats.facts_derived += derived;
      ++local_stats.iterations;
      RecordIteration(stratum_idx, iteration_idx++, derived, metrics);
    }
  }

  local_stats.rows_scanned = cq_stats.rows_scanned;
  if (stats != nullptr) *stats = local_stats;
  if (metrics != nullptr) local_stats.ToMetrics(*metrics);
}

Instance EvaluateProgramNaive(Schema& schema, const DatalogProgram& program,
                              const Instance& edb, DatalogStats* stats,
                              obs::MetricsRegistry* metrics) {
  const auto strata = program.Stratify();
  LAMP_CHECK_MSG(strata.has_value(),
                 "program does not stratify; use well-founded evaluation");

  Instance current = edb;
  PopulateADom(schema, edb, current);

  DatalogStats local_stats;
  CqEvalStats cq_stats;

  // Flat row buffer reused across rounds: derived heads are staged here
  // (the join pipeline must not see its own output mid-evaluation), then
  // inserted; `current` dedups, so staging duplicates is harmless and the
  // insert order equals the old materialise-then-copy order.
  std::vector<Value> buffer;

  for (const std::vector<std::size_t>& stratum : *strata) {
    const std::size_t stratum_idx =
        static_cast<std::size_t>(&stratum - &(*strata)[0]);
    std::size_t iteration_idx = 0;
    bool changed = true;
    while (changed) {
      changed = false;
      ++local_stats.iterations;
      std::size_t derived_this_round = 0;
      for (std::size_t idx : stratum) {
        const ConjunctiveQuery& rule = program.rules()[idx];
        const std::size_t arity = rule.head().terms.size();
        const RelationId head_rel = rule.head().relation;
        buffer.clear();
        bool fired = false;
        EvaluateIntoBatches(
            rule, current,
            [&buffer, &fired](RelationId, const Value* rows,
                              std::size_t count, std::size_t n) {
              fired = true;
              buffer.insert(buffer.end(), rows, rows + count * n);
            },
            &cq_stats);
        if (arity == 0) {  // Nullary head: at most one distinct fact.
          if (fired && current.InsertRow(head_rel, nullptr, 0)) {
            changed = true;
            ++derived_this_round;
          }
          continue;
        }
        const std::size_t added = current.InsertRows(
            head_rel, buffer.data(), buffer.size() / arity, arity);
        if (added > 0) {
          changed = true;
          derived_this_round += added;
        }
      }
      local_stats.facts_derived += derived_this_round;
      RecordIteration(stratum_idx, iteration_idx++, derived_this_round,
                      metrics);
    }
  }

  local_stats.rows_scanned = cq_stats.rows_scanned;
  if (stats != nullptr) *stats = local_stats;
  if (metrics != nullptr) local_stats.ToMetrics(*metrics);
  return current;
}

}  // namespace lamp
