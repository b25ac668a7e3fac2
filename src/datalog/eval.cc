#include "datalog/eval.h"

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "common/check.h"
#include "cq/eval.h"
#include "datalog/depgraph.h"
#include "obs/trace.h"

namespace lamp {

namespace {

/// Adds ADom(v) for every value of the EDB rows of \p state past \p marks,
/// in ascending order (at zero marks: the active domain of the EDB). A
/// relation r is EDB unless \p not_edb[r] is set. A no-op when the schema
/// has no ADom relation (\p adom is Interner::kNotFound).
void SeedADom(RelationId adom, const std::vector<bool>& not_edb,
              const FixpointContinuation::Marks& marks, Instance& state) {
  if (adom == Interner::kNotFound) return;
  std::vector<Value> values;
  for (RelationId rel = 0; rel < state.NumRelationIds(); ++rel) {
    if (rel < not_edb.size() && not_edb[rel]) continue;
    const RowsView rows = state.RowsOf(rel);
    const std::size_t from = rel < marks.size() ? marks[rel] : 0;
    values.insert(values.end(), rows.Row(from), rows.Row(rows.num_rows));
  }
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  for (const Value v : values) state.InsertRow(adom, &v, 1);
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

/// The ADom relation of \p schema, or Interner::kNotFound.
RelationId ADomOf(const Schema& schema) {
  const RelationId adom = schema.TryIdOf(kADomRelationName);
  LAMP_CHECK(adom == Interner::kNotFound || schema.ArityOf(adom) == 1);
  return adom;
}

/// The relations ADom is not seeded from, indexed by RelationId: every
/// rule head, and ADom itself. Empty without ADom.
std::vector<bool> NotEdb(const DatalogProgram& program, RelationId adom) {
  std::vector<bool> not_edb;
  if (adom == Interner::kNotFound) return not_edb;
  const auto mark = [&not_edb](RelationId rel) {
    if (rel >= not_edb.size()) not_edb.resize(rel + 1);
    not_edb[rel] = true;
  };
  mark(adom);
  for (const ConjunctiveQuery& rule : program.rules()) {
    mark(rule.head().relation);
  }
  return not_edb;
}

/// The rule strata of \p program. Aborts naming the negation cycle when
/// the program does not stratify.
Stratification StratifyOrDie(const Schema& schema,
                             const DatalogProgram& program) {
  const DependencyGraph graph(program);
  std::optional<StratumAssignment> strata = graph.Stratify();
  if (!strata.has_value()) {
    const std::string message =
        "program does not stratify: " +
        DescribeNegationCycle(schema, *graph.FindNegationCycle()) +
        "; use well-founded evaluation";
    LAMP_CHECK_MSG(false, message.c_str());
  }
  return std::move(strata->rule_strata);
}

}  // namespace

void DatalogStats::ToMetrics(obs::MetricsRegistry& registry) const {
  registry.GetCounter(obs::kDatalogIterations).Add(iterations);
  registry.GetCounter(obs::kDatalogFactsDerived).Add(facts_derived);
  registry.GetCounter(obs::kDatalogDeltaIndexHits).Add(delta_index_hits);
  registry.GetCounter(obs::kRelationalRowsScanned).Add(rows_scanned);
}

Instance EvaluateProgram(const Schema& schema, const DatalogProgram& program,
                         const Instance& edb, DatalogStats* stats,
                         obs::MetricsRegistry* metrics) {
  Instance state = edb;
  FixpointContinuation(schema, program).Continue(state, {}, stats, metrics);
  return state;
}

FixpointContinuation::FixpointContinuation(const Schema& schema,
                                           const DatalogProgram& program)
    : adom_(ADomOf(schema)), not_edb_(NotEdb(program, adom_)) {
  for (const std::vector<std::size_t>& rule_ids :
       StratifyOrDie(schema, program)) {
    Stratum stratum;
    for (std::size_t idx : rule_ids) {
      const ConjunctiveQuery& rule = program.rules()[idx];
      stratum.rules.push_back(&rule);
      stratum.heads.push_back(rule.head().relation);
      for (const Atom& atom : rule.body()) {
        stratum.sources.push_back(atom.relation);
        num_relations_ = std::max<std::size_t>(num_relations_,
                                               atom.relation + 1);
      }
    }
    for (std::vector<RelationId>* rels : {&stratum.heads, &stratum.sources}) {
      std::sort(rels->begin(), rels->end());
      rels->erase(std::unique(rels->begin(), rels->end()), rels->end());
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
  SeedADom(adom_, not_edb_, closed, state);
  DatalogStats local_stats;
  CqEvalStats cq_stats;
  // This round, rows [0, old_end[r]) of relation r are old and rows
  // [old_end[r], new_end[r]) are new.
  std::vector<std::size_t> old_end(num_relations_);
  std::vector<std::size_t> new_end(num_relations_);
  std::vector<RowRange> ranges;
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
    for (RelationId rel : stratum.sources) {
      old_end[rel] = rel < closed.size() ? closed[rel] : 0;
      new_end[rel] = state.NumRows(rel);
    }
    while (std::any_of(stratum.sources.begin(), stratum.sources.end(),
                       [&](RelationId rel) {
                         return old_end[rel] != new_end[rel];
                       })) {
      // Rule r once per body atom i over new rows: atoms before i read old
      // rows, atom i new ones, atoms after i every row the round began
      // with. The rules read `state`, so each evaluation's rows are staged
      // and appended once it finishes; the ranges keep them out of the
      // rest of the round.
      const std::size_t size_before = state.Size();
      for (const ConjunctiveQuery* rule : stratum.rules) {
        const std::vector<Atom>& body = rule->body();
        for (std::size_t i = 0; i < body.size(); ++i) {
          ranges.clear();
          for (std::size_t a = 0; a < body.size(); ++a) {
            const RelationId rel = body[a].relation;
            ranges.push_back({a == i ? old_end[rel] : 0,
                              a < i ? old_end[rel] : new_end[rel]});
          }
          if (std::any_of(ranges.begin(), ranges.end(),
                          [](RowRange r) { return r.from == r.to; })) {
            continue;  // An empty view derives nothing.
          }
          ++local_stats.delta_index_hits;
          staged.clear();
          staged_rows = 0;
          EvaluateIntoBatches(*rule, state, stage, &cq_stats, ranges);
          state.InsertRows(rule->head().relation, staged.data(), staged_rows,
                           rule->head().terms.size());
        }
      }
      const std::size_t derived = state.Size() - size_before;

      // Next round's new rows: what this round appended to the heads.
      for (RelationId rel : stratum.sources) {
        old_end[rel] = new_end[rel];
        if (std::binary_search(stratum.heads.begin(), stratum.heads.end(),
                               rel)) {
          new_end[rel] = state.NumRows(rel);
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

Instance EvaluateProgramNaive(const Schema& schema,
                              const DatalogProgram& program,
                              const Instance& edb, DatalogStats* stats,
                              obs::MetricsRegistry* metrics) {
  const Stratification strata = StratifyOrDie(schema, program);

  Instance current = edb;
  const RelationId adom = ADomOf(schema);
  SeedADom(adom, NotEdb(program, adom), {}, current);

  DatalogStats local_stats;
  CqEvalStats cq_stats;

  // Flat row buffer reused across rounds: derived heads are staged here
  // (the join pipeline must not see its own output mid-evaluation), then
  // inserted; `current` dedups, so staging duplicates is harmless and the
  // insert order equals the old materialise-then-copy order.
  std::vector<Value> buffer;

  for (const std::vector<std::size_t>& stratum : strata) {
    const std::size_t stratum_idx =
        static_cast<std::size_t>(&stratum - strata.data());
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
        ++local_stats.delta_index_hits;
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
