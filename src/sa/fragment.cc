#include "sa/fragment.h"

#include "common/check.h"

namespace lamp::sa {

std::string_view FragmentName(Fragment fragment) {
  switch (fragment) {
    case Fragment::kNegationFree:
      return "negation_free";
    case Fragment::kSemiPositive:
      return "semi_positive";
    case Fragment::kSemiConnected:
      return "semi_connected";
  }
  return "?";
}

MonotonicityKind FragmentGuarantee(Fragment fragment) {
  switch (fragment) {
    case Fragment::kNegationFree:
      return MonotonicityKind::kPlain;
    case Fragment::kSemiPositive:
      return MonotonicityKind::kDomainDistinct;
    case Fragment::kSemiConnected:
      return MonotonicityKind::kDomainDisjoint;
  }
  return MonotonicityKind::kPlain;
}

std::string_view FragmentClassName(Fragment fragment) {
  switch (fragment) {
    case Fragment::kNegationFree:
      return "M";
    case Fragment::kSemiPositive:
      return "Mdistinct";
    case Fragment::kSemiConnected:
      return "Mdisjoint";
  }
  return "?";
}

namespace {

void RefuteNegationFree(const Schema& schema, const DatalogProgram& program,
                        FragmentVerdict& verdict) {
  const std::vector<ConjunctiveQuery>& rules = program.rules();
  for (std::size_t k = 0; k < rules.size(); ++k) {
    const std::vector<Atom>& negated = rules[k].negated();
    for (std::size_t i = 0; i < negated.size(); ++i) {
      FragmentRefutation r;
      r.rule_index = k;
      r.atom_index = static_cast<int>(i);
      r.in_negated = true;
      r.reason = "rule " + std::to_string(k) + " negates " +
                 schema.NameOf(negated[i].relation);
      verdict.refutations.push_back(std::move(r));
    }
  }
}

void RefuteSemiPositive(const Schema& schema, const DatalogProgram& program,
                        FragmentVerdict& verdict) {
  const std::set<RelationId> idb = program.IdbRelations();
  const std::vector<ConjunctiveQuery>& rules = program.rules();
  for (std::size_t k = 0; k < rules.size(); ++k) {
    const std::vector<Atom>& negated = rules[k].negated();
    for (std::size_t i = 0; i < negated.size(); ++i) {
      if (idb.count(negated[i].relation) == 0) continue;
      FragmentRefutation r;
      r.rule_index = k;
      r.atom_index = static_cast<int>(i);
      r.in_negated = true;
      r.reason = "rule " + std::to_string(k) +
                 " negates the intensional relation " +
                 schema.NameOf(negated[i].relation);
      verdict.refutations.push_back(std::move(r));
    }
  }
}

void RefuteSemiConnected(const Schema& schema, const DatalogProgram& program,
                         const std::optional<StratumAssignment>& strata,
                         const std::optional<NegationCycle>& cycle,
                         FragmentVerdict& verdict) {
  if (!strata.has_value()) {
    FragmentRefutation r;
    r.rule_index = cycle.has_value() ? cycle->rule_index : 0;
    r.atom_index = -1;
    r.reason = cycle.has_value()
                   ? "program does not stratify: " +
                         DescribeNegationCycle(schema, *cycle)
                   : "program does not stratify";
    verdict.refutations.push_back(std::move(r));
    return;
  }
  const std::vector<ConjunctiveQuery>& rules = program.rules();
  for (std::size_t s = 0; s + 1 < strata->rule_strata.size(); ++s) {
    for (std::size_t k : strata->rule_strata[s]) {
      const std::vector<std::size_t> component =
          AtomComponents(rules[k].body());
      for (std::size_t i = 1; i < component.size(); ++i) {
        if (component[i] == 0) continue;
        FragmentRefutation r;
        r.rule_index = k;
        r.atom_index = static_cast<int>(i);
        r.in_negated = false;
        r.reason = "rule " + std::to_string(k) + " (stratum " +
                   std::to_string(s) + " of " +
                   std::to_string(strata->rule_strata.size()) +
                   ", not the last) is disconnected: atom " +
                   schema.NameOf(rules[k].body()[i].relation) +
                   " shares no variable chain with atom " +
                   schema.NameOf(rules[k].body()[0].relation);
        verdict.refutations.push_back(std::move(r));
        break;  // One refutation per disconnected rule.
      }
    }
  }
}

}  // namespace

FragmentReport ClassifyFragments(const Schema& schema,
                                 const DatalogProgram& program,
                                 const DependencyGraph& graph) {
  FragmentReport report;
  report.strata = graph.Stratify();
  if (!report.strata.has_value()) report.cycle = graph.FindNegationCycle();

  for (Fragment fragment : kAllFragments) {
    FragmentVerdict& verdict =
        report.verdicts[static_cast<std::size_t>(fragment)];
    verdict.fragment = fragment;
    switch (fragment) {
      case Fragment::kNegationFree:
        RefuteNegationFree(schema, program, verdict);
        break;
      case Fragment::kSemiPositive:
        RefuteSemiPositive(schema, program, verdict);
        break;
      case Fragment::kSemiConnected:
        RefuteSemiConnected(schema, program, report.strata, report.cycle,
                            verdict);
        break;
    }
    verdict.certified = verdict.refutations.empty();
  }
  // Negation-free and semi-positive programs must stratify (negation-free
  // trivially; semi-positive because IDB negation is what cycles need) —
  // cross-check the two analyses agree.
  if (report.Verdict(Fragment::kSemiPositive).certified) {
    LAMP_CHECK(report.strata.has_value());
  }

  for (Fragment fragment : kAllFragments) {
    if (report.Verdict(fragment).certified) {
      report.strongest = fragment;
      report.guarantee = FragmentGuarantee(fragment);
      break;
    }
  }
  return report;
}

}  // namespace lamp::sa
