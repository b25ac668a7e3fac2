#ifndef LAMP_SA_FRAGMENT_H_
#define LAMP_SA_FRAGMENT_H_

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "datalog/depgraph.h"
#include "datalog/monotone.h"
#include "datalog/program.h"

/// \file
/// Syntactic fragment classifiers for the Figure 2 hierarchy. Membership
/// in each fragment is decidable from the program text and *certifies* a
/// semantic monotonicity class:
///
///   negation-free Datalog   => M          (CALM / Theorem 5.3: F0 = A0)
///   semi-positive Datalog   => Mdistinct  (Theorem 5.8:  F1 = A1)
///   semi-connected Datalog  => Mdisjoint  (Theorem 5.12: F2 = A2)
///
/// This is the certify side of the certify-vs-falsify contract: a
/// certificate is a proof (every program in the fragment has the
/// property, for all instances), while the dynamic checkers in
/// datalog/monotone.h and fault/confluence.h can only falsify over a
/// bounded instance space. The converse direction is a precision gap by
/// design — a program outside every fragment may still be semantically
/// monotone (the fragments are sound, not complete) — which is why every
/// refutation carries the exact rule and atom so the cross-validation
/// suite can pair it with a dynamic witness or a documented gap.

namespace lamp::sa {

/// The syntactic fragments, strongest certificate first.
enum class Fragment : std::uint8_t {
  kNegationFree = 0,
  kSemiPositive = 1,
  kSemiConnected = 2,
};

inline constexpr std::array<Fragment, 3> kAllFragments = {
    Fragment::kNegationFree, Fragment::kSemiPositive,
    Fragment::kSemiConnected};

/// "negation_free", "semi_positive", "semi_connected".
std::string_view FragmentName(Fragment fragment);

/// The monotonicity class the fragment certifies (M / Mdistinct /
/// Mdisjoint as MonotonicityKind::kPlain / kDomainDistinct /
/// kDomainDisjoint).
MonotonicityKind FragmentGuarantee(Fragment fragment);

/// "M", "Mdistinct", "Mdisjoint".
std::string_view FragmentClassName(Fragment fragment);

/// Why a program is NOT in a fragment: the offending rule and atom.
struct FragmentRefutation {
  std::size_t rule_index = 0;
  /// Index into rule.negated() when in_negated, else into rule.body();
  /// -1 for program-level reasons (e.g. a negation cycle).
  int atom_index = -1;
  bool in_negated = false;
  std::string reason;
};

/// Verdict for one fragment: a certificate or the refutations.
struct FragmentVerdict {
  Fragment fragment = Fragment::kNegationFree;
  bool certified = false;
  std::vector<FragmentRefutation> refutations;
};

/// The full Figure 2 classification of one program.
struct FragmentReport {
  std::optional<StratumAssignment> strata;  // nullopt: does not stratify.
  std::optional<NegationCycle> cycle;       // Set when strata is nullopt.
  std::array<FragmentVerdict, 3> verdicts;
  /// First certified fragment in kAllFragments order (strongest
  /// guarantee), and the monotonicity class it certifies.
  std::optional<Fragment> strongest;
  std::optional<MonotonicityKind> guarantee;

  const FragmentVerdict& Verdict(Fragment fragment) const {
    return verdicts[static_cast<std::size_t>(fragment)];
  }
};

/// Classifies \p program, whose dependency graph is \p graph, against
/// every fragment. \p schema renders relation names inside refutation
/// messages.
FragmentReport ClassifyFragments(const Schema& schema,
                                 const DatalogProgram& program,
                                 const DependencyGraph& graph);

}  // namespace lamp::sa

#endif  // LAMP_SA_FRAGMENT_H_
