#include "sa/catalog.h"

#include "sa/analyzer.h"

namespace lamp::sa {

namespace {

// clang-format off
constexpr std::string_view kTcText =
    "# transitive closure of E: negation-free Datalog, class M (CALM)\n"
    "# @edb E/2\n"
    "# @output TC\n"
    "TC(x,y) <- E(x,y)\n"
    "TC(x,y) <- TC(x,z), E(z,y)\n";

constexpr std::string_view kTriangleText =
    "# triangle listing: a plain conjunctive query, class M\n"
    "# @edb E/2\n"
    "# @output H\n"
    "H(x,y,z) <- E(x,y), E(y,z), E(z,x)\n";

constexpr std::string_view kOpenTriangleText =
    "# open triangle: negation on the extensional E only, so semi-positive\n"
    "# (class Mdistinct) but not monotone\n"
    "# @edb E/2\n"
    "# @output H\n"
    "H(x,y,z) <- E(x,y), E(y,z), !E(z,x)\n";

constexpr std::string_view kNotTcText =
    "# complement of transitive closure: negates the intensional TC, but\n"
    "# stratifies and every non-final stratum is connected, so\n"
    "# semi-connected (class Mdisjoint)\n"
    "# @edb E/2\n"
    "# @output OUT\n"
    "TC(x,y) <- E(x,y)\n"
    "TC(x,y) <- TC(x,z), TC(z,y)\n"
    "OUT(x,y) <- ADom(x), ADom(y), !TC(x,y)\n";

constexpr std::string_view kNoTriangleText =
    "# no-triangle: T marks every adom value as soon as any triangle\n"
    "# exists; NoT is its complement. Stratifies, but the T rule sits in a\n"
    "# non-final stratum and is disconnected (the ADom(u) atom shares no\n"
    "# variable with the triangle), so the program is outside all three\n"
    "# fragments - and indeed not even domain-disjoint-monotone.\n"
    "# @edb E/2\n"
    "# @output NoT\n"
    "T(u) <- E(x,y), E(y,z), E(z,x), ADom(u)\n"
    "NoT(u) <- ADom(u), !T(u)\n";

constexpr std::string_view kWinMoveText =
    "# win-move: negation through recursion. No stratification exists;\n"
    "# only the well-founded semantics (datalog/wellfounded.h) applies.\n"
    "# @edb Move/2\n"
    "# @output Win\n"
    "Win(x) <- Move(x,y), !Win(y)\n";
// clang-format on

std::vector<CatalogEntry> BuildCatalog() {
  std::vector<CatalogEntry> catalog;

  CatalogEntry tc;
  tc.id = "tc";
  tc.title = "transitive closure (negation-free => M)";
  tc.text = kTcText;
  tc.expected_fragment = Fragment::kNegationFree;
  tc.domain_size = 2;
  tc.extra_values = 1;
  tc.max_facts = 3;
  tc.expected_monotone = {true, true, true};
  catalog.push_back(tc);

  CatalogEntry triangle;
  triangle.id = "triangle";
  triangle.title = "triangle listing (negation-free => M)";
  triangle.text = kTriangleText;
  triangle.expected_fragment = Fragment::kNegationFree;
  triangle.domain_size = 2;
  triangle.extra_values = 1;
  triangle.max_facts = 3;
  triangle.expected_monotone = {true, true, true};
  catalog.push_back(triangle);

  CatalogEntry open_triangle;
  open_triangle.id = "open_triangle";
  open_triangle.title = "open triangle (semi-positive => Mdistinct)";
  open_triangle.text = kOpenTriangleText;
  open_triangle.expected_fragment = Fragment::kSemiPositive;
  open_triangle.domain_size = 2;
  open_triangle.extra_values = 2;
  open_triangle.max_facts = 3;
  open_triangle.expected_monotone = {false, true, true};
  catalog.push_back(open_triangle);

  CatalogEntry not_tc;
  not_tc.id = "not_tc";
  not_tc.title = "complement of TC (semi-connected => Mdisjoint)";
  not_tc.text = kNotTcText;
  not_tc.expected_fragment = Fragment::kSemiConnected;
  not_tc.domain_size = 2;
  not_tc.extra_values = 1;
  not_tc.max_facts = 2;
  not_tc.expected_monotone = {false, false, true};
  catalog.push_back(not_tc);

  CatalogEntry no_triangle;
  no_triangle.id = "no_triangle";
  no_triangle.title = "no-triangle (outside every fragment, not Mdisjoint)";
  no_triangle.text = kNoTriangleText;
  no_triangle.expected_fragment = std::nullopt;
  no_triangle.domain_size = 2;
  no_triangle.extra_values = 3;
  no_triangle.max_facts = 3;
  no_triangle.expected_monotone = {false, false, false};
  catalog.push_back(no_triangle);

  CatalogEntry win_move;
  win_move.id = "win_move";
  win_move.title = "win-move (unstratifiable: no fragment applies)";
  win_move.text = kWinMoveText;
  win_move.expected_fragment = std::nullopt;
  win_move.expected_stratified = false;
  win_move.run_falsifier = false;
  catalog.push_back(win_move);

  return catalog;
}

}  // namespace

const std::vector<CatalogEntry>& ExampleCatalog() {
  static const std::vector<CatalogEntry> catalog = BuildCatalog();
  return catalog;
}

const CatalogEntry* FindCatalogEntry(std::string_view id) {
  for (const CatalogEntry& entry : ExampleCatalog()) {
    if (entry.id == id) return &entry;
  }
  return nullptr;
}

std::vector<std::string> CheckCatalogExpectations(
    const CatalogEntry& entry, const ProgramAnalysis& analysis) {
  std::vector<std::string> mismatches;
  if (!analysis.parse_ok) {
    mismatches.push_back("catalog text failed to parse");
  }
  const bool stratified = analysis.fragments.strata.has_value();
  if (stratified != entry.expected_stratified) {
    mismatches.push_back(std::string("expected stratified=") +
                         (entry.expected_stratified ? "yes" : "no") +
                         ", analyzer says " + (stratified ? "yes" : "no"));
  }
  if (analysis.fragments.strongest != entry.expected_fragment) {
    const std::string expected =
        entry.expected_fragment.has_value()
            ? std::string(FragmentName(*entry.expected_fragment))
            : std::string("none");
    const std::string got =
        analysis.fragments.strongest.has_value()
            ? std::string(FragmentName(*analysis.fragments.strongest))
            : std::string("none");
    mismatches.push_back("expected strongest fragment " + expected +
                         ", analyzer says " + got);
  }
  for (const LintDiagnostic& d : analysis.diagnostics) {
    if (d.severity != LintSeverity::kError) continue;
    // The one error an entry may expect: its documented negation cycle.
    if (d.pass == "stratification" && !entry.expected_stratified) continue;
    mismatches.push_back("unexpected " + d.pass +
                         " error: " + d.message);
  }
  return mismatches;
}

}  // namespace lamp::sa
