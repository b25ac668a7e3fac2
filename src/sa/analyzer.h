#ifndef LAMP_SA_ANALYZER_H_
#define LAMP_SA_ANALYZER_H_

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "datalog/program.h"
#include "obs/json.h"
#include "relational/schema.h"
#include "sa/fragment.h"
#include "sa/lint.h"

/// \file
/// The analyzer front end: one call that runs the dependency graph, the
/// Figure 2 fragment classifiers and the lint over a program, and renders
/// the result as a stable JSON document ("lamp.sa.v1") or as text. This
/// is the single entry point shared by tools/lamp_lint, the golden tests
/// and the cross-validation suite, so they cannot drift apart.
///
/// Text mode (`AnalyzeProgramText`) understands the repository's `.dl`
/// convention: one rule per non-empty line, `#`/`%` comments, plus two
/// structured pragmas hidden inside comments (so the same file still
/// parses with plain `ParseProgram`):
///
///   # @edb NAME/ARITY     declare an extensional relation up front
///   # @output NAME        declare an output for the dead-rule pass

namespace lamp::sa {

/// Everything the analyzer knows about one program.
struct ProgramAnalysis {
  std::string name;  // Display name (file stem or catalog id); may be "".

  /// False when some line failed to parse. The analysis then covers only
  /// the rules that did parse; the failures are in `diagnostics` with
  /// pass "parse".
  bool parse_ok = true;

  DatalogProgram program;
  std::vector<int> rule_lines;  // 1-based source line per rule; text mode.

  /// The Figure 2 classification, with the program's stratification.
  FragmentReport fragments;

  /// Parse errors (pass "parse"), pragma problems (pass "pragma") and
  /// every lint diagnostic, in that order.
  std::vector<LintDiagnostic> diagnostics;

  std::size_t ErrorCount() const;
  std::size_t WarningCount() const;
  bool HasErrors() const { return ErrorCount() > 0; }
};

struct AnalyzerOptions {
  bool subsumption = true;
  /// Output relation names for the dead-rule pass (merged with any
  /// `# @output` pragmas in text mode).
  std::vector<std::string> outputs;
  /// Statistics-catalog relation names for the no-statistics pass
  /// (lamp_lint --catalog extracts these from a lamp.catalog.v1 file).
  /// The pass runs only when have_catalog is set — an empty catalog is a
  /// valid catalog that knows nothing.
  bool have_catalog = false;
  std::vector<std::string> catalog_relations;
};

/// Parses and analyzes program text, tracking source lines and pragmas.
/// Never aborts on malformed input: parse failures become diagnostics.
ProgramAnalysis AnalyzeProgramText(Schema& schema, std::string_view text,
                                   const AnalyzerOptions& options = {});

/// Renders \p analysis as the "lamp.sa.v1" JSON document.
obs::JsonValue AnalysisToJson(const Schema& schema,
                              const ProgramAnalysis& analysis);

/// Renders \p analysis for humans (one line per fact/diagnostic).
std::string RenderAnalysisText(const Schema& schema,
                               const ProgramAnalysis& analysis);

}  // namespace lamp::sa

#endif  // LAMP_SA_ANALYZER_H_
