// lamp_lint: static fragment analysis and lint for Datalog programs.
//
//   lamp_lint [options] <program.dl>...   analyze .dl files
//   lamp_lint [options] --builtin         analyze the example catalog
//
//   --json             emit the lamp.sa.v1 JSON document (an array when
//                      more than one program is analyzed)
//   --strict           exit non-zero on any error diagnostic; with
//                      --builtin, also when an analysis disagrees with
//                      the catalog's documented expectations
//   --no-subsumption   skip the containment-based subsumed-rule pass
//   --output NAME      declare an output relation for the dead-rule pass
//                      (repeatable; merged with # @output pragmas)
//   --catalog FILE     lamp.catalog.v1 statistics JSON; enables the
//                      no-statistics pass (extensional body atoms whose
//                      cardinality the catalog lacks)
//   --werror           treat warnings as strict violations too
//
// File syntax is the repo's .dl convention: one rule per line, `#`/`%`
// comments, plus `# @edb NAME/ARITY` and `# @output NAME` pragmas (see
// sa/analyzer.h). Exit codes: 0 clean (or non-strict), 1 strict
// violations, 2 usage or I/O errors.

#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "obs/audit/catalog.h"
#include "obs/json.h"
#include "sa/analyzer.h"
#include "sa/catalog.h"

namespace lamp::sa {
namespace {

struct Cli {
  bool builtin = false;
  bool json = false;
  bool strict = false;
  bool werror = false;
  AnalyzerOptions options;
  std::vector<std::string> files;
};

/// Loads a lamp.catalog.v1 document and declares its relations as the
/// catalogued ones; false when the file is unreadable or not a catalog.
bool LoadCatalogRelations(const std::string& path, AnalyzerOptions& options) {
  const std::optional<std::string> text = obs::ReadTextFile(path);
  if (!text.has_value()) return false;
  const std::optional<obs::JsonValue> doc = obs::JsonValue::Parse(*text);
  if (!doc.has_value()) return false;
  const std::optional<obs::audit::Catalog> catalog =
      obs::audit::Catalog::FromJson(*doc);
  if (!catalog.has_value()) return false;
  for (const obs::audit::RelationStats& rel : catalog->relations) {
    options.catalog_relations.push_back(rel.name);
  }
  options.have_catalog = true;
  return true;
}

std::string FileStem(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  std::string stem =
      slash == std::string::npos ? path : path.substr(slash + 1);
  const std::size_t dot = stem.find_last_of('.');
  if (dot != std::string::npos && dot > 0) stem = stem.substr(0, dot);
  return stem;
}

int Run(const Cli& cli) {
  struct Result {
    Schema schema;
    ProgramAnalysis analysis;
    std::vector<std::string> mismatches;  // Builtin mode only.
  };
  std::vector<Result> results;

  if (cli.builtin) {
    for (const CatalogEntry& entry : ExampleCatalog()) {
      Result& r = results.emplace_back();
      r.analysis =
          AnalyzeProgramText(r.schema, entry.text, cli.options);
      r.analysis.name = std::string(entry.id);
      r.mismatches = CheckCatalogExpectations(entry, r.analysis);
    }
  } else {
    for (const std::string& path : cli.files) {
      const std::optional<std::string> text = obs::ReadTextFile(path);
      if (!text.has_value()) {
        std::fprintf(stderr, "lamp_lint: cannot read %s\n", path.c_str());
        return 2;
      }
      Result& r = results.emplace_back();
      r.analysis = AnalyzeProgramText(r.schema, *text, cli.options);
      r.analysis.name = FileStem(path);
    }
  }

  bool violations = false;
  for (const Result& r : results) {
    bool clean = !r.analysis.HasErrors() &&
                 (!cli.werror || r.analysis.WarningCount() == 0);
    if (cli.builtin) {
      // Expected unstratifiability (e.g. win_move) is documented, not a
      // violation; CheckCatalogExpectations already filtered it.
      clean = r.mismatches.empty();
    }
    if (!clean) violations = true;
  }

  if (cli.json) {
    obs::JsonValue out;
    if (results.size() == 1) {
      out = AnalysisToJson(results[0].schema, results[0].analysis);
    } else {
      out = obs::JsonValue::Array();
      for (const Result& r : results) {
        out.PushBack(AnalysisToJson(r.schema, r.analysis));
      }
    }
    std::printf("%s\n", out.Dump(2).c_str());
  } else {
    for (const Result& r : results) {
      std::printf("%s", RenderAnalysisText(r.schema, r.analysis).c_str());
      for (const std::string& mismatch : r.mismatches) {
        std::printf("  expectation MISMATCH: %s\n", mismatch.c_str());
      }
      if (cli.builtin && r.mismatches.empty()) {
        std::printf("  catalog expectations: all met\n");
      }
      std::printf("\n");
    }
  }

  return cli.strict && violations ? 1 : 0;
}

int Main(int argc, char** argv) {
  Cli cli;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--builtin") {
      cli.builtin = true;
    } else if (arg == "--json") {
      cli.json = true;
    } else if (arg == "--strict") {
      cli.strict = true;
    } else if (arg == "--werror") {
      cli.werror = true;
    } else if (arg == "--no-subsumption") {
      cli.options.subsumption = false;
    } else if (arg == "--catalog") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "lamp_lint: --catalog needs a file\n");
        return 2;
      }
      if (!LoadCatalogRelations(argv[++i], cli.options)) {
        std::fprintf(stderr,
                     "lamp_lint: %s is not a readable lamp.catalog.v1 "
                     "document\n",
                     argv[i]);
        return 2;
      }
    } else if (arg == "--output") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "lamp_lint: --output needs a name\n");
        return 2;
      }
      cli.options.outputs.emplace_back(argv[++i]);
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: lamp_lint [--json] [--strict] [--werror] "
          "[--no-subsumption] [--catalog FILE] [--output NAME]... "
          "(<program.dl>... | --builtin)\n");
      return 0;
    } else if (!arg.empty() && arg.front() == '-') {
      std::fprintf(stderr, "lamp_lint: unknown option %s\n", argv[i]);
      return 2;
    } else {
      cli.files.emplace_back(arg);
    }
  }
  if (!cli.builtin && cli.files.empty()) {
    std::fprintf(stderr,
                 "lamp_lint: pass .dl files or --builtin (try --help)\n");
    return 2;
  }
  if (cli.builtin && !cli.files.empty()) {
    std::fprintf(stderr,
                 "lamp_lint: --builtin does not take file arguments\n");
    return 2;
  }
  return Run(cli);
}

}  // namespace
}  // namespace lamp::sa

int main(int argc, char** argv) { return lamp::sa::Main(argc, argv); }
