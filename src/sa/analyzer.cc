#include "sa/analyzer.h"

#include <algorithm>
#include <cctype>
#include <utility>

#include "common/interner.h"
#include "cq/parser.h"

namespace lamp::sa {

namespace {

std::string_view Trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

std::string RenderTerm(const ConjunctiveQuery& rule, const Term& t) {
  return t.IsVar() ? rule.VarName(t.var) : std::to_string(t.constant.v);
}

std::string RenderAtom(const Schema& schema, const ConjunctiveQuery& rule,
                       const Atom& atom) {
  std::string out = schema.NameOf(atom.relation);
  out += "(";
  for (std::size_t i = 0; i < atom.terms.size(); ++i) {
    if (i > 0) out += ",";
    out += RenderTerm(rule, atom.terms[i]);
  }
  out += ")";
  return out;
}

std::string RenderRule(const Schema& schema, const ConjunctiveQuery& rule) {
  std::string out = RenderAtom(schema, rule, rule.head());
  out += " <- ";
  bool first = true;
  for (const Atom& atom : rule.body()) {
    if (!first) out += ", ";
    first = false;
    out += RenderAtom(schema, rule, atom);
  }
  for (const Atom& atom : rule.negated()) {
    if (!first) out += ", ";
    first = false;
    out += "!";
    out += RenderAtom(schema, rule, atom);
  }
  for (const auto& [a, b] : rule.inequalities()) {
    if (!first) out += ", ";
    first = false;
    out += RenderTerm(rule, a) + " != " + RenderTerm(rule, b);
  }
  return out;
}

void AddDiagnostic(ProgramAnalysis& analysis, LintSeverity severity,
                   std::string_view pass, int line, std::string message) {
  LintDiagnostic d;
  d.severity = severity;
  d.pass = std::string(pass);
  d.line = line;
  d.message = std::move(message);
  analysis.diagnostics.push_back(std::move(d));
}

/// Runs the fragment and lint analyses over analysis.program, both from
/// one dependency graph, and appends the results (after any parse/pragma
/// diagnostics already present).
void RunCore(const Schema& schema, ProgramAnalysis& analysis,
             const AnalyzerOptions& options,
             std::vector<RelationId> declared_relations) {
  const DependencyGraph graph(analysis.program);
  analysis.fragments = ClassifyFragments(schema, analysis.program, graph);

  LintOptions lint;
  lint.subsumption = options.subsumption;
  lint.declared_relations = std::move(declared_relations);
  for (const std::string& name : options.outputs) {
    const RelationId id = schema.TryIdOf(name);
    if (id == Interner::kNotFound) {
      AddDiagnostic(analysis, LintSeverity::kWarning, "pragma", -1,
                    "output relation '" + name +
                        "' is not defined by any rule or declaration");
      continue;
    }
    lint.outputs.push_back(id);
  }
  lint.have_catalog = options.have_catalog;
  for (const std::string& name : options.catalog_relations) {
    // Catalog entries for relations the program never mentions are fine
    // (the catalog covers the whole database); only known ids matter.
    const RelationId id = schema.TryIdOf(name);
    if (id != Interner::kNotFound) lint.catalog_relations.push_back(id);
  }

  std::vector<LintDiagnostic> found =
      LintProgram(schema, analysis.program, graph, lint);
  for (LintDiagnostic& d : found) {
    if (d.rule_index >= 0 &&
        static_cast<std::size_t>(d.rule_index) < analysis.rule_lines.size()) {
      d.line = analysis.rule_lines[static_cast<std::size_t>(d.rule_index)];
    }
    analysis.diagnostics.push_back(std::move(d));
  }
}

}  // namespace

std::size_t ProgramAnalysis::ErrorCount() const {
  return static_cast<std::size_t>(
      std::count_if(diagnostics.begin(), diagnostics.end(),
                    [](const LintDiagnostic& d) {
                      return d.severity == LintSeverity::kError;
                    }));
}

std::size_t ProgramAnalysis::WarningCount() const {
  return static_cast<std::size_t>(
      std::count_if(diagnostics.begin(), diagnostics.end(),
                    [](const LintDiagnostic& d) {
                      return d.severity == LintSeverity::kWarning;
                    }));
}

ProgramAnalysis AnalyzeProgramText(Schema& schema, std::string_view text,
                                   const AnalyzerOptions& options) {
  ProgramAnalysis analysis;
  std::vector<RelationId> declared;
  std::vector<std::string> output_names = options.outputs;

  int line_no = 0;
  std::string_view rest = text;
  while (!rest.empty()) {
    const std::size_t eol = rest.find('\n');
    std::string_view line = rest.substr(0, eol);
    rest = eol == std::string_view::npos ? std::string_view{}
                                         : rest.substr(eol + 1);
    ++line_no;
    line = Trim(line);
    if (line.empty()) continue;

    if (line.front() == '#' || line.front() == '%') {
      // Comments may carry pragmas: "# @edb NAME/ARITY", "# @output NAME".
      std::string_view body = Trim(line.substr(1));
      if (body.rfind("@edb ", 0) == 0) {
        const std::string_view spec = Trim(body.substr(5));
        const std::size_t slash = spec.find('/');
        std::size_t arity = 0;
        bool arity_ok = slash != std::string_view::npos &&
                        slash + 1 < spec.size();
        if (arity_ok) {
          for (char c : spec.substr(slash + 1)) {
            if (std::isdigit(static_cast<unsigned char>(c)) == 0) {
              arity_ok = false;
              break;
            }
            arity = arity * 10 + static_cast<std::size_t>(c - '0');
          }
        }
        if (!arity_ok) {
          AddDiagnostic(analysis, LintSeverity::kError, "pragma", line_no,
                        "malformed @edb pragma (expected '@edb NAME/ARITY')");
          analysis.parse_ok = false;
          continue;
        }
        const std::string name(Trim(spec.substr(0, slash)));
        const RelationId existing = schema.TryIdOf(name);
        if (existing != Interner::kNotFound &&
            schema.ArityOf(existing) != arity) {
          AddDiagnostic(analysis, LintSeverity::kError, "pragma", line_no,
                        "@edb declares " + name + "/" +
                            std::to_string(arity) + " but " + name +
                            " is already registered with arity " +
                            std::to_string(schema.ArityOf(existing)));
          analysis.parse_ok = false;
          continue;
        }
        declared.push_back(schema.AddRelation(name, arity));
      } else if (body.rfind("@output ", 0) == 0) {
        output_names.emplace_back(Trim(body.substr(8)));
      }
      continue;
    }

    CqParseResult parsed = TryParseQuery(schema, line);
    if (!parsed.ok()) {
      AddDiagnostic(analysis, LintSeverity::kError, "parse", line_no,
                    parsed.error);
      analysis.parse_ok = false;
      continue;
    }
    analysis.program.AddRule(std::move(*parsed.query));
    analysis.rule_lines.push_back(line_no);
  }

  AnalyzerOptions core = options;
  core.outputs = std::move(output_names);
  RunCore(schema, analysis, core, std::move(declared));
  return analysis;
}

obs::JsonValue AnalysisToJson(const Schema& schema,
                              const ProgramAnalysis& analysis) {
  using obs::JsonValue;
  JsonValue doc = JsonValue::Object();
  doc.Set("schema", "lamp.sa.v1");
  doc.Set("program", analysis.name);
  doc.Set("parse_ok", analysis.parse_ok);

  JsonValue rules = JsonValue::Array();
  for (const ConjunctiveQuery& rule : analysis.program.rules()) {
    rules.PushBack(RenderRule(schema, rule));
  }
  doc.Set("num_rules", analysis.program.rules().size());
  doc.Set("rules", std::move(rules));

  JsonValue strat = JsonValue::Object();
  strat.Set("stratified", analysis.fragments.strata.has_value());
  if (analysis.fragments.strata.has_value()) {
    strat.Set("num_strata", analysis.fragments.strata->num_strata);
    JsonValue strata = JsonValue::Array();
    for (const std::vector<std::size_t>& stratum :
         analysis.fragments.strata->rule_strata) {
      JsonValue indices = JsonValue::Array();
      for (std::size_t k : stratum) indices.PushBack(k);
      strata.PushBack(std::move(indices));
    }
    strat.Set("rule_strata", std::move(strata));
    JsonValue per_relation = JsonValue::Object();
    for (const auto& [rel, s] : analysis.fragments.strata->relation_stratum) {
      per_relation.Set(schema.NameOf(rel), s);
    }
    strat.Set("relation_strata", std::move(per_relation));
  } else if (analysis.fragments.cycle.has_value()) {
    strat.Set("cycle",
              DescribeNegationCycle(schema, *analysis.fragments.cycle));
  }
  doc.Set("stratification", std::move(strat));

  JsonValue fragments = JsonValue::Object();
  for (Fragment fragment : kAllFragments) {
    const FragmentVerdict& verdict = analysis.fragments.Verdict(fragment);
    JsonValue v = JsonValue::Object();
    v.Set("class", FragmentClassName(fragment));
    v.Set("certified", verdict.certified);
    JsonValue refutations = JsonValue::Array();
    for (const FragmentRefutation& r : verdict.refutations) {
      JsonValue rj = JsonValue::Object();
      rj.Set("rule", r.rule_index);
      rj.Set("atom", r.atom_index);
      rj.Set("negated", r.in_negated);
      rj.Set("reason", r.reason);
      refutations.PushBack(std::move(rj));
    }
    v.Set("refutations", std::move(refutations));
    fragments.Set(FragmentName(fragment), std::move(v));
  }
  doc.Set("fragments", std::move(fragments));
  doc.Set("strongest_fragment",
          analysis.fragments.strongest.has_value()
              ? JsonValue(FragmentName(*analysis.fragments.strongest))
              : JsonValue());
  doc.Set("monotonicity_class",
          analysis.fragments.strongest.has_value()
              ? JsonValue(FragmentClassName(*analysis.fragments.strongest))
              : JsonValue());

  JsonValue diagnostics = JsonValue::Array();
  for (const LintDiagnostic& d : analysis.diagnostics) {
    JsonValue dj = JsonValue::Object();
    dj.Set("severity", LintSeverityName(d.severity));
    dj.Set("pass", d.pass);
    dj.Set("rule", d.rule_index);
    dj.Set("line", d.line);
    dj.Set("message", d.message);
    diagnostics.PushBack(std::move(dj));
  }
  doc.Set("diagnostics", std::move(diagnostics));
  doc.Set("errors", analysis.ErrorCount());
  doc.Set("warnings", analysis.WarningCount());
  return doc;
}

std::string RenderAnalysisText(const Schema& schema,
                               const ProgramAnalysis& analysis) {
  std::string out = "program";
  if (!analysis.name.empty()) out += " '" + analysis.name + "'";
  out += ": " + std::to_string(analysis.program.rules().size()) + " rules";
  if (!analysis.parse_ok) out += " (with parse errors)";
  out += "\n";

  if (analysis.fragments.strata.has_value()) {
    out += "stratified: yes (" +
           std::to_string(analysis.fragments.strata->num_strata) + " strat" +
           (analysis.fragments.strata->num_strata == 1 ? "um" : "a") + ")\n";
  } else {
    out += "stratified: no";
    if (analysis.fragments.cycle.has_value()) {
      out += " — " +
             DescribeNegationCycle(schema, *analysis.fragments.cycle);
    }
    out += "\n";
  }

  for (Fragment fragment : kAllFragments) {
    const FragmentVerdict& verdict = analysis.fragments.Verdict(fragment);
    out += "  " + std::string(FragmentName(fragment)) + " (" +
           std::string(FragmentClassName(fragment)) + "): ";
    if (verdict.certified) {
      out += "certified\n";
    } else {
      out += "refuted\n";
      for (const FragmentRefutation& r : verdict.refutations) {
        out += "    - " + r.reason + "\n";
      }
    }
  }
  if (analysis.fragments.strongest.has_value()) {
    out += "strongest certificate: " +
           std::string(FragmentName(*analysis.fragments.strongest)) +
           " => class " +
           std::string(FragmentClassName(*analysis.fragments.strongest)) +
           "\n";
  } else {
    out += "strongest certificate: none (outside every fragment)\n";
  }

  out += "diagnostics: " + std::to_string(analysis.ErrorCount()) +
         " error(s), " + std::to_string(analysis.WarningCount()) +
         " warning(s)\n";
  for (const LintDiagnostic& d : analysis.diagnostics) {
    out += "  " + std::string(LintSeverityName(d.severity)) + "[" + d.pass +
           "]";
    if (d.rule_index >= 0) out += " rule " + std::to_string(d.rule_index);
    if (d.line >= 0) out += " (line " + std::to_string(d.line) + ")";
    out += ": " + d.message + "\n";
  }
  return out;
}

}  // namespace lamp::sa
