#include "datalog/program.h"

#include "cq/parser.h"

namespace lamp {

void DatalogProgram::AddRule(ConjunctiveQuery rule) {
  rules_.push_back(std::move(rule));
}

std::set<RelationId> DatalogProgram::IdbRelations() const {
  std::set<RelationId> idb;
  for (const ConjunctiveQuery& rule : rules_) {
    idb.insert(rule.head().relation);
  }
  return idb;
}

std::set<RelationId> DatalogProgram::EdbRelations() const {
  const std::set<RelationId> idb = IdbRelations();
  std::set<RelationId> edb;
  for (const ConjunctiveQuery& rule : rules_) {
    for (const Atom& atom : rule.body()) {
      if (idb.count(atom.relation) == 0) edb.insert(atom.relation);
    }
    for (const Atom& atom : rule.negated()) {
      if (idb.count(atom.relation) == 0) edb.insert(atom.relation);
    }
  }
  return edb;
}

bool DatalogProgram::HasNegation() const {
  for (const ConjunctiveQuery& rule : rules_) {
    if (!rule.negated().empty()) return true;
  }
  return false;
}

DatalogProgram ParseProgram(Schema& schema, std::string_view text) {
  DatalogProgram program;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    std::string_view line = text.substr(start, end - start);
    // Trim whitespace.
    while (!line.empty() && (line.front() == ' ' || line.front() == '\t' ||
                             line.front() == '\r')) {
      line.remove_prefix(1);
    }
    while (!line.empty() && (line.back() == ' ' || line.back() == '\t' ||
                             line.back() == '\r')) {
      line.remove_suffix(1);
    }
    if (!line.empty() && line.front() != '#' && line.front() != '%') {
      program.AddRule(ParseQuery(schema, line));
    }
    if (end == text.size()) break;
    start = end + 1;
  }
  return program;
}

}  // namespace lamp
