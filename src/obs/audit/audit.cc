#include "obs/audit/audit.h"

#include <utility>

namespace lamp::obs::audit {

bool AuditRecord::Pass() const {
  if (!bound.has_bound) return true;
  return static_cast<double>(measured_max_load) <= bound.tuples * slack;
}

double AuditRecord::Headroom() const {
  if (!bound.has_bound) return 0.0;
  const double measured =
      static_cast<double>(measured_max_load == 0 ? 1 : measured_max_load);
  return bound.tuples * slack / measured;
}

double AuditRecord::PredictionRatio() const {
  if (!HasPrediction() || predicted_max_load <= 0.0) return 0.0;
  return static_cast<double>(measured_max_load) / predicted_max_load;
}

JsonValue AuditRecord::ToJson() const {
  JsonValue doc = JsonValue::Object();
  doc.Set("schema", "lamp.audit.v1");
  doc.Set("bench", bench);
  doc.Set("label", label);
  doc.Set("strategy", StrategyName(strategy));
  doc.Set("p", p);
  doc.Set("params", params);
  if (bound.has_bound) {
    doc.Set("bound", bound.tuples);
    doc.Set("bound_formula", bound.formula);
    doc.Set("headroom", Headroom());
  } else {
    doc.Set("bound", JsonValue());
    doc.Set("bound_formula", JsonValue());
    doc.Set("headroom", JsonValue());
  }
  doc.Set("slack", slack);
  doc.Set("measured_max_load", measured_max_load);
  doc.Set("rounds", rounds);
  doc.Set("total_communication", total_communication);
  doc.Set("worst_round", worst_round);
  JsonValue loads = JsonValue::Array();
  for (const std::size_t load : per_server) loads.PushBack(JsonValue(load));
  doc.Set("per_server", std::move(loads));
  doc.Set("wire_bytes", wire_bytes);
  JsonValue round_wire = JsonValue::Array();
  for (const std::size_t b : round_wire_bytes) {
    round_wire.PushBack(JsonValue(b));
  }
  doc.Set("round_wire_bytes", std::move(round_wire));
  JsonValue round_load = JsonValue::Array();
  for (const std::size_t l : round_total_load) {
    round_load.PushBack(JsonValue(l));
  }
  doc.Set("round_total_load", std::move(round_load));
  if (!round_wire_p50_ns.empty() || !round_wire_p99_ns.empty()) {
    JsonValue p50 = JsonValue::Array();
    for (const std::size_t v : round_wire_p50_ns) p50.PushBack(JsonValue(v));
    doc.Set("round_wire_p50_ns", std::move(p50));
    JsonValue p99 = JsonValue::Array();
    for (const std::size_t v : round_wire_p99_ns) p99.PushBack(JsonValue(v));
    doc.Set("round_wire_p99_ns", std::move(p99));
  }
  if (HasPrediction()) {
    doc.Set("predicted_max_load", predicted_max_load);
    doc.Set("predicted_wire_bytes", predicted_wire_bytes);
    doc.Set("planned_strategy", planned_strategy);
  }
  doc.Set("pass", Pass());
  doc.Set("expected_violation", expected_violation);
  return doc;
}

std::optional<AuditRecord> AuditRecord::FromJson(const JsonValue& doc) {
  if (!doc.IsObject()) return std::nullopt;
  const JsonValue* tag = doc.Find("schema");
  if (tag == nullptr || !tag->IsString() || tag->AsString() != "lamp.audit.v1") {
    return std::nullopt;
  }
  const JsonValue* bench = doc.Find("bench");
  const JsonValue* label = doc.Find("label");
  const JsonValue* strategy = doc.Find("strategy");
  const JsonValue* p = doc.Find("p");
  const JsonValue* slack = doc.Find("slack");
  const JsonValue* measured = doc.Find("measured_max_load");
  // The verdict's inputs must all be present: a record whose "bound" or
  // "expected_violation" key was lost would otherwise decode as a pass.
  const JsonValue* bound = doc.Find("bound");
  const JsonValue* expected = doc.Find("expected_violation");
  if (bench == nullptr || !bench->IsString() || label == nullptr ||
      !label->IsString() || strategy == nullptr || !strategy->IsString() ||
      p == nullptr || !p->IsNumber() || slack == nullptr ||
      !slack->IsNumber() || measured == nullptr || !measured->IsNumber() ||
      bound == nullptr || !(bound->IsNumber() || bound->IsNull()) ||
      expected == nullptr || !expected->IsBool()) {
    return std::nullopt;
  }
  AuditRecord record;
  record.bench = bench->AsString();
  record.label = label->AsString();
  record.strategy = StrategyFromName(strategy->AsString());
  record.p = static_cast<std::size_t>(p->AsInt());
  record.slack = slack->AsDouble();
  record.measured_max_load = static_cast<std::size_t>(measured->AsInt());
  if (const JsonValue* params = doc.Find("params");
      params != nullptr && params->IsObject()) {
    record.params = *params;
  }
  if (bound->IsNumber()) {
    record.bound.has_bound = true;
    record.bound.tuples = bound->AsDouble();
    if (const JsonValue* formula = doc.Find("bound_formula");
        formula != nullptr && formula->IsString()) {
      record.bound.formula = formula->AsString();
    }
  }
  if (const JsonValue* rounds = doc.Find("rounds"); rounds != nullptr) {
    record.rounds = static_cast<std::size_t>(rounds->AsInt());
  }
  if (const JsonValue* total = doc.Find("total_communication");
      total != nullptr) {
    record.total_communication = static_cast<std::size_t>(total->AsInt());
  }
  if (const JsonValue* worst = doc.Find("worst_round"); worst != nullptr) {
    record.worst_round = static_cast<std::size_t>(worst->AsInt());
  }
  if (const JsonValue* loads = doc.Find("per_server");
      loads != nullptr && loads->IsArray()) {
    for (std::size_t i = 0; i < loads->size(); ++i) {
      record.per_server.push_back(
          static_cast<std::size_t>(loads->at(i).AsInt()));
    }
  }
  if (const JsonValue* wire = doc.Find("wire_bytes");
      wire != nullptr && wire->IsNumber()) {
    record.wire_bytes = static_cast<std::size_t>(wire->AsInt());
  }
  if (const JsonValue* round_wire = doc.Find("round_wire_bytes");
      round_wire != nullptr && round_wire->IsArray()) {
    for (std::size_t i = 0; i < round_wire->size(); ++i) {
      record.round_wire_bytes.push_back(
          static_cast<std::size_t>(round_wire->at(i).AsInt()));
    }
  }
  if (const JsonValue* round_load = doc.Find("round_total_load");
      round_load != nullptr && round_load->IsArray()) {
    for (std::size_t i = 0; i < round_load->size(); ++i) {
      record.round_total_load.push_back(
          static_cast<std::size_t>(round_load->at(i).AsInt()));
    }
  }
  if (const JsonValue* p50 = doc.Find("round_wire_p50_ns");
      p50 != nullptr && p50->IsArray()) {
    for (std::size_t i = 0; i < p50->size(); ++i) {
      record.round_wire_p50_ns.push_back(
          static_cast<std::size_t>(p50->at(i).AsInt()));
    }
  }
  if (const JsonValue* p99 = doc.Find("round_wire_p99_ns");
      p99 != nullptr && p99->IsArray()) {
    for (std::size_t i = 0; i < p99->size(); ++i) {
      record.round_wire_p99_ns.push_back(
          static_cast<std::size_t>(p99->at(i).AsInt()));
    }
  }
  if (const JsonValue* predicted = doc.Find("predicted_max_load");
      predicted != nullptr && predicted->IsNumber()) {
    record.predicted_max_load = predicted->AsDouble();
  }
  if (const JsonValue* predicted_wire = doc.Find("predicted_wire_bytes");
      predicted_wire != nullptr && predicted_wire->IsNumber()) {
    record.predicted_wire_bytes = predicted_wire->AsDouble();
  }
  if (const JsonValue* planned = doc.Find("planned_strategy");
      planned != nullptr && planned->IsString()) {
    record.planned_strategy = planned->AsString();
  }
  record.expected_violation = expected->AsBool();
  return record;
}

AuditRecord MakeAuditRecord(std::string bench, std::string label,
                            Strategy strategy, std::size_t p, LoadBound bound,
                            const RunStats& stats, double slack) {
  AuditRecord record;
  record.bench = std::move(bench);
  record.label = std::move(label);
  record.strategy = strategy;
  record.p = p;
  record.bound = std::move(bound);
  record.slack = slack;
  record.measured_max_load = stats.MaxLoad();
  record.rounds = stats.NumRounds();
  record.total_communication = stats.TotalCommunication();
  record.wire_bytes = stats.TotalWireBytes();
  for (const RoundStats& r : stats.rounds) {
    record.round_wire_bytes.push_back(r.TotalWireBytes());
    record.round_total_load.push_back(r.TotalLoad());
  }
  for (std::size_t r = 0; r < stats.rounds.size(); ++r) {
    if (stats.rounds[r].MaxLoad() == record.measured_max_load) {
      record.worst_round = r;
      record.per_server = stats.rounds[r].received;
      break;
    }
  }
  return record;
}

}  // namespace lamp::obs::audit
