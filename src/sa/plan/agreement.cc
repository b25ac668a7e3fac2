#include "sa/plan/agreement.h"

#include <utility>

namespace lamp::sa::plan {

namespace {

using obs::JsonValue;
using obs::audit::Strategy;
using obs::audit::StrategyFromName;
using obs::audit::StrategyName;

}  // namespace

double AgreementRecord::PredictedLoadOf(Strategy strategy) const {
  for (std::size_t i = 0; i < outcomes.size() && i < predicted_loads.size();
       ++i) {
    if (outcomes[i].strategy == strategy) return predicted_loads[i];
  }
  return -1.0;
}

bool AgreementRecord::Agree() const {
  if (predicted == measured) return true;
  const double runner = PredictedLoadOf(measured);
  if (runner < 0.0) return false;
  // The bar is the best prediction among the strategies actually raced: a
  // race can only falsify the model's ranking of its participants. When
  // the certificate's overall winner sat out (a partial race), the model
  // still agrees as long as the measured winner was predicted (near-)best
  // of the field that ran.
  double best = -1.0;
  for (const double load : predicted_loads) {
    if (load >= 0.0 && (best < 0.0 || load < best)) best = load;
  }
  if (best < 0.0) return false;
  return runner <= best * (1.0 + tie_margin);
}

JsonValue AgreementRecord::ToJson() const {
  JsonValue doc = JsonValue::Object();
  doc.Set("schema", "lamp.plan_agreement.v1");
  doc.Set("bench", bench);
  doc.Set("label", label);
  doc.Set("query", query_text);
  doc.Set("p", p);
  doc.Set("tie_margin", tie_margin);
  doc.Set("predicted", StrategyName(predicted));
  doc.Set("measured", StrategyName(measured));
  doc.Set("agree", Agree());
  JsonValue race = JsonValue::Array();
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    JsonValue entry = JsonValue::Object();
    entry.Set("strategy", StrategyName(outcomes[i].strategy));
    entry.Set("measured_max_load", outcomes[i].measured_max_load);
    if (i < predicted_loads.size()) {
      entry.Set("predicted_max_load", predicted_loads[i]);
    }
    race.PushBack(std::move(entry));
  }
  doc.Set("race", std::move(race));
  return doc;
}

std::optional<AgreementRecord> AgreementRecord::FromJson(
    const JsonValue& doc) {
  if (!doc.IsObject()) return std::nullopt;
  const auto str = [](const JsonValue& obj,
                      const char* key) -> const std::string* {
    const JsonValue* v = obj.Find(key);
    return v != nullptr && v->IsString() ? &v->AsString() : nullptr;
  };
  const auto num = [](const JsonValue& obj, const char* key) {
    const JsonValue* v = obj.Find(key);
    return v != nullptr && v->IsNumber() ? v : nullptr;
  };
  const std::string* schema = str(doc, "schema");
  const std::string* bench = str(doc, "bench");
  const std::string* label = str(doc, "label");
  const std::string* predicted = str(doc, "predicted");
  const std::string* measured = str(doc, "measured");
  const JsonValue* p = num(doc, "p");
  const JsonValue* race = doc.Find("race");
  if (schema == nullptr || *schema != "lamp.plan_agreement.v1" ||
      bench == nullptr || label == nullptr || predicted == nullptr ||
      measured == nullptr || p == nullptr || race == nullptr ||
      !race->IsArray()) {
    return std::nullopt;
  }
  AgreementRecord record;
  record.bench = *bench;
  record.label = *label;
  if (const std::string* query = str(doc, "query")) record.query_text = *query;
  record.p = static_cast<std::size_t>(p->AsInt());
  if (const JsonValue* margin = num(doc, "tie_margin")) {
    record.tie_margin = margin->AsDouble();
  }
  record.predicted = StrategyFromName(*predicted);
  record.measured = StrategyFromName(*measured);
  for (std::size_t i = 0; i < race->size(); ++i) {
    const JsonValue& entry = race->at(i);
    if (!entry.IsObject()) return std::nullopt;
    const std::string* strategy = str(entry, "strategy");
    const JsonValue* load = num(entry, "measured_max_load");
    if (strategy == nullptr || load == nullptr) return std::nullopt;
    const JsonValue* predicted_load = num(entry, "predicted_max_load");
    record.outcomes.push_back(
        {StrategyFromName(*strategy), load->AsDouble()});
    record.predicted_loads.push_back(
        predicted_load != nullptr ? predicted_load->AsDouble() : -1.0);
  }
  return record;
}

AgreementRecord MakeAgreementRecord(std::string bench, std::string label,
                                    const PlanCertificate& cert,
                                    std::vector<StrategyOutcome> outcomes) {
  AgreementRecord record;
  record.bench = std::move(bench);
  record.label = std::move(label);
  record.query_text = cert.query_text;
  record.p = cert.p;
  record.tie_margin = cert.tie_margin;
  const StrategyPrediction* winner = cert.Winner();
  record.predicted =
      winner == nullptr ? Strategy::kNone : winner->strategy;
  for (const StrategyOutcome& outcome : outcomes) {
    const StrategyPrediction* prediction = cert.Find(outcome.strategy);
    record.predicted_loads.push_back(
        prediction == nullptr || !prediction->feasible
            ? -1.0
            : prediction->predicted_max_load);
    record.outcomes.push_back(outcome);
  }
  // Measured winner: smallest max load, ties keep the earlier entry.
  if (!record.outcomes.empty()) {
    const StrategyOutcome* best = &record.outcomes[0];
    for (const StrategyOutcome& outcome : record.outcomes) {
      if (outcome.measured_max_load < best->measured_max_load) {
        best = &outcome;
      }
    }
    record.measured = best->strategy;
  }
  return record;
}

bool AgreementPin::Matches(const AgreementRecord& record) const {
  if (!bench.empty() && bench != record.bench) return false;
  if (!label.empty() && label != record.label) return false;
  if (!predicted.empty() &&
      StrategyFromName(predicted) != record.predicted) {
    return false;
  }
  if (!measured.empty() && StrategyFromName(measured) != record.measured) {
    return false;
  }
  return true;
}

std::optional<std::vector<AgreementPin>> PinsFromJson(const JsonValue& doc) {
  if (!doc.IsObject()) return std::nullopt;
  const JsonValue* schema = doc.Find("schema");
  if (schema == nullptr || !schema->IsString() ||
      schema->AsString() != "lamp.plan_pins.v1") {
    return std::nullopt;
  }
  const JsonValue* pins_json = doc.Find("pins");
  if (pins_json == nullptr || !pins_json->IsArray()) return std::nullopt;
  std::vector<AgreementPin> pins;
  for (std::size_t i = 0; i < pins_json->size(); ++i) {
    const JsonValue& entry = pins_json->at(i);
    if (!entry.IsObject()) return std::nullopt;
    AgreementPin pin;
    const auto str = [&entry](const char* key) -> std::string {
      const JsonValue* v = entry.Find(key);
      return v != nullptr && v->IsString() ? v->AsString() : std::string();
    };
    pin.bench = str("bench");
    pin.label = str("label");
    pin.predicted = str("predicted");
    pin.measured = str("measured");
    pin.reason = str("reason");
    if (pin.reason.empty()) return std::nullopt;  // Pins must be explained.
    pins.push_back(std::move(pin));
  }
  return pins;
}

JsonValue PinsToJson(const std::vector<AgreementPin>& pins) {
  JsonValue doc = JsonValue::Object();
  doc.Set("schema", "lamp.plan_pins.v1");
  JsonValue list = JsonValue::Array();
  for (const AgreementPin& pin : pins) {
    JsonValue entry = JsonValue::Object();
    if (!pin.bench.empty()) entry.Set("bench", pin.bench);
    if (!pin.label.empty()) entry.Set("label", pin.label);
    if (!pin.predicted.empty()) entry.Set("predicted", pin.predicted);
    if (!pin.measured.empty()) entry.Set("measured", pin.measured);
    entry.Set("reason", pin.reason);
    list.PushBack(std::move(entry));
  }
  doc.Set("pins", std::move(list));
  return doc;
}

AgreementCheck CheckAgreement(const std::vector<AgreementRecord>& records,
                              const std::vector<AgreementPin>& pins) {
  AgreementCheck check;
  std::vector<bool> pin_used(pins.size(), false);
  for (const AgreementRecord& record : records) {
    bool pinned = false;
    for (std::size_t i = 0; i < pins.size(); ++i) {
      if (pins[i].Matches(record)) {
        pin_used[i] = true;
        pinned = true;
      }
    }
    if (record.Agree() || pinned) continue;
    check.failures.push_back(
        record.bench + "/" + record.label + ": predicted " +
        std::string(StrategyName(record.predicted)) + ", measured " +
        std::string(StrategyName(record.measured)) +
        " (predicted loads: " +
        std::to_string(record.PredictedLoadOf(record.predicted)) + " vs " +
        std::to_string(record.PredictedLoadOf(record.measured)) + ")");
  }
  for (std::size_t i = 0; i < pins.size(); ++i) {
    if (pin_used[i]) continue;
    check.dangling_pins.push_back(
        pins[i].bench + "/" + pins[i].label + " (" + pins[i].reason +
        "): matched no record — remove or fix the pin");
  }
  return check;
}

}  // namespace lamp::sa::plan
