#ifndef LAMP_SA_PLAN_AGREEMENT_H_
#define LAMP_SA_PLAN_AGREEMENT_H_

#include <optional>
#include <string>
#include <vector>

#include "obs/json.h"
#include "sa/plan/plan.h"

/// \file
/// The planner-agreement gate: did the strategy the static planner
/// ranked first actually win the measured race?
///
/// Benches that race strategies on one scenario build an AgreementRecord
/// ("lamp.plan_agreement.v1") pairing the certificate's predicted winner
/// with the measured per-strategy max loads, and attach it to the bench
/// record of that configuration, in its "plan" array (obs/bench_report.h,
/// BenchReporter::Record::Attach).
///
/// `lamp_plan check --pins bench/PLAN_pins.json` then reads those bench
/// records and holds every agreement record to Agree(): the predicted
/// winner matches the measured one, OR the measured winner's *predicted*
/// cost is within the certificate's tie margin of the best prediction
/// (two strategies the model calls equal may race either way — e.g.
/// hypercube with shares (1,p,1) *is* repartition up to hashing), OR the
/// disagreement is pinned. Pins are the cost-model analogue of
/// expected_violation audit records: each names a (bench, p, predicted,
/// measured) quadruple and the reason the model is allowed to be wrong
/// there. Dangling pins (nothing matched) fail the gate too, so stale
/// excuses cannot accumulate.

namespace lamp::sa::plan {

/// Exit code of a failed agreement gate (audit hard-fail is 4).
inline constexpr int kPlanGateFailExit = 5;

/// One strategy's measured result within a scenario race.
struct StrategyOutcome {
  obs::audit::Strategy strategy = obs::audit::Strategy::kNone;
  double measured_max_load = 0.0;
};

/// One scenario: the certificate's verdict next to the measured race.
struct AgreementRecord {
  std::string bench;       // e.g. "join_strategies".
  std::string label;       // Scenario ("skewed/p=16", ...).
  std::string query_text;
  std::size_t p = 0;
  double tie_margin = 0.02;
  obs::audit::Strategy predicted = obs::audit::Strategy::kNone;
  obs::audit::Strategy measured = obs::audit::Strategy::kNone;
  /// Predicted max load per strategy raced (parallel to outcomes).
  std::vector<StrategyOutcome> outcomes;
  std::vector<double> predicted_loads;

  /// Predicted cost of \p strategy from predicted_loads; negative when
  /// the strategy was not raced.
  double PredictedLoadOf(obs::audit::Strategy strategy) const;

  /// See file comment: winners match, or the measured winner was
  /// predicted within tie_margin of the best prediction *among the
  /// strategies raced* (a partial race cannot falsify the model's view
  /// of strategies that never ran).
  bool Agree() const;

  obs::JsonValue ToJson() const;  // "lamp.plan_agreement.v1"
  /// nullopt unless \p doc carries every field the verdict reads: bench,
  /// label, p, predicted, measured and a race of (strategy, measured load)
  /// entries.
  static std::optional<AgreementRecord> FromJson(const obs::JsonValue& doc);
};

/// Builds a record from a certificate and the measured race. The measured
/// winner is the raced strategy with the smallest measured max load (ties
/// keep the earlier entry); predicted loads are looked up in \p cert.
AgreementRecord MakeAgreementRecord(std::string bench, std::string label,
                                    const PlanCertificate& cert,
                                    std::vector<StrategyOutcome> outcomes);

/// One pinned, explained disagreement ("lamp.plan_pins.v1").
struct AgreementPin {
  std::string bench;
  std::string label;
  std::string predicted;  // Strategy wire names, "" matches any.
  std::string measured;
  std::string reason;

  bool Matches(const AgreementRecord& record) const;
};

/// Parses {"schema":"lamp.plan_pins.v1","pins":[...]}; nullopt on
/// malformed input.
std::optional<std::vector<AgreementPin>> PinsFromJson(
    const obs::JsonValue& doc);
obs::JsonValue PinsToJson(const std::vector<AgreementPin>& pins);

/// Gate verdict: records that disagree and are not pinned, plus pins that
/// matched nothing (stale excuses).
struct AgreementCheck {
  std::vector<std::string> failures;
  std::vector<std::string> dangling_pins;
  bool Ok() const { return failures.empty() && dangling_pins.empty(); }
};

AgreementCheck CheckAgreement(const std::vector<AgreementRecord>& records,
                              const std::vector<AgreementPin>& pins);

}  // namespace lamp::sa::plan

#endif  // LAMP_SA_PLAN_AGREEMENT_H_
