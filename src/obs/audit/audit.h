#ifndef LAMP_OBS_AUDIT_AUDIT_H_
#define LAMP_OBS_AUDIT_AUDIT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "mpc/stats.h"
#include "obs/audit/bounds.h"
#include "obs/json.h"

/// \file
/// Load-bound audit records ("lamp.audit.v1").
///
/// One record holds a single MPC run against the theoretical bound its
/// strategy promises: the measured per-server/per-round loads from
/// RunStats next to the catalog-derived LoadBound, a headroom ratio
/// (bound * slack / measured; > 1 means the run respected the bound) and
/// a pass verdict. A bench attaches each record to the bench record of
/// the configuration it audits, in that record's "audit" array
/// (obs/bench_report.h, BenchReporter::Record::Attach).
///
/// `lamp_obs report --check` is the audit gate: it reads bench records
/// and exits kAuditHardFailExit on an *unexpected* bound violation.
/// Records can opt out via `expected_violation` — that is how
/// deliberately skewed workloads (repartition under a heavy hitter,
/// one-round HyperCube on skewed data) stay pinned as *demonstrations* of
/// the theory's preconditions without failing the gate.

namespace lamp::obs::audit {

/// Slack multiplier absorbing the constants the Theta-bounds hide
/// (hashing variance, balls-into-bins maxima). Calibrated against the
/// repo's bench workloads; see EXPERIMENTS.md for the calibration runs.
inline constexpr double kDefaultSlack = 3.0;

/// Exit code of a failed audit gate (distinct from test-failure 1 and
/// usage-error 2 conventions).
inline constexpr int kAuditHardFailExit = 4;

/// One audited run.
struct AuditRecord {
  std::string bench;   // Binary name ("hypercube_load", ...).
  std::string label;   // Configuration ("triangle/p=64", ...).
  Strategy strategy = Strategy::kNone;
  std::size_t p = 0;   // Servers.
  JsonValue params = JsonValue::Object();  // Free-form workload params.

  LoadBound bound;     // has_bound=false => loads recorded, no verdict.
  double slack = kDefaultSlack;

  std::size_t measured_max_load = 0;  // RunStats::MaxLoad().
  std::size_t rounds = 0;
  std::size_t total_communication = 0;
  std::size_t worst_round = 0;  // Round achieving the max load.
  std::vector<std::size_t> per_server;  // Loads of the worst round.

  /// Wire traffic next to the logical loads (lamp.wire.v1 framing bytes;
  /// measured on socket transports and by tools/mpc_procs, computed in
  /// closed form in-process — identical either way). Zero / empty when
  /// the producing run predates wire accounting; FromJson tolerates their
  /// absence. round_total_load aligns with round_wire_bytes so readers
  /// can print the per-round wire/logical ratio (bytes per tuple, the
  /// serialization overhead) without re-deriving round totals.
  std::size_t wire_bytes = 0;                  // RunStats::TotalWireBytes().
  std::vector<std::size_t> round_wire_bytes;   // Per round, all servers.
  std::vector<std::size_t> round_total_load;   // Per round, all servers.

  /// Measured cross-process wire latency per round (ns percentiles over
  /// the matched send/recv pairs of a merged multi-process trace — see
  /// obs/dist/merge.h). Empty when the run was in-process or traced
  /// nothing; FromJson tolerates absence. Aligned with round_wire_bytes
  /// by index when both are present.
  std::vector<std::size_t> round_wire_p50_ns;
  std::vector<std::size_t> round_wire_p99_ns;

  /// The static planner's verdict for this run, when the producing bench
  /// planned it (lamp.plan.v1 — see sa/plan/plan.h): the predicted max
  /// per-server load and wire bytes for *this record's* strategy, and the
  /// strategy the planner ranked first for the whole scenario. Zero /
  /// empty when the run was not planned; FromJson tolerates absence.
  /// `lamp_obs report` renders predicted-vs-measured slack from these.
  double predicted_max_load = 0.0;
  double predicted_wire_bytes = 0.0;
  std::string planned_strategy;

  bool expected_violation = false;  // Exempt from hard fail.

  /// measured <= bound * slack (true when there is no bound).
  bool Pass() const;

  /// bound * slack / max(measured, 1); 0 when there is no bound. > 1 is
  /// headroom, < 1 is violation depth.
  double Headroom() const;

  /// True when this record should fail a hard-fail gate.
  bool HardViolation() const { return !Pass() && !expected_violation; }

  /// True when the record carries a planner verdict.
  bool HasPrediction() const { return !planned_strategy.empty(); }

  /// measured / predicted max load (how far reality strayed from the
  /// model; ~1 is a good model). 0 when unplanned or predicted is 0.
  double PredictionRatio() const;

  JsonValue ToJson() const;
  static std::optional<AuditRecord> FromJson(const JsonValue& doc);
};

/// Builds a record from a finished run: fills the measured side from
/// \p stats (max load, rounds, communication, worst-round profile).
AuditRecord MakeAuditRecord(std::string bench, std::string label,
                            Strategy strategy, std::size_t p, LoadBound bound,
                            const RunStats& stats,
                            double slack = kDefaultSlack);

}  // namespace lamp::obs::audit

#endif  // LAMP_OBS_AUDIT_AUDIT_H_
