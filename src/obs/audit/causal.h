#ifndef LAMP_OBS_AUDIT_CAUSAL_H_
#define LAMP_OBS_AUDIT_CAUSAL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/dist/merge.h"
#include "obs/json.h"
#include "obs/trace.h"

/// \file
/// Causal-profile extraction from transducer-network traces.
///
/// The network runner stamps every message with a Lamport causal depth
/// (heartbeat broadcasts are depth 1; a message sent while processing a
/// delivery is one deeper than the deepest message its sender had
/// consumed) and emits kNetCausalDeliver / kNetOutput events. This module
/// reconstructs from those events:
///
///  * `coordination_depth` — the causal depth at which the run produced
///    its first output fact. 0 means the output appeared during a
///    heartbeat, before any communication: the operational signature of
///    coordination-freeness (Section 5.1 — on an ideal distribution a
///    coordination-free program computes the query without reading any
///    message, which is exactly TransducerNetwork::RunWithoutDelivery).
///    Non-monotone programs (e.g. a counting barrier) cannot output until
///    messages have been consumed, so their depth is >= 1 on *every*
///    distribution; the sa_causal cross-validation test pins that gap.
///  * the *critical path* — the longest chain of causally-ordered
///    deliveries, root (heartbeat-originated message) to deepest.
///
/// tools/lamp_obs renders it.

namespace lamp::obs::audit {

/// One delivery on the critical path.
struct CausalStep {
  std::uint32_t transition = 0;  // Delivery transition index.
  std::uint32_t node = 0;        // Receiving node.
  std::uint64_t depth = 0;       // Lamport depth of the delivered message.
};

/// The causal profile of one network run.
struct CausalReport {
  std::size_t deliveries = 0;        // kNetCausalDeliver events seen.
  std::uint64_t max_depth = 0;       // Deepest delivered message.
  bool has_output = false;           // Any kNetOutput event.
  std::uint64_t coordination_depth = 0;  // Depth of the first output.
  std::size_t outputs = 0;           // kNetOutput events (growth points).
  std::vector<CausalStep> critical_path;  // Root to deepest delivery.

  /// Coordination-free profile: every output (if any) appeared at causal
  /// depth 0, i.e. during a heartbeat.
  bool CoordinationFree() const { return coordination_depth == 0; }

  /// Human-readable rendering (depth summary + critical path).
  std::string Render() const;
};

/// Builds the profile from merged trace events (Tracer::Events() order).
CausalReport BuildCausalReport(const std::vector<TraceEvent>& events);

/// Builds the profile from a "lamp.trace.v1" document (`lamp_obs causal`
/// input). nullopt when the document has no events array.
std::optional<CausalReport> CausalReportFromTraceJson(const JsonValue& doc);

/// Builds the profile across *process* boundaries from a merged
/// multi-process trace (obs/dist/merge.h): every matched send/recv pair
/// is one delivery, its transition index is the pair's position in the
/// merged order, and depths/parents are the Lamport values the merger
/// computed on aligned timestamps. The same convention as the in-process
/// report — root messages are depth 1, a message is one deeper than the
/// deepest message its sender had consumed — so coordination structure is
/// comparable between the simulator and a real mesh run. Mesh runs have
/// no kNetOutput events, so `has_output` stays false and the report's
/// value is the delivery count, max depth and critical path.
CausalReport BuildCausalReport(const dist::MergedTrace& merged);

}  // namespace lamp::obs::audit

#endif  // LAMP_OBS_AUDIT_CAUSAL_H_
