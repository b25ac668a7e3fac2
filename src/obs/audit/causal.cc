#include "obs/audit/causal.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

namespace lamp::obs::audit {

namespace {

/// Decoded kNetCausalDeliver payload (see obs/trace.h kind comment).
struct Delivery {
  std::uint32_t node = 0;
  std::uint64_t depth = 0;
  std::uint32_t parent = 0;  // Parent transition + 1; 0 = heartbeat origin.
};

Delivery UnpackDelivery(std::uint32_t node, std::uint64_t packed) {
  return {node, packed >> 32, static_cast<std::uint32_t>(packed & 0xffffffffu)};
}

CausalReport BuildFromDeliveries(
    const std::vector<std::pair<std::uint32_t, Delivery>>& deliveries,
    const std::vector<std::pair<std::uint32_t, std::uint64_t>>& outputs) {
  CausalReport report;
  report.deliveries = deliveries.size();
  report.outputs = outputs.size();
  if (!outputs.empty()) {
    report.has_output = true;
    report.coordination_depth = outputs.front().second;
  }

  std::unordered_map<std::uint32_t, Delivery> by_transition;
  by_transition.reserve(deliveries.size());
  bool have_deepest = false;
  std::uint32_t deepest = 0;
  for (const auto& [transition, d] : deliveries) {
    by_transition[transition] = d;
    if (d.depth > report.max_depth || !have_deepest) {
      report.max_depth = d.depth;
      deepest = transition;
      have_deepest = true;
    }
  }

  // Walk parent pointers from the deepest delivery back to a
  // heartbeat-originated message, then reverse into root-first order.
  // The guard on strictly shrinking depth makes the walk total even on a
  // trace whose ring buffer dropped the parent events.
  if (have_deepest) {
    std::uint32_t transition = deepest;
    std::uint64_t prev_depth = report.max_depth + 1;
    while (true) {
      const auto it = by_transition.find(transition);
      if (it == by_transition.end() || it->second.depth >= prev_depth) break;
      report.critical_path.push_back(
          {transition, it->second.node, it->second.depth});
      prev_depth = it->second.depth;
      if (it->second.parent == 0) break;
      transition = it->second.parent - 1;
    }
    std::reverse(report.critical_path.begin(), report.critical_path.end());
  }
  return report;
}

}  // namespace

std::string CausalReport::Render() const {
  char buf[256];
  std::string out;
  std::snprintf(buf, sizeof(buf),
                "deliveries=%zu max_depth=%llu outputs=%zu"
                " coordination_depth=%llu (%s)\n",
                deliveries, static_cast<unsigned long long>(max_depth),
                outputs, static_cast<unsigned long long>(coordination_depth),
                has_output
                    ? (CoordinationFree() ? "coordination-free" : "coordinated")
                    : "no output");
  out += buf;
  if (!critical_path.empty()) {
    out += "critical path (root -> deepest):\n";
    for (const CausalStep& step : critical_path) {
      std::snprintf(buf, sizeof(buf),
                    "  depth %llu: node %u (transition %u)\n",
                    static_cast<unsigned long long>(step.depth), step.node,
                    step.transition);
      out += buf;
    }
  }
  return out;
}

CausalReport BuildCausalReport(const std::vector<TraceEvent>& events) {
  std::vector<std::pair<std::uint32_t, Delivery>> deliveries;
  std::vector<std::pair<std::uint32_t, std::uint64_t>> outputs;
  for (const TraceEvent& e : events) {
    if (e.kind == EventKind::kNetCausalDeliver) {
      deliveries.emplace_back(e.b, UnpackDelivery(e.a, e.value));
    } else if (e.kind == EventKind::kNetOutput) {
      outputs.emplace_back(e.b, e.value);
    }
  }
  return BuildFromDeliveries(deliveries, outputs);
}

CausalReport BuildCausalReport(const dist::MergedTrace& merged) {
  std::vector<std::pair<std::uint32_t, Delivery>> deliveries;
  deliveries.reserve(merged.pairs.size());
  for (std::size_t i = 0; i < merged.pairs.size(); ++i) {
    const dist::MatchedPair& pair = merged.pairs[i];
    Delivery d;
    d.node = pair.to;
    d.depth = pair.depth;
    d.parent = pair.parent;  // Already "pair index + 1, 0 = root".
    deliveries.emplace_back(static_cast<std::uint32_t>(i), d);
  }
  return BuildFromDeliveries(deliveries, {});
}

std::optional<CausalReport> CausalReportFromTraceJson(const JsonValue& doc) {
  const JsonValue* events = doc.Find("events");
  if (events == nullptr || !events->IsArray()) return std::nullopt;
  std::vector<std::pair<std::uint32_t, Delivery>> deliveries;
  std::vector<std::pair<std::uint32_t, std::uint64_t>> outputs;
  for (const EventRecord& e : EventsFromJson(doc)) {
    if (e.kind == EventKindName(EventKind::kNetCausalDeliver)) {
      deliveries.emplace_back(e.b, UnpackDelivery(e.a, e.value));
    } else if (e.kind == EventKindName(EventKind::kNetOutput)) {
      outputs.emplace_back(e.b, e.value);
    }
  }
  return BuildFromDeliveries(deliveries, outputs);
}

}  // namespace lamp::obs::audit
