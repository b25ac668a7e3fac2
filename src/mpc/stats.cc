#include "mpc/stats.h"

#include <algorithm>
#include <numeric>

namespace lamp {

std::size_t RoundStats::MaxLoad() const {
  if (received.empty()) return 0;
  return *std::max_element(received.begin(), received.end());
}

std::size_t RoundStats::TotalLoad() const {
  return std::accumulate(received.begin(), received.end(), std::size_t{0});
}

double RoundStats::AvgLoad() const {
  if (received.empty()) return 0.0;
  return static_cast<double>(TotalLoad()) /
         static_cast<double>(received.size());
}

std::size_t RoundStats::TotalWireBytes() const {
  return std::accumulate(wire_bytes.begin(), wire_bytes.end(),
                         std::size_t{0});
}

std::size_t RunStats::MaxLoad() const {
  std::size_t max_load = 0;
  for (const RoundStats& r : rounds) {
    max_load = std::max(max_load, r.MaxLoad());
  }
  return max_load;
}

std::size_t RunStats::TotalCommunication() const {
  std::size_t total = 0;
  for (const RoundStats& r : rounds) total += r.TotalLoad();
  return total;
}

std::size_t RunStats::TotalWireBytes() const {
  std::size_t total = 0;
  for (const RoundStats& r : rounds) total += r.TotalWireBytes();
  return total;
}

void RunStats::ToMetrics(obs::MetricsRegistry& registry) const {
  registry.GetCounter(obs::kMpcRounds).Add(rounds.size());
  registry.GetCounter(obs::kMpcTotalCommunication).Add(TotalCommunication());
  registry.GetCounter(obs::kMpcWireBytes).Add(TotalWireBytes());
  registry.GetGauge(obs::kMpcMaxLoad).Max(static_cast<double>(MaxLoad()));
  obs::Histogram& max_load = registry.GetHistogram(obs::kMpcRoundMaxLoad);
  obs::Histogram& total_load = registry.GetHistogram(obs::kMpcRoundTotalLoad);
  for (const RoundStats& r : rounds) {
    max_load.Observe(static_cast<double>(r.MaxLoad()));
    total_load.Observe(static_cast<double>(r.TotalLoad()));
  }
}

}  // namespace lamp
