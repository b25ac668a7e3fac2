#ifndef LAMP_MPC_STATS_H_
#define LAMP_MPC_STATS_H_

#include <cstddef>
#include <vector>

#include "obs/metrics.h"

/// \file
/// Load accounting for MPC rounds (Section 3 of the paper).
///
/// The model's central quantity is the *load*: the number of tuples a
/// server receives during one round. The paper states bounds on the maximum
/// load (e.g. O(m/p^{1/tau*}) for HyperCube) and on the total load a.k.a.
/// communication cost (the Shares objective). Both are tracked per round.
///
/// All accessors are total functions: on zero servers or zero rounds they
/// return 0 (there is no load), never divide by zero.

namespace lamp {

/// Tuples received per server during one communication phase.
struct RoundStats {
  std::vector<std::size_t> received;

  /// Wire bytes received per server (lamp.wire.v1 frames, duplicates and
  /// framing included), the same length as `received`. Both producers,
  /// MpcSimulator::RunRound and mpc_procs' distributed rounds, fill it; a
  /// hand-built RoundStats may leave it empty, which the accessors read
  /// as zero.
  std::vector<std::size_t> wire_bytes;

  /// Maximum load over servers (the Koutris-Suciu objective).
  std::size_t MaxLoad() const;

  /// Total load = communication cost (the Afrati-Ullman objective).
  std::size_t TotalLoad() const;

  /// Average load per server (0 on zero servers).
  double AvgLoad() const;

  /// Total wire bytes received this round (0 when `wire_bytes` is empty).
  std::size_t TotalWireBytes() const;
};

/// Statistics of a complete (multi-round) MPC execution.
struct RunStats {
  std::vector<RoundStats> rounds;

  /// Max over rounds of the per-round maximum load ("the load should
  /// always be a number in [m/p, m]" at any point of the execution).
  std::size_t MaxLoad() const;

  /// Total tuples communicated across all rounds.
  std::size_t TotalCommunication() const;

  /// Total wire bytes across all rounds (0 when not measured).
  std::size_t TotalWireBytes() const;

  std::size_t NumRounds() const { return rounds.size(); }

  /// Exports under the obs naming convention: mpc.rounds, mpc.max_load,
  /// mpc.total_communication plus the per-round mpc.round.* histograms.
  /// Counters accumulate when the registry already holds earlier runs.
  void ToMetrics(obs::MetricsRegistry& registry) const;
};

}  // namespace lamp

#endif  // LAMP_MPC_STATS_H_
