// Experiments T1/T2 (Theorems 4.8 and 4.14): the deciders' cost grows with
// the quantifier structure the paper assigns them.
//
//   * parallel-correctness (Pi^p_2): the exact decider enumerates
//     |U|^{vars} outer valuations, each with an inner minimality search —
//     the measured curve is exponential in the variable count (path atoms
//     1..4 at |U| = 3) and polynomial in |U| for fixed vars (|U| = 2..16
//     for the 2-atom, 3-variable query);
//   * transfer (Pi^p_3): one more alternation — the same query sizes cost
//     markedly more than PC (atoms 1..3; transfer does not read |U|).
//
// Each record carries its member's decider answers and its own decider
// times (pc_decider_ms, transfer_decider_ms), so the curves are read off
// the records.

#include <cstdint>
#include <cstdio>
#include <string>

#include "cq/parser.h"
#include "distribution/parallel_correctness.h"
#include "distribution/policies.h"
#include "distribution/transfer.h"
#include "obs/bench_report.h"
#include "par/thread_pool.h"

namespace {

using namespace lamp;

/// Path query with k atoms: H(x0,xk) <- R0(x0,x1), ..., R{k-1}(x{k-1},xk).
std::string PathQueryText(std::size_t k) {
  std::string text;
  text.reserve(32 * (k + 1));
  text += "H(x0,x";
  text += std::to_string(k);
  text += ") <- ";
  for (std::size_t i = 0; i < k; ++i) {
    if (i > 0) text += ", ";
    text += "R";
    text += std::to_string(i);
    text += "(x";
    text += std::to_string(i);
    text += ",x";
    text += std::to_string(i + 1);
    text += ")";
  }
  return text;
}

LambdaPolicy EvenOddPolicy(std::size_t universe_size) {
  return LambdaPolicy(2, MakeUniverse(universe_size),
                      [](NodeId node, const Fact& f) {
                        // Node 0: facts whose argument sum is even; node 1
                        // everything (so PC holds and the decider must
                        // walk the whole space).
                        if (node == 1) return true;
                        std::int64_t sum = 0;
                        for (Value v : f.args) sum += v.v;
                        return sum % 2 == 0;
                      });
}

void PrintTable() {
  std::printf(
      "# T1/T2: decider outputs and times on the scaled family\n"
      "# columns: atoms  vars  |U|  parallel-correct  pc-ms  "
      "transfers-to-self  transfer-ms\n");
  obs::BenchReporter reporter("pc_complexity");
  struct Member {
    std::size_t atoms;
    std::size_t universe;
    bool transfer;  // Whether to time the transfer decider too.
  };
  const Member members[] = {
      {1, 3, true}, {2, 3, true}, {3, 3, true}, {4, 3, false},
      {2, 2, false}, {2, 4, false}, {2, 8, false}, {2, 16, false},
  };
  for (const Member& m : members) {
    Schema schema;
    const ConjunctiveQuery query = ParseQuery(schema, PathQueryText(m.atoms));
    const LambdaPolicy policy = EvenOddPolicy(m.universe);
    // A one-check sweep, so the time is this member's alone.
    obs::WallTimer pc_timer;
    const bool pc =
        ParallelCorrectnessSweep({PcCheck{&query, &policy}})[0] != 0;
    const double pc_ms = pc_timer.ElapsedMs();
    obs::BenchReporter::Record& record = reporter.NewRecord();
    record.Param("atoms", m.atoms)
        .Param("vars", m.atoms + 1)
        .Param("universe", m.universe)
        .Metric("parallel_correct", pc)
        .Metric("pc_decider_ms", pc_ms);
    double wall_ms = pc_ms;
    const char* transfers = "-";
    char transfer_ms_text[32] = "-";
    if (m.transfer) {
      obs::WallTimer transfer_timer;
      const bool transfers_to_self =
          ParallelCorrectnessTransfersTo(query, query);
      const double transfer_ms = transfer_timer.ElapsedMs();
      transfers = transfers_to_self ? "yes" : "no";
      std::snprintf(transfer_ms_text, sizeof(transfer_ms_text), "%.2f",
                    transfer_ms);
      record.Metric("transfers_to_self", transfers_to_self)
          .Metric("transfer_decider_ms", transfer_ms);
      wall_ms += transfer_ms;
    }
    std::printf("%6zu %5zu %4zu %17s %6.2f %18s %12s\n", m.atoms,
                m.atoms + 1, m.universe, pc ? "yes" : "no", pc_ms, transfers,
                transfer_ms_text);
    record.WallMs(wall_ms);
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  lamp::par::ConfigureFromCommandLine(&argc, argv);
  lamp::obs::ConfigureBenchFromCommandLine(argc, argv);
  lamp::obs::RunRepeated([] { PrintTable(); });
  return 0;
}
