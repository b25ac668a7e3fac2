// Experiment C3 (Section 6, Ketsman-Neven): economical broadcasting for
// full CQs without self-joins — only transmit the part of the local data
// that can participate in the query.
//
// The table measures facts transferred by the naive full broadcast versus
// the relevance-filtered broadcast, as the fraction of query-irrelevant
// data grows. Both must compute the same answer.

#include <cstdio>

#include "common/rng.h"
#include "cq/eval.h"
#include "cq/parser.h"
#include "net/consistency.h"
#include "net/network.h"
#include "net/programs.h"
#include "obs/bench_report.h"
#include "par/thread_pool.h"
#include "relational/generators.h"

namespace {

using namespace lamp;

struct Setup {
  Schema schema;
  ConjunctiveQuery query;
  RelationId r, s, noise;

  Setup() {
    // Full CQ without self-joins; R(x,x) makes off-diagonal R-facts
    // irrelevant, and the `Noise` relation does not occur in the query.
    query = ParseQuery(schema, "H(x,y) <- R(x,x), S(x,y)");
    r = schema.IdOf("R");
    s = schema.IdOf("S");
    noise = schema.AddRelation("Noise", 2);
  }

  Instance MakeInput(std::size_t relevant, std::size_t irrelevant,
                     std::uint64_t seed) {
    Rng rng(seed);
    Instance db;
    for (std::size_t i = 0; i < relevant; ++i) {
      const auto v = static_cast<std::int64_t>(i);
      db.Insert(Fact(r, {v, v}));
      db.Insert(Fact(s, {v, v + 1}));
    }
    for (std::size_t i = 0; i < irrelevant; ++i) {
      const auto v = static_cast<std::int64_t>(i);
      db.Insert(Fact(r, {v, v + 1}));  // Never matches R(x,x).
      AddUniformRelation(schema, noise, 1, 4 * (irrelevant + 4), rng, db);
    }
    return db;
  }
};

void PrintTable() {
  Setup setup;
  obs::BenchReporter reporter("broadcast_economy");
  std::printf(
      "# C3: economical broadcasting (Ketsman-Neven)\n"
      "# columns: irrelevant-fraction  naive-facts  economical-facts  "
      "saving  same-answer\n");
  const std::size_t relevant = 200;
  for (std::size_t irrelevant : {0u, 200u, 600u, 1800u}) {
    obs::WallTimer timer;
    Instance db = setup.MakeInput(relevant, irrelevant, 3);
    const Instance expected = Evaluate(setup.query, db);
    const auto locals = DistributeRoundRobin(db, 4);

    NetQueryFunction q = [&setup](const Instance& i) {
      return Evaluate(setup.query, i);
    };
    MonotoneBroadcastProgram naive(q);
    EconomicalBroadcastProgram economical(setup.query);

    TransducerNetwork naive_net(locals, naive, nullptr, false);
    TransducerNetwork econ_net(locals, economical, nullptr, false);
    const NetworkRunResult naive_run = naive_net.Run(1);
    const NetworkRunResult econ_run = econ_net.Run(1);

    const double frac =
        static_cast<double>(2 * irrelevant) /
        static_cast<double>(2 * relevant + 2 * irrelevant);
    std::printf("%18.2f %12zu %17zu %7.1f%% %12s\n", frac,
                naive_run.facts_transferred(), econ_run.facts_transferred(),
                100.0 * (1.0 - static_cast<double>(
                                   econ_run.facts_transferred()) /
                                   static_cast<double>(std::max<std::size_t>(
                                       1, naive_run.facts_transferred()))),
                (naive_run.output == expected &&
                 econ_run.output == expected)
                    ? "yes"
                    : "NO");
    reporter.NewRecord()
        .Param("relevant", relevant)
        .Param("irrelevant", irrelevant)
        .Param("nodes", std::size_t{4})
        .Param("irrelevant_fraction", frac)
        .Metric("naive.net.facts_transferred", naive_run.facts_transferred())
        .Metric("economical.net.facts_transferred",
                econ_run.facts_transferred())
        .Metric("naive.net.messages_sent", naive_run.messages_sent())
        .Metric("economical.net.messages_sent", econ_run.messages_sent())
        .Metric("same_answer", naive_run.output == expected &&
                                   econ_run.output == expected)
        .WallMs(timer.ElapsedMs());
  }
  std::printf(
      "# shape check: saving grows with the irrelevant fraction; answers "
      "always identical.\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  lamp::par::ConfigureFromCommandLine(&argc, argv);
  lamp::obs::ConfigureBenchFromCommandLine(argc, argv);
  lamp::obs::RunRepeated([] { PrintTable(); });
  return 0;
}
