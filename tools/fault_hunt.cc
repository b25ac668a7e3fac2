// fault_hunt: hunts divergence witnesses for transducer programs under
// adversarial schedules and fault injection (src/fault).
//
//   fault_hunt --program <name>     hunt a divergent final output
//   fault_hunt --program <name> --classify
//                                   per-fault-class confluence sweep
//   fault_hunt --list               show the example programs
//
// Options: --nodes N (default 3), --seeds N (per strategy / class,
// default 4), --out PREFIX (write PREFIX.witness.json and
// PREFIX.reference.json trace recordings for lamp_obs diff).
//
// The programs bracket the CALM dividing line: the monotone pipeline
// should come back clean under every strategy, the naive non-monotone
// broadcast diverges on a pure schedule, and the fragile counting
// barrier is correct fault-free but breaks under duplication — the hunt
// minimizes that to a single duplicated delivery.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "cq/eval.h"
#include "cq/parser.h"
#include "datalog/eval.h"
#include "datalog/program.h"
#include "fault/confluence.h"
#include "fault/explorer.h"
#include "net/datalog_program.h"
#include "net/network.h"
#include "net/programs.h"
#include "relational/generators.h"

namespace lamp {
namespace {

/// One hunt target: a program, its input distribution, and Q(I).
struct Target {
  std::unique_ptr<TransducerProgram> program;
  std::vector<std::vector<Instance>> distributions;
  Instance expected;
  Schema schema;
  bool aware = true;

  // Keeps the query/program dependencies alive.
  ConjunctiveQuery query;
  DatalogProgram datalog;
};

const char* const kPrograms[] = {"tc", "naive-open-triangle",
                                 "coordinated-barrier", "fragile-barrier"};

const char* Describe(const std::string& name) {
  if (name == "tc") {
    return "distributed Datalog transitive closure (monotone -> confluent)";
  }
  if (name == "naive-open-triangle") {
    return "naive broadcast of a non-monotone query (diverges on a pure"
           " schedule)";
  }
  if (name == "coordinated-barrier") {
    return "set-based done-marker barrier (correct under every injected"
           " class)";
  }
  if (name == "fragile-barrier") {
    return "counting barrier (correct fault-free, broken by duplication)";
  }
  return "";
}

std::unique_ptr<Target> MakeTarget(const std::string& name,
                                   std::size_t nodes) {
  auto target = std::make_unique<Target>();
  if (name == "tc") {
    target->datalog = ParseProgram(target->schema,
                                   "TC(x,y) <- E(x,y)\n"
                                   "TC(x,y) <- TC(x,z), E(z,y)");
    Instance edges;
    AddPathGraph(target->schema, target->schema.IdOf("E"), 8, edges);
    const RelationId tc = target->schema.IdOf("TC");
    target->expected =
        EvaluateProgram(target->schema, target->datalog, edges)
            .SelectRelations([tc](RelationId r) { return r == tc; });
    target->distributions.push_back(DistributeRoundRobin(edges, nodes));
    target->program = std::make_unique<DistributedDatalogProgram>(
        target->schema, target->datalog);
    target->aware = false;
    return target;
  }

  // The rest share the open-triangle query on a random graph.
  target->schema.AddRelation("E", 2);
  target->query = ParseQuery(target->schema,
                             "H(x,y,z) <- E(x,y), E(y,z), !E(z,x)");
  Rng rng(4);
  Instance graph;
  AddRandomGraph(target->schema, target->schema.IdOf("E"), 30, 10, rng,
                 graph);
  const ConjunctiveQuery& query = target->query;
  NetQueryFunction wrapped = [&query](const Instance& instance) {
    return Evaluate(query, instance);
  };
  target->expected = wrapped(graph);
  target->distributions.push_back(DistributeRoundRobin(graph, nodes));

  if (name == "naive-open-triangle") {
    target->program = std::make_unique<MonotoneBroadcastProgram>(wrapped);
    target->aware = false;
  } else if (name == "coordinated-barrier") {
    target->program = std::make_unique<CoordinatedBarrierProgram>(
        wrapped, target->schema);
  } else if (name == "fragile-barrier") {
    target->program = std::make_unique<FragileCountingBarrierProgram>(
        wrapped, target->schema);
  } else {
    return nullptr;
  }
  return target;
}

bool WriteJson(const std::string& path, const obs::JsonValue& value) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "fault_hunt: cannot write %s\n", path.c_str());
    return false;
  }
  out << value.Dump(2) << "\n";
  return true;
}

int Hunt(Target& target, std::size_t seeds, const std::string& out_prefix) {
  fault::ExplorerOptions options;
  options.seeds_per_strategy = seeds;
  options.capture_traces = !out_prefix.empty();
  const fault::ExplorerResult result = fault::ExploreSchedules(
      *target.program, target.distributions, target.expected, options,
      nullptr, target.aware, &target.schema);
  std::printf("strategies tried: %zu, network runs: %zu\n",
              result.strategies_tried, result.runs);
  if (!result.divergence_found) {
    std::printf("no divergence found: every strategy computed Q(I)\n");
    return 0;
  }
  const fault::DivergenceWitness& witness = result.witness;
  std::printf("divergence found by strategy '%s' (seed %llu,"
              " distribution %zu)\n",
              witness.strategy.c_str(),
              static_cast<unsigned long long>(witness.seed),
              witness.distribution_index);
  std::printf("minimized plan: %s\n", witness.plan.ToString().c_str());
  std::printf("output diff vs Q(I): %s\n", witness.diff.summary.c_str());
  if (!out_prefix.empty()) {
    const std::string witness_path = out_prefix + ".witness.json";
    const std::string reference_path = out_prefix + ".reference.json";
    if (!WriteJson(witness_path, witness.divergent_trace)) return 2;
    std::printf("witness trace:   %s\n", witness_path.c_str());
    if (witness.has_reference) {
      if (!WriteJson(reference_path, witness.reference_trace)) return 2;
      std::printf("reference trace: %s (clean seed %llu)\n",
                  reference_path.c_str(),
                  static_cast<unsigned long long>(witness.reference_seed));
      std::printf("inspect with: lamp_obs diff %s %s\n",
                  witness_path.c_str(), reference_path.c_str());
    }
  }
  return 1;
}

int Classify(Target& target, std::size_t seeds) {
  const fault::ConfluenceReport report = fault::ClassifyConfluence(
      *target.program, target.distributions, target.expected, seeds,
      nullptr, target.aware, &target.schema);
  std::printf("%-26s %-8s %-6s %-12s %s\n", "fault class", "verdict",
              "runs", "mean deliver", "first failure");
  for (const fault::FaultSweep& sweep : report.by_class) {
    std::string failure;
    if (sweep.first_failure.has_value()) {
      failure = sweep.first_failure->plan.ToString();
      failure += " -> ";
      failure += sweep.first_failure->diff.summary;
    }
    std::printf("%-26s %-8s %-6zu %-12.1f %s\n",
                std::string(fault::FaultClassName(sweep.fault_class)).c_str(),
                sweep.all_runs_correct ? "ok" : "DIVERGE", sweep.runs,
                sweep.MeanTransitions(), failure.c_str());
  }
  std::printf("verdict: %s\n",
              report.confluent ? "confluent under every injected class"
                               : "not confluent");
  return report.confluent ? 0 : 1;
}

int Main(int argc, char** argv) {
  std::string program_name;
  std::string out_prefix;
  std::size_t nodes = 3;
  std::size_t seeds = 4;
  bool classify = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--program") {
      if (const char* v = next()) program_name = v;
    } else if (arg == "--nodes") {
      if (const char* v = next()) nodes = std::strtoul(v, nullptr, 10);
    } else if (arg == "--seeds") {
      if (const char* v = next()) seeds = std::strtoul(v, nullptr, 10);
    } else if (arg == "--out") {
      if (const char* v = next()) out_prefix = v;
    } else if (arg == "--classify") {
      classify = true;
    } else if (arg == "--list") {
      for (const char* name : kPrograms) {
        std::printf("  %-22s %s\n", name, Describe(name));
      }
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: fault_hunt --program <name> [--classify] [--nodes N]\n"
          "                  [--seeds N] [--out PREFIX]\n"
          "       fault_hunt --list\n");
      return 0;
    } else {
      std::fprintf(stderr, "fault_hunt: unknown argument %s\n", arg.c_str());
      return 2;
    }
  }
  if (program_name.empty() || nodes < 2 || seeds == 0) {
    std::fprintf(stderr,
                 "fault_hunt: need --program (see --list), nodes >= 2 and"
                 " seeds >= 1\n");
    return 2;
  }
  std::unique_ptr<Target> target = MakeTarget(program_name, nodes);
  if (target == nullptr) {
    std::fprintf(stderr, "fault_hunt: unknown program %s (see --list)\n",
                 program_name.c_str());
    return 2;
  }
  return classify ? Classify(*target, seeds)
                  : Hunt(*target, seeds, out_prefix);
}

}  // namespace
}  // namespace lamp

int main(int argc, char** argv) { return lamp::Main(argc, argv); }
