// Experiment T1 -- Table 1 of the paper:
//
//   algorithm            time            messages          address-obl.?
//   efficient gossip [8] O(log n loglog) O(n log log n)    no
//   uniform gossip  [9]  O(log n)        O(n log n)        yes
//   DRR-gossip (paper)   O(log n)        O(n log log n)    no
//
// Each case computes the global Average with one of the algorithms --
// invoked uniformly through the drrg::api facade -- and reports measured
// rounds and messages, plus the normalised columns that make the
// asymptotic class visible:
//   rounds_per_log      = rounds / log2 n         (flat => O(log n))
//   rounds_per_loglog2  = rounds / (log2 n loglog2 n)
//   msgs_per_nlog       = msgs / (n log2 n)       (flat => O(n log n))
//   msgs_per_nloglog    = msgs / (n loglog2 n)    (flat => O(n log log n))
//
// Scenario knobs (stripped before google-benchmark sees the arg list):
//   --table1_topology=NAME   complete | chord-ring | random-regular | grid
//   --table1_churn=R:F[,..]  crash F of the then-alive nodes at round R
//   --table1_scenario=NAME   structured-adversity preset, scaled to each n:
//                            latency   uniform 0-2 round call delays
//                            block     rack crash [n/8, n/4) at round 10
//                            partition boundary n/2 cut rounds 5..15
//                            join      10% of the id space joins at round 8
//   --table1_threads=W       parallel trial executor width (bit-identical)
//   --table1_json=PATH       machine-readable rows for perf tracking:
//                            one JSON object per line, so future PRs can
//                            diff rounds/msgs per (algorithm, n, scenario).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "api/registry.hpp"
#include "api/scenario_text.hpp"
#include "support/mathutil.hpp"

namespace drrg {
namespace {

constexpr int kTrials = 3;

struct Table1Options {
  sim::TopologySpec topology{};
  std::vector<sim::CrashEvent> churn;
  std::string churn_text;
  std::string scenario;
  unsigned threads = 1;
  std::string json_path;
};

Table1Options& options() {
  static Table1Options opt;
  return opt;
}

/// Builds the named structured-adversity preset, scaled to the run's n so
/// one flag covers the whole size range (block/partition events name
/// absolute ids).  "" leaves the schedule fault-free.
bool apply_scenario(std::string_view name, std::uint32_t n, sim::FaultSchedule* faults) {
  if (name.empty()) return true;
  if (name == "latency") {
    faults->latency = {sim::LatencyModel::Kind::kUniform, 0, 2, 0.0};
    return true;
  }
  if (name == "block") {
    faults->blocks = {{10, n / 8, n / 4, 0, 0}};
    return true;
  }
  if (name == "partition") {
    faults->partitions = {{5, 15, n / 2}};
    return true;
  }
  if (name == "join") {
    faults->joins = {{8, 0.10}};
    return true;
  }
  return false;
}

struct JsonRow {
  std::string algorithm;
  std::uint32_t n = 0;
  double rounds = 0.0;
  double msgs = 0.0;
  double rel_error = 0.0;
};

std::vector<JsonRow>& json_rows() {
  static std::vector<JsonRow> rows;
  return rows;
}

void write_json() {
  if (options().json_path.empty()) return;
  std::FILE* f = std::fopen(options().json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_table1: cannot write %s\n",
                 options().json_path.c_str());
    return;
  }
  for (const JsonRow& row : json_rows()) {
    std::fprintf(
        f,
        "{\"bench\":\"table1\",\"algo\":\"%s\",\"agg\":\"ave\",\"n\":%u,"
        "\"topology\":\"%s\",\"churn\":\"%s\",\"scenario\":\"%s\",\"trials\":%d,"
        "\"rounds\":%.17g,\"msgs\":%.17g,\"rel_error\":%.17g,"
        "\"rounds_per_log\":%.17g,\"msgs_per_nlog\":%.17g,"
        "\"msgs_per_nloglog\":%.17g}\n",
        row.algorithm.c_str(), row.n,
        std::string{sim::to_string(options().topology.kind)}.c_str(),
        options().churn_text.c_str(), options().scenario.c_str(), kTrials,
        row.rounds, row.msgs, row.rel_error,
        row.rounds / log2_clamped(row.n), row.msgs / (row.n * log2_clamped(row.n)),
        row.msgs / (row.n * loglog2_clamped(row.n)));
  }
  std::fclose(f);
}

void set_columns(benchmark::State& state, std::uint32_t n, double rounds, double msgs) {
  state.counters["rounds"] = rounds;
  state.counters["msgs"] = msgs;
  state.counters["rounds_per_log"] = rounds / log2_clamped(n);
  state.counters["rounds_per_loglog2"] = rounds / (log2_clamped(n) * loglog2_clamped(n));
  state.counters["msgs_per_n"] = msgs / n;
  state.counters["msgs_per_nlog"] = msgs / (n * log2_clamped(n));
  state.counters["msgs_per_nloglog"] = msgs / (n * loglog2_clamped(n));
}

/// One Table 1 row: `kTrials` facade runs of (algorithm, Ave) at size n on
/// the selected scenario, executed on the deterministic thread pool.
void run_ave_case(benchmark::State& state, const std::string& algorithm) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  double rounds = 0, msgs = 0, rel_error = 0;
  for (auto _ : state) {
    api::RunSpec spec;
    spec.n = n;
    spec.aggregate = api::Aggregate::kAve;
    spec.seed = 1000;
    spec.topology = options().topology;
    spec.faults.churn = options().churn;
    apply_scenario(options().scenario, n, &spec.faults);
    for (const api::RunReport& r :
         api::run_trials(algorithm, spec, kTrials, options().threads)) {
      rounds += r.rounds;
      msgs += static_cast<double>(r.cost.sent);
      rel_error += r.rel_error();
    }
  }
  set_columns(state, n, rounds / kTrials, msgs / kTrials);
  state.counters["rel_error"] = rel_error / kTrials;
  json_rows().push_back(
      {algorithm, n, rounds / kTrials, msgs / kTrials, rel_error / kTrials});
}

void BM_UniformGossipAve(benchmark::State& state) { run_ave_case(state, "uniform"); }
BENCHMARK(BM_UniformGossipAve)->RangeMultiplier(4)->Range(1 << 8, 1 << 16)->Iterations(1);

void BM_EfficientGossipAve(benchmark::State& state) { run_ave_case(state, "efficient"); }
BENCHMARK(BM_EfficientGossipAve)->RangeMultiplier(4)->Range(1 << 8, 1 << 16)->Iterations(1);

// Supplementary row: pairwise averaging (Boyd et al. [1]) -- the second
// address-oblivious Average baseline; also Theta(n log n) messages.
void BM_PairwiseAve(benchmark::State& state) { run_ave_case(state, "pairwise"); }
BENCHMARK(BM_PairwiseAve)->RangeMultiplier(4)->Range(1 << 8, 1 << 16)->Iterations(1);

void BM_DrrGossipAve(benchmark::State& state) { run_ave_case(state, "drr"); }
BENCHMARK(BM_DrrGossipAve)->RangeMultiplier(4)->Range(1 << 8, 1 << 16)->Iterations(1);

// §4 row: the sparse pipeline on the Chord overlay (Theorem 14) -- its
// ops counters joined the CI goldens when Phase III moved onto the shared
// engine.  The family fixes its own substrate, so the row only exists on
// the complete --table1_topology (no json row is emitted otherwise).
void BM_ChordDrrAve(benchmark::State& state) {
  if (!options().topology.is_complete()) {
    state.SkipWithError("chord-drr fixes its own overlay; --table1_topology n/a");
    return;
  }
  run_ave_case(state, "chord-drr");
}
BENCHMARK(BM_ChordDrrAve)->RangeMultiplier(4)->Range(1 << 8, 1 << 16)->Iterations(1);

/// Strips --table1_* flags (ours) from argv before google-benchmark's own
/// flag parsing rejects them.
int parse_own_flags(int argc, char** argv) {
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto value_of = [arg](const char* prefix) -> const char* {
      const std::size_t len = std::strlen(prefix);
      return std::strncmp(arg, prefix, len) == 0 ? arg + len : nullptr;
    };
    if (const char* v = value_of("--table1_topology=")) {
      const auto spec = sim::topology_from_name(v);
      if (!spec.has_value()) {
        std::fprintf(stderr, "bench_table1: unknown topology '%s' (%s)\n", v,
                     api::topology_names().c_str());
        std::exit(2);
      }
      options().topology = *spec;
    } else if (const char* v = value_of("--table1_churn=")) {
      const auto churn = api::parse_churn(v);
      if (!churn.has_value()) {
        std::fprintf(stderr, "bench_table1: malformed churn '%s'\n", v);
        std::exit(2);
      }
      options().churn = *churn;
      options().churn_text = v;
    } else if (const char* v = value_of("--table1_scenario=")) {
      sim::FaultSchedule probe;
      if (!apply_scenario(v, 256, &probe)) {
        std::fprintf(stderr,
                     "bench_table1: unknown scenario '%s' (want latency, block, "
                     "partition or join)\n",
                     v);
        std::exit(2);
      }
      options().scenario = v;
    } else if (const char* v = value_of("--table1_threads=")) {
      options().threads = static_cast<unsigned>(std::atoi(v));
    } else if (const char* v = value_of("--table1_json=")) {
      options().json_path = v;
    } else {
      argv[kept++] = argv[i];
    }
  }
  return kept;
}

}  // namespace
}  // namespace drrg

int main(int argc, char** argv) {
  argc = drrg::parse_own_flags(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  drrg::write_json();
  return 0;
}
