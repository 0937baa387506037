// drrg_cli -- command-line driver for the library: run any registered
// algorithm / aggregate combination on a synthetic workload and print the
// result with its cost, as a table, as CSV, or as JSON-lines for
// scripting sweeps.
//
//   drrg_cli --algo drr --agg ave --n 8192 --loss 0.1 --trials 5
//   drrg_cli --algo uniform --agg max --n 65536 --csv
//   drrg_cli --algo drr --agg ave --n 4096 --topology chord-ring --json
//   drrg_cli --algo drr --agg count --n 4096 --churn 10:0.1,20:0.1 --csv
//   drrg_cli --algo drr --agg ave --trials 32 --threads 8
//   drrg_cli --algo uniform --agg ave --n 65536 --json --peak-rss
//   drrg_cli --list
//
// Dispatch and --list are driven by the drrg::api::Registry: an algorithm
// registered there is immediately runnable and listed here, with no CLI
// changes.

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "api/registry.hpp"
#include "api/scenario_text.hpp"
#include "support/peak_rss.hpp"
#include "support/table.hpp"

namespace {

struct Options {
  std::string algo = "drr";
  std::string agg = "ave";
  std::uint32_t n = 4096;
  std::uint64_t seed = 42;
  double loss = 0.0;
  double crash = 0.0;
  double rank_threshold = 0.0;
  int trials = 1;
  unsigned threads = 1;
  double diam_mult = 1.0;
  drrg::api::Pipeline pipeline = drrg::api::Pipeline::kDense;
  drrg::api::Transport transport = drrg::api::Transport::kSim;
  std::uint16_t bind_port = 0;
  std::string seed_list;
  std::string chaos_text;
  std::int64_t round_ms = 0;
  drrg::sim::TopologySpec topology{};
  std::vector<drrg::sim::CrashEvent> churn;
  std::vector<drrg::sim::JoinEvent> joins;
  std::vector<drrg::sim::BlockCrashEvent> blocks;
  std::vector<drrg::sim::PartitionEvent> partitions;
  drrg::sim::LatencyModel latency{};
  std::string churn_text;
  std::string join_text;
  std::string block_text;
  std::string partition_text;
  std::string latency_text;
  bool csv = false;
  bool json = false;
  bool peak_rss = false;
};

[[noreturn]] void usage(int code) {
  std::string algos, aggs;
  for (const auto* a : drrg::api::Registry::instance().algorithms()) {
    if (!algos.empty()) algos += ' ';
    algos += a->name;
  }
  for (drrg::api::Aggregate g : drrg::api::kAllAggregates) {
    if (!aggs.empty()) aggs += ' ';
    aggs += std::string{drrg::api::to_string(g)};
  }
  std::fprintf(stderr,
               "usage: drrg_cli [--algo A] [--agg G] [--n N] [--seed S]\n"
               "                [--loss D] [--crash F] [--churn R:F[,R:F...]]\n"
               "                [--join R:F[,...]] [--block-crash R:LO-HI[:S/W][,...]]\n"
               "                [--partition R:B[:H][,...]]\n"
               "                [--latency fixed:D|uniform:A-B|tail:A-B:P]\n"
               "                [--topology P] [--degree D] [--backend B] [--threshold X]\n"
               "                [--trials T] [--threads W]\n"
               "                [--diam-mult M] [--pipeline dense|sparse]\n"
               "                [--transport sim|udp] [--bind-port P] [--seed-list L]\n"
               "                [--chaos SPEC] [--round-ms MS]\n"
               "                [--csv] [--json] [--peak-rss] [--list]\n"
               "  A: %s\n"
               "  G: %s\n"
               "  P: %s\n"
               "  --churn crashes fraction F of the then-alive nodes at round R\n"
               "  --join defers fraction F of the id space out of the round-0\n"
               "      cohort; they join (and bootstrap from a live peer) at round R\n"
               "  --block-crash kills every id in [LO,HI) at round R; an optional\n"
               "      :STRIDE/WIDTH keeps only lattice-rectangle offsets\n"
               "  --partition drops every message straddling id boundary B from\n"
               "      round R (optionally healing at round H)\n"
               "  --latency delays each call by d rounds drawn per message\n"
               "      (event-time delivery; replies stay same-round reliable)\n"
               "  --backend picks the structured-topology storage: csr materialises\n"
               "      adjacency, implicit computes neighbors from ids (chord-ring and\n"
               "      grid/torus only); auto (default) goes implicit at n >= 131072.\n"
               "      Both sample identically -- results are byte-equal either way\n"
               "  --threads 0 uses every hardware core; any value is bit-identical\n"
               "  --diam-mult scales the DRR Phase III budget by M*diameter/log2(n)\n"
               "      on explicit topologies (1 = default; 0 disables the whole\n"
               "      topology adaptation incl. the tree-member relay)\n"
               "  --pipeline sparse runs the paper's sparse pipeline (Local-DRR +\n"
               "      routed root gossip) for --algo drr on an explicit --topology\n"
               "  --transport udp forks one drrg_node process per node and runs the\n"
               "      pipeline over real 127.0.0.1 UDP sockets (drr only);\n"
               "      --bind-port sets the first port (node v binds P + v, 0 probes\n"
               "      for a free range), --seed-list pins explicit host:port,...\n"
               "      addresses (position i = node i, loopback only)\n"
               "  --chaos injects deterministic datagram-level adversity into the\n"
               "      udp transport: comma-joined drop:P dup:P corrupt:P\n"
               "      reorder:P[/SPAN] delay:<latency-ms> cut:B@S[-H] tokens\n"
               "      (e.g. drop:0.1,dup:0.05,reorder:0.2/4,cut:24@500-4000)\n"
               "  --round-ms maps scheduled rounds onto the udp wall clock\n"
               "      (block-crash -> real SIGKILL, partition -> timed cut,\n"
               "      join -> late spawn, latency -> per-datagram delay);\n"
               "      defaults to 250 when such a schedule needs it\n"
               "  --peak-rss adds this process's peak resident set (VmHWM, MiB)\n"
               "      to every --json line as \"peak_rss_mib\"\n",
               algos.c_str(), aggs.c_str(), drrg::api::topology_names().c_str());
  std::exit(code);
}

/// Prints the algorithm x aggregate matrix straight from the registry.
void list_matrix() {
  std::printf("%-14s %-42s %-8s %s\n", "algorithm", "aggregates", "transports",
              "description");
  std::printf("%-14s %-42s %-8s %s\n", "-------------",
              "-----------------------------------------", "--------", "-----------");
  for (const auto* a : drrg::api::Registry::instance().algorithms()) {
    std::string aggs;
    for (drrg::api::Aggregate g : a->aggregates) {
      if (!aggs.empty()) aggs += ' ';
      aggs += std::string{drrg::api::to_string(g)};
    }
    std::string transports;
    for (drrg::api::Transport t : a->transports) {
      if (!transports.empty()) transports += ' ';
      transports += std::string{drrg::api::to_string(t)};
    }
    std::printf("%-14s %-42s %-8s %s\n", a->name.c_str(), aggs.c_str(),
                transports.c_str(), a->description.c_str());
  }
}

/// Parses the whole of `text` as a T: base-10 digits for an integer (a
/// leading '-' only when T is signed), a finite decimal for a double.
/// Anything else, or a value outside [lo, hi], exits 2 naming `flag`.
template <class T>
T parse_number(const char* flag, const char* text,
               T lo = std::numeric_limits<T>::lowest(),
               T hi = std::numeric_limits<T>::max()) {
  const char* end = text + std::strlen(text);
  T value{};
  const auto [ptr, ec] = std::from_chars(text, end, value);
  bool ok = ec == std::errc{} && ptr == end && lo <= value && value <= hi;
  if constexpr (std::is_floating_point_v<T>) {
    ok = ok && std::isfinite(value);
    if (!ok) std::fprintf(stderr, "invalid value for %s: %s (want a finite number)\n",
                          flag, text);
  } else if (!ok) {
    std::fprintf(stderr, "invalid value for %s: %s (want an integer in [%s, %s])\n",
                 flag, text, std::to_string(lo).c_str(), std::to_string(hi).c_str());
  }
  if (!ok) usage(2);
  return value;
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", what);
        usage(2);
      }
      return argv[++i];
    };
    if (arg == "--algo") opt.algo = next("--algo");
    else if (arg == "--agg") opt.agg = next("--agg");
    else if (arg == "--n") opt.n = parse_number<std::uint32_t>("--n", next("--n"), 4);
    else if (arg == "--seed") opt.seed = parse_number<std::uint64_t>("--seed", next("--seed"));
    else if (arg == "--loss") opt.loss = parse_number<double>("--loss", next("--loss"));
    else if (arg == "--crash") opt.crash = parse_number<double>("--crash", next("--crash"));
    else if (arg == "--threshold")
      opt.rank_threshold = parse_number<double>("--threshold", next("--threshold"));
    else if (arg == "--trials") opt.trials = parse_number<int>("--trials", next("--trials"), 1);
    else if (arg == "--threads") opt.threads = parse_number<unsigned>("--threads", next("--threads"));
    else if (arg == "--diam-mult")
      opt.diam_mult = parse_number<double>("--diam-mult", next("--diam-mult"));
    else if (arg == "--pipeline") {
      const char* name = next("--pipeline");
      const auto pipeline = drrg::api::pipeline_from_name(name);
      if (!pipeline.has_value()) {
        std::fprintf(stderr, "unknown pipeline: %s (want dense or sparse)\n", name);
        usage(2);
      }
      opt.pipeline = *pipeline;
    }
    else if (arg == "--transport") {
      const char* name = next("--transport");
      const auto transport = drrg::api::transport_from_name(name);
      if (!transport.has_value()) {
        std::fprintf(stderr, "unknown transport: %s (want sim or udp)\n", name);
        usage(2);
      }
      opt.transport = *transport;
    }
    else if (arg == "--bind-port")
      opt.bind_port = parse_number<std::uint16_t>("--bind-port", next("--bind-port"));
    else if (arg == "--seed-list") opt.seed_list = next("--seed-list");
    else if (arg == "--chaos") {
      opt.chaos_text = next("--chaos");
      if (!drrg::api::parse_chaos(opt.chaos_text).has_value()) {
        std::fprintf(stderr,
                     "malformed chaos spec: %s (want drop:P,dup:P,corrupt:P,"
                     "reorder:P[/SPAN],delay:<latency>,cut:B@S[-H])\n",
                     opt.chaos_text.c_str());
        usage(2);
      }
    }
    else if (arg == "--round-ms")
      opt.round_ms = parse_number<std::int64_t>("--round-ms", next("--round-ms"));
    else if (arg == "--degree")
      opt.topology.degree = parse_number<std::uint32_t>("--degree", next("--degree"));
    else if (arg == "--topology") {
      const char* name = next("--topology");
      const auto spec = drrg::sim::topology_from_name(name);
      if (!spec.has_value()) {
        std::fprintf(stderr, "unknown topology: %s\n", name);
        usage(2);
      }
      const auto degree = opt.topology.degree;
      const auto backend = opt.topology.backend;
      opt.topology = *spec;
      opt.topology.degree = degree;    // --degree may precede --topology
      opt.topology.backend = backend;  // so may --backend
    }
    else if (arg == "--backend") {
      const char* name = next("--backend");
      const auto backend = drrg::sim::backend_from_name(name);
      if (!backend.has_value()) {
        std::fprintf(stderr, "unknown backend: %s (want auto, csr or implicit)\n", name);
        usage(2);
      }
      opt.topology.backend = *backend;
    }
    else if (arg == "--churn") {
      opt.churn_text = next("--churn");
      const auto churn = drrg::api::parse_churn(opt.churn_text);
      if (!churn.has_value()) {
        std::fprintf(stderr, "malformed churn schedule: %s (want R:F[,R:F...])\n",
                     opt.churn_text.c_str());
        usage(2);
      }
      opt.churn = *churn;
    }
    else if (arg == "--join") {
      opt.join_text = next("--join");
      const auto joins = drrg::api::parse_joins(opt.join_text);
      if (!joins.has_value()) {
        std::fprintf(stderr, "malformed join schedule: %s (want R:F[,R:F...])\n",
                     opt.join_text.c_str());
        usage(2);
      }
      opt.joins = *joins;
    }
    else if (arg == "--block-crash") {
      opt.block_text = next("--block-crash");
      const auto blocks = drrg::api::parse_blocks(opt.block_text);
      if (!blocks.has_value()) {
        std::fprintf(stderr,
                     "malformed block-crash schedule: %s (want R:LO-HI[:S/W][,...])\n",
                     opt.block_text.c_str());
        usage(2);
      }
      opt.blocks = *blocks;
    }
    else if (arg == "--partition") {
      opt.partition_text = next("--partition");
      const auto partitions = drrg::api::parse_partitions(opt.partition_text);
      if (!partitions.has_value()) {
        std::fprintf(stderr, "malformed partition schedule: %s (want R:B[:H][,...])\n",
                     opt.partition_text.c_str());
        usage(2);
      }
      opt.partitions = *partitions;
    }
    else if (arg == "--latency") {
      opt.latency_text = next("--latency");
      const auto latency = drrg::api::parse_latency(opt.latency_text);
      if (!latency.has_value()) {
        std::fprintf(stderr,
                     "malformed latency model: %s (want fixed:D, uniform:A-B or "
                     "tail:A-B:P)\n",
                     opt.latency_text.c_str());
        usage(2);
      }
      opt.latency = *latency;
    }
    else if (arg == "--csv") opt.csv = true;
    else if (arg == "--json") opt.json = true;
    else if (arg == "--peak-rss") opt.peak_rss = true;
    else if (arg == "--list") { list_matrix(); std::exit(0); }
    else if (arg == "--help" || arg == "-h") usage(0);
    else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      usage(2);
    }
  }
  if (opt.csv && opt.json) {
    std::fprintf(stderr, "--csv and --json are mutually exclusive\n");
    usage(2);
  }
  if (opt.peak_rss && !opt.json)
    std::fprintf(stderr, "--peak-rss only applies to --json (ignored)\n");
  return opt;
}

/// Substrate facts beyond the family name: the resolved storage backend
/// and, for lattices, the rows x cols shape make_topology derived from n
/// (so a sweep's JSON records the actual aspect ratio, not just "grid").
std::string topology_extras_json(const drrg::api::RunSpec& spec) {
  using drrg::sim::TopologyKind;
  const TopologyKind kind = spec.topology.kind;
  std::string out;
  if (kind == TopologyKind::kChordRing || kind == TopologyKind::kGrid2d) {
    const bool implicit =
        drrg::sim::uses_implicit_backend(drrg::api::effective_topology(spec), spec.n);
    out += ",\"backend\":\"";
    out += implicit ? "implicit" : "csr";
    out += '"';
  }
  if (kind == TopologyKind::kGrid2d) {
    const drrg::sim::GridShape shape = drrg::sim::grid_shape(spec.n);
    out += ",\"grid_rows\":" + std::to_string(shape.rows) +
           ",\"grid_cols\":" + std::to_string(shape.cols);
  }
  return out;
}

void print_json(const Options& opt, const drrg::api::RunSpec& spec,
                const drrg::api::RunReport& r) {
  // Opt-in, so the default line stays byte-identical across versions.
  char peak_rss[48] = "";
  if (opt.peak_rss)
    std::snprintf(peak_rss, sizeof peak_rss, ",\"peak_rss_mib\":%.1f",
                  drrg::support::peak_rss_mib());
  std::printf("{\"algo\":\"%s\",\"agg\":\"%s\",\"n\":%u,\"seed\":%llu,"
              "\"pipeline\":\"%s\",\"transport\":\"%s\","
              "\"topology\":\"%s\"%s,\"loss\":%.4f,\"crash\":%.4f,\"churn\":\"%s\","
              "\"join\":\"%s\",\"block_crash\":\"%s\",\"partition\":\"%s\","
              "\"latency\":\"%s\",\"chaos\":\"%s\","
              "\"value\":%.17g,\"truth\":%.17g,"
              "\"abs_error\":%.17g,\"rel_error\":%.17g,\"consensus\":%s,"
              "\"messages\":%llu,\"delivered\":%llu,\"bits\":%llu,\"rounds\":%u%s}\n",
              r.algorithm.c_str(), std::string{drrg::api::to_string(r.aggregate)}.c_str(),
              r.n, static_cast<unsigned long long>(r.seed),
              std::string{drrg::api::to_string(opt.pipeline)}.c_str(),
              std::string{drrg::api::to_string(opt.transport)}.c_str(),
              std::string{drrg::sim::to_string(opt.topology.kind)}.c_str(),
              topology_extras_json(spec).c_str(),
              opt.loss, opt.crash, opt.churn_text.c_str(),
              drrg::api::format_joins(opt.joins).c_str(),
              drrg::api::format_blocks(opt.blocks).c_str(),
              drrg::api::format_partitions(opt.partitions).c_str(),
              drrg::api::format_latency(opt.latency).c_str(), opt.chaos_text.c_str(),
              r.value, r.truth, r.abs_error(), r.rel_error(),
              r.consensus ? "true" : "false",
              static_cast<unsigned long long>(r.cost.sent),
              static_cast<unsigned long long>(r.cost.delivered),
              static_cast<unsigned long long>(r.cost.bits), r.rounds, peak_rss);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace drrg;
  const Options opt = parse(argc, argv);

  const api::AlgorithmInfo* algo = api::Registry::instance().find(opt.algo);
  if (algo == nullptr) {
    std::fprintf(stderr, "unknown algorithm: %s\n", opt.algo.c_str());
    usage(2);
  }
  const auto agg = api::aggregate_from_name(opt.agg);
  if (!agg.has_value()) {
    std::fprintf(stderr, "unknown aggregate: %s\n", opt.agg.c_str());
    usage(2);
  }
  if (!algo->supports(*agg)) {
    std::fprintf(stderr, "'%s' does not support '%s' (see --list)\n",
                 opt.algo.c_str(), opt.agg.c_str());
    usage(2);
  }

  api::RunSpec spec;
  spec.n = opt.n;
  spec.aggregate = *agg;
  spec.seed = opt.seed;
  spec.faults.loss_prob = opt.loss;
  spec.faults.crash_fraction = opt.crash;
  spec.faults.churn = opt.churn;
  spec.faults.joins = opt.joins;
  spec.faults.blocks = opt.blocks;
  spec.faults.partitions = opt.partitions;
  spec.faults.latency = opt.latency;
  spec.topology = opt.topology;
  spec.pipeline = opt.pipeline;
  spec.transport = opt.transport;
  spec.udp_port_base = opt.bind_port;
  spec.udp_seed_list = opt.seed_list;
  spec.udp_chaos = opt.chaos_text;
  spec.udp_round_ms = opt.round_ms;
  if (opt.pipeline != api::Pipeline::kDense && opt.algo != "drr")
    std::fprintf(stderr, "--pipeline only applies to --algo drr (ignored)\n");
  if (opt.transport == api::Transport::kSim &&
      (opt.bind_port != 0 || !opt.seed_list.empty() || !opt.chaos_text.empty() ||
       opt.round_ms != 0))
    std::fprintf(stderr,
                 "--bind-port/--seed-list/--chaos/--round-ms only apply to "
                 "--transport udp (ignored)\n");
  spec.rank_threshold = opt.rank_threshold;
  if (opt.diam_mult != 1.0) {
    // Only the dense DRR pipeline reads the knob; leave the config variant
    // alone otherwise so other algorithms keep their defaults.  The sparse
    // pipeline has no diameter budget (its routed sampler already mixes
    // uniformly), and it takes a SparseGossipConfig -- silently storing a
    // DrrGossipConfig would fail every run with a config-type mismatch.
    if (opt.algo == "drr" && opt.pipeline == api::Pipeline::kDense) {
      DrrGossipConfig cfg;
      cfg.phase3_diameter_multiplier = opt.diam_mult;
      spec.config = cfg;
    } else {
      std::fprintf(stderr,
                   "--diam-mult only applies to --algo drr --pipeline dense (ignored)\n");
    }
  }

  if (opt.csv) {
    std::printf(
        "algo,agg,n,seed,topology,loss,crash,churn,value,truth,consensus,messages,rounds\n");
  } else if (!opt.json) {
    std::string extras;
    if (!opt.churn_text.empty()) extras += ", churn " + opt.churn_text;
    if (!opt.join_text.empty()) extras += ", join " + opt.join_text;
    if (!opt.block_text.empty()) extras += ", block-crash " + opt.block_text;
    if (!opt.partition_text.empty()) extras += ", partition " + opt.partition_text;
    if (!opt.latency.zero()) extras += ", latency " + api::format_latency(opt.latency);
    std::printf("%s%s%s / %s on n = %u, %s (loss %.3f, crash %.3f%s, %d trial%s, %u thread%s)\n",
                opt.algo.c_str(),
                opt.pipeline == api::Pipeline::kSparse ? " [sparse]" : "",
                opt.transport == api::Transport::kUdp ? " [udp]" : "",
                opt.agg.c_str(), opt.n,
                std::string{sim::to_string(opt.topology.kind)}.c_str(), opt.loss,
                opt.crash, extras.c_str(),
                opt.trials, opt.trials == 1 ? "" : "s",
                opt.threads, opt.threads == 1 ? "" : "s");
  }

  Table table{{"seed", "value", "truth", "consensus", "messages", "rounds",
               "msgs/n"}};
  bool all_ok = true;
  for (const api::RunReport& r : api::run_trials(opt.algo, spec, opt.trials, opt.threads)) {
    if (!r.ok()) {
      std::fprintf(stderr, "run failed (seed %llu): %s\n",
                   static_cast<unsigned long long>(r.seed), r.error.c_str());
      all_ok = false;
      continue;
    }
    if (opt.csv) {
      std::printf("%s,%s,%u,%llu,%s,%.4f,%.4f,%s,%.8g,%.8g,%d,%llu,%u\n",
                  r.algorithm.c_str(), opt.agg.c_str(), r.n,
                  static_cast<unsigned long long>(r.seed),
                  std::string{sim::to_string(opt.topology.kind)}.c_str(),
                  opt.loss, opt.crash, opt.churn_text.c_str(),
                  r.value, r.truth, r.consensus ? 1 : 0,
                  static_cast<unsigned long long>(r.cost.sent), r.rounds);
    } else if (opt.json) {
      print_json(opt, spec, r);
    } else {
      table.row()
          .add_uint(r.seed)
          .add_real(r.value, 6)
          .add_real(r.truth, 6)
          .add(r.consensus ? "yes" : "no")
          .add_uint(r.cost.sent)
          .add_uint(r.rounds)
          .add_real(static_cast<double>(r.cost.sent) / opt.n, 2);
    }
  }
  if (!opt.csv && !opt.json) {
    std::string rendered = table.to_string();
    std::fputs(rendered.c_str(), stdout);
  }
  return all_ok ? 0 : 1;
}
