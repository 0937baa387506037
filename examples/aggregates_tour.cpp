// Tour of the whole aggregate API on one network: Max, Min, Sum, Count,
// Average, Rank and Median (the aggregate families listed in the paper's
// abstract), each invoked uniformly through the drrg::api facade, which
// also supplies the per-run ground truth over the surviving nodes.
//
//   ./aggregates_tour [n] [loss] [crash] [seed]

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "api/registry.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace drrg;
  const std::uint32_t n = argc > 1 ? static_cast<std::uint32_t>(std::atoi(argv[1])) : 2048;
  const double loss = argc > 2 ? std::atof(argv[2]) : 0.05;
  const double crash = argc > 3 ? std::atof(argv[3]) : 0.05;
  const std::uint64_t seed = argc > 4 ? static_cast<std::uint64_t>(std::atoll(argv[4])) : 3;

  // One shared workload for every aggregate.
  Rng rng{derive_seed(seed, 0x70c6)};
  std::vector<double> values(n);
  for (auto& v : values) v = rng.next_uniform(-40.0, 140.0);

  std::printf("aggregates tour: n = %u, loss = %.0f%%, initial crashes = %.0f%%\n\n", n,
              loss * 100, crash * 100);

  // Robust push-sum schedule under faults, as in the failure benches.
  DrrGossipConfig robust;
  robust.push_sum.rounds_multiplier = 8.0;

  auto spec_for = [&](api::Aggregate agg, std::uint64_t s) {
    api::RunSpec spec;
    spec.n = n;
    spec.aggregate = agg;
    spec.seed = s;
    spec.faults = sim::FaultSchedule{loss, crash};
    spec.values = values;
    spec.rank_threshold = 50.0;
    spec.config = robust;
    return spec;
  };

  Table t{{"aggregate", "computed", "ground truth", "consensus", "msgs", "rounds"}};
  auto row = [&t](const std::string& name, const api::RunReport& r) {
    t.row()
        .add(name)
        .add_real(r.value, 4)
        .add_real(r.truth, 4)
        .add(r.consensus ? "yes" : "no")
        .add_uint(r.cost.sent)
        .add_uint(r.rounds);
  };

  row("Max", api::run("drr", spec_for(api::Aggregate::kMax, seed)));
  row("Min", api::run("drr", spec_for(api::Aggregate::kMin, seed + 1)));
  row("Average", api::run("drr", spec_for(api::Aggregate::kAve, seed + 2)));
  row("Sum", api::run("drr", spec_for(api::Aggregate::kSum, seed + 3)));
  row("Count", api::run("drr", spec_for(api::Aggregate::kCount, seed + 4)));

  // Loss-robust Count via extrema propagation, with k picked for ~6% rse.
  auto espec = spec_for(api::Aggregate::kCount, seed + 7);
  ExtremaConfig ecfg;
  ecfg.k = 256;
  espec.config = ecfg;
  row("Count(extrema)", api::run("extrema", espec));

  row("Rank(<50)", api::run("drr", spec_for(api::Aggregate::kRank, seed + 5)));

  QuantileConfig qc;
  qc.iterations = 20;
  auto mspec = spec_for(api::Aggregate::kMedian, seed + 6);
  mspec.config = qc;
  const auto md = api::run("drr", mspec);
  row("Median", md);

  std::printf("%s", t.to_string().c_str());
  std::printf("\n(ground truth is the exact aggregate over the surviving nodes,\n"
              " computed per run by the facade -- except the Median row, whose\n"
              " truth spans all nodes (see ROADMAP); Median binary-searches the\n"
              " value domain through repeated Rank queries, as in Kempe et al.)\n");
  return 0;
}
