// Sensor-network scenario (the §1 motivation: "in sensor networks, knowing
// the average or maximum remaining battery power among the sensor nodes is
// a critical statistic").
//
// n sensors are scattered uniformly over the unit square and can talk to
// neighbors within radio range (a random geometric graph).  Links are
// lossy.  Local-DRR (§4) partitions the field into shallow clusters, each
// cluster convergecasts its statistics to its head, and the per-cluster
// results are combined (in a deployment, at the base station that polls
// the heads -- radio fields have no DHT for the routed gossip phase):
//
//   * minimum remaining battery  (which sensor dies first?)
//   * average battery            (fleet health)
//   * maximum temperature        (hot spots)
//
//   ./sensor_network [n] [radius] [loss] [seed]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "drr/local_drr.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"
#include "topology/builders.hpp"
#include "trees/broadcast.hpp"
#include "trees/convergecast.hpp"

int main(int argc, char** argv) {
  using namespace drrg;
  const std::uint32_t n = argc > 1 ? static_cast<std::uint32_t>(std::atoi(argv[1])) : 2048;
  const double radius = argc > 2 ? std::atof(argv[2]) : 0.05;
  const double loss = argc > 3 ? std::atof(argv[3]) : 0.1;
  const std::uint64_t seed = argc > 4 ? static_cast<std::uint64_t>(std::atoll(argv[4])) : 7;

  const Graph field = make_geometric(n, radius, seed);
  std::printf("sensor field: %u sensors, radio range %.3f -> %llu links (%s), loss %.0f%%\n",
              n, radius, static_cast<unsigned long long>(field.edge_count()),
              field.connected() ? "connected" : "PARTITIONED", loss * 100.0);

  // Sensor state.
  Rng rng{derive_seed(seed, 0x5e50)};
  std::vector<double> battery(n), temperature(n);
  for (std::uint32_t v = 0; v < n; ++v) {
    battery[v] = rng.next_uniform(5.0, 100.0);      // percent
    temperature[v] = 20.0 + rng.next_normal() * 4;  // deg C
  }
  temperature[rng.next_below(n)] = 71.5;  // a hot spot worth finding

  const sim::FaultSchedule faults{loss, 0.0};
  RngFactory rngs{seed};

  // Phase I: Local-DRR partitions the field into shallow trees.
  const LocalDrrResult drr = run_local_drr(field, rngs, faults);
  std::printf("Local-DRR: %u trees, max size %u, max height %u, %llu msgs, %u rounds\n",
              drr.forest.num_trees(), drr.forest.max_tree_size(),
              drr.forest.max_tree_height(),
              static_cast<unsigned long long>(drr.counters.sent), drr.rounds);

  // Phase II: per-tree aggregation at the cluster heads (roots).
  const auto min_batt = run_convergecast(drr.forest, battery, ConvergecastOp::kMin, rngs, faults);
  const auto sum_batt = run_convergecast(drr.forest, battery, ConvergecastOp::kSum, rngs, faults,
                                         ConvergecastConfig{.max_rounds = 0, .stream_tag = 1});
  const auto max_temp = run_convergecast(drr.forest, temperature, ConvergecastOp::kMax, rngs,
                                         faults, ConvergecastConfig{.max_rounds = 0, .stream_tag = 2});

  // Cluster heads now hold the per-cluster statistics; in a deployment
  // they would uplink them or run the root-gossip phase.  Report the
  // overall figures a base station would compute from the heads:
  double fleet_min = 1e300, fleet_sum = 0.0, fleet_cnt = 0.0, fleet_hot = -1e300;
  for (NodeId r : drr.forest.roots()) {
    fleet_min = std::min(fleet_min, min_batt.aggregate[r]);
    fleet_sum += sum_batt.aggregate[r];
    fleet_cnt += sum_batt.weight[r];
    fleet_hot = std::max(fleet_hot, max_temp.aggregate[r]);
  }

  const double true_min = *std::min_element(battery.begin(), battery.end());
  double true_sum = 0.0;
  for (double b : battery) true_sum += b;
  const double true_hot = *std::max_element(temperature.begin(), temperature.end());

  Table t{{"statistic", "computed", "ground truth"}};
  t.row().add("min battery [%]").add_real(fleet_min, 3).add_real(true_min, 3);
  t.row().add("avg battery [%]").add_real(fleet_sum / fleet_cnt, 3).add_real(true_sum / n, 3);
  t.row().add("max temperature [C]").add_real(fleet_hot, 3).add_real(true_hot, 3);
  std::printf("\n%s", t.to_string().c_str());

  const auto total_msgs = drr.counters.sent + min_batt.counters.sent +
                          sum_batt.counters.sent + max_temp.counters.sent;
  std::printf("\ntotal radio messages: %llu (%.2f per sensor)\n",
              static_cast<unsigned long long>(total_msgs),
              static_cast<double>(total_msgs) / n);

  // Tell every sensor the fleet minimum so nodes can adapt duty cycles.
  std::vector<double> payload(n, 0.0);
  for (NodeId r : drr.forest.roots()) payload[r] = fleet_min;
  BroadcastConfig bc;
  bc.simultaneous_children = true;
  const auto down = run_broadcast(drr.forest, payload, rngs, faults, bc);
  std::printf("fleet-min dissemination: %s in %u rounds, %llu msgs\n",
              down.complete ? "complete" : "incomplete", down.rounds,
              static_cast<unsigned long long>(down.counters.sent));
  return 0;
}
