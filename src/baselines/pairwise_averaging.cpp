#include "baselines/pairwise_averaging.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "sim/engine.hpp"
#include "support/mathutil.hpp"

namespace drrg {

namespace {

struct PaMsg {
  enum class Kind : std::uint8_t { kOffer, kMean, kBusy };
  Kind kind;
  double value = 0.0;
};

/// One round: a random half of the nodes are *active* and offer their
/// value to a partner; the rest are *passive* and accept at most one
/// offer, replacing both values by the pair mean (the reply rides the
/// established call, so the exchange is atomic).  Busy/active targets
/// decline, which keeps all exchanges of a round on disjoint pairs --
/// otherwise a node could be averaged twice concurrently and the sum
/// invariant would break.  A lost offer simply averages nothing.
///
/// Under event-time latency the offer (and with it the reply) can land
/// several rounds after the send, so the offerer stays *locked* until the
/// exchange resolves: it initiates nothing, declines incoming offers, and
/// keeps its value untouched -- the delayed kMean replaces a value that is
/// provably still the one the partner averaged, preserving the sum
/// invariant.  An offer unresolved past the model's delay bound was lost
/// (the reply rides the reliable same-round path of the delivery round),
/// so the lock times out.  With the zero model every exchange resolves in
/// its own round and the lock is invisible.
struct PairwiseProtocol {
  explicit PairwiseProtocol(std::vector<double> v, std::uint32_t bits,
                            std::uint32_t latency_bound)
      : value(std::move(v)), active(value.size(), false),
        paired(value.size(), false), locked(value.size(), 0),
        offer_round(value.size(), 0), value_bits(bits),
        ack_deadline(latency_bound) {}

  std::vector<double> value;
  std::vector<bool> active;  // this round's role
  std::vector<bool> paired;  // passive node already matched this round
  std::vector<std::uint8_t> locked;  // offer in flight: mid-exchange
  std::vector<std::uint32_t> offer_round;
  std::uint32_t value_bits;
  std::uint32_t ack_deadline;  // latency bound; 0 = same-round resolution

  void on_round(sim::Network<PaMsg>& net, sim::NodeId v) {
    paired[v] = false;
    if (locked[v]) {
      // Outstanding offer: hold the value (and the decline stance) until
      // the exchange resolves or times out.
      active[v] = true;
      return;
    }
    active[v] = net.node_rng(v).next_bernoulli(0.5);
    if (!active[v]) return;
    sim::NodeId partner = net.sample_peer(v);
    if (partner == v) {
      // An isolated node of an explicit graph has no one to call; a
      // self-draw on the complete graph moves on to the next id.
      if (!net.scenario().topology.is_complete()) return;
      partner = (partner + 1) % net.size();
    }
    locked[v] = 1;
    offer_round[v] = net.round();
    net.send(v, partner, PaMsg{PaMsg::Kind::kOffer, value[v]}, value_bits);
  }

  void on_message(sim::Network<PaMsg>& net, sim::NodeId src, sim::NodeId dst,
                  const PaMsg& m) {
    if (m.kind != PaMsg::Kind::kOffer) return;
    if (active[dst] || paired[dst] || locked[dst]) {
      net.reply(dst, src, PaMsg{PaMsg::Kind::kBusy, 0.0}, 1);
      return;
    }
    paired[dst] = true;
    const double mean = 0.5 * (value[dst] + m.value);
    value[dst] = mean;
    net.reply(dst, src, PaMsg{PaMsg::Kind::kMean, mean}, value_bits);
  }

  void on_reply(sim::Network<PaMsg>&, sim::NodeId, sim::NodeId dst, const PaMsg& m) {
    locked[dst] = 0;
    if (m.kind == PaMsg::Kind::kMean) value[dst] = m.value;
  }

  void on_round_end(sim::Network<PaMsg>& net, sim::NodeId v) {
    // Past the delay bound the reply would already have arrived: the
    // offer was lost (crashed partner, loss coin), nothing was averaged.
    if (locked[v] && offer_round[v] + ack_deadline <= net.round()) locked[v] = 0;
  }
};

}  // namespace

PairwiseResult pairwise_average(std::uint32_t n, std::span<const double> values,
                                std::uint64_t seed, const sim::Scenario& scenario,
                                PairwiseConfig config) {
  if (values.size() < n) throw std::invalid_argument("pairwise_average: values too short");
  RngFactory rngs{seed};
  sim::Network<PaMsg> net{n, rngs, scenario, /*purpose=*/0x9a19};

  PairwiseProtocol proto{std::vector<double>(values.begin(), values.begin() + n),
                         64 + address_bits(n), scenario.faults.latency.bound()};
  double sum = 0.0;
  for (sim::NodeId v : net.alive_nodes()) sum += proto.value[v];
  const double ave = sum / static_cast<double>(net.alive_nodes().size());
  const double scale = std::max(std::fabs(ave), 1e-300);

  // Each exchange holds its offerer locked for the call's flight time, so
  // a node attempts an exchange only every ~(1 + E[delay]) rounds; on top
  // of that an offer in flight lands on a partner whose lock state is
  // sampled at the *delivery* round, and partners spend an E[delay]/(1 +
  // E[delay]) fraction of their time locked, cutting the per-attempt
  // acceptance rate by the same factor.  Both penalties compound, so the
  // budget stretches quadratically (exactly 1 under the zero model).
  const double per = 1.0 + scenario.faults.latency.mean();
  const double lat = per * per;
  const auto rounds = static_cast<std::uint32_t>(config.round_multiplier *
                                                 static_cast<double>(ceil_log2(n)) * lat) +
                      config.extra_rounds;
  PairwiseResult result;
  for (std::uint32_t r = 0; r < rounds; ++r) {
    net.step(proto);
    double err = 0.0;
    for (sim::NodeId v : net.alive_nodes())
      err = std::max(err, std::fabs(proto.value[v] - ave) / scale);
    result.error_per_round.push_back(err);
    if (result.rounds_to_epsilon == 0 && err < config.epsilon) {
      result.rounds_to_epsilon = r + 1;
      result.messages_to_epsilon = net.counters().sent;
    }
  }
  result.value = std::move(proto.value);
  result.max_relative_error =
      result.error_per_round.empty() ? 0.0 : result.error_per_round.back();
  result.counters = net.counters();
  return result;
}

}  // namespace drrg
