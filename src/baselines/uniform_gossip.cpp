#include "baselines/uniform_gossip.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "sim/engine.hpp"
#include "support/mathutil.hpp"

namespace drrg {

// ---------------------------------------------------------------------------
// uniform_push_max

namespace {

struct MaxMsg {
  double value;
  bool pull_request = false;  // a joiner asking for the callee's maximum
};

struct PushMaxProtocol {
  std::vector<double> value;
  std::uint32_t value_bits;
  bool pull = false;  // push-pull: the callee replies with its own maximum

  void on_round(sim::Network<MaxMsg>& net, sim::NodeId v) {
    net.send(v, net.sample_peer(v), MaxMsg{value[v]}, value_bits);
  }
  /// Mid-run joiner: it holds no founding value (the aggregate is over the
  /// start-time cohort), so it bootstraps by pulling the current maximum
  /// from a uniform live peer -- the reply lands within its birth round.
  void on_join(sim::Network<MaxMsg>& net, sim::NodeId v) {
    value[v] = -std::numeric_limits<double>::infinity();
    net.send(v, net.sample_peer(v), MaxMsg{value[v], /*pull_request=*/true}, 1);
  }
  void on_message(sim::Network<MaxMsg>& net, sim::NodeId src, sim::NodeId dst,
                  const MaxMsg& m) {
    if (m.pull_request) {
      net.reply(dst, src, MaxMsg{value[dst]}, value_bits);
      return;
    }
    if (pull) net.reply(dst, src, MaxMsg{value[dst]}, value_bits);
    value[dst] = std::max(value[dst], m.value);
  }
  void on_reply(sim::Network<MaxMsg>&, sim::NodeId, sim::NodeId dst, const MaxMsg& m) {
    value[dst] = std::max(value[dst], m.value);
  }
};

UniformPushMaxResult run_uniform_max(std::uint32_t n, std::span<const double> values,
                                     std::uint64_t seed, const sim::Scenario& scenario,
                                     const UniformPushMaxConfig& config, bool pull) {
  if (values.size() < n) throw std::invalid_argument("uniform_push_max: values too short");
  RngFactory rngs{seed};
  sim::Network<MaxMsg> net{n, rngs, scenario,
                           /*purpose=*/pull ? std::uint64_t{0x0b5f} : std::uint64_t{0x0b5e}};

  PushMaxProtocol proto{std::vector<double>(values.begin(), values.begin() + n),
                        64 + address_bits(n), pull};
  double true_max = -std::numeric_limits<double>::infinity();
  for (sim::NodeId v : net.alive_nodes()) true_max = std::max(true_max, proto.value[v]);

  const auto cap = static_cast<std::uint32_t>(config.round_multiplier *
                                              static_cast<double>(ceil_log2(n))) +
                   4;
  UniformPushMaxResult result;
  for (std::uint32_t r = 0; r < cap; ++r) {
    net.step(proto);
    const bool all = std::all_of(net.alive_nodes().begin(), net.alive_nodes().end(),
                                 [&](sim::NodeId v) { return proto.value[v] == true_max; });
    if (all && !result.consensus) {
      result.consensus = true;
      result.rounds_to_consensus = r + 1;
      result.messages_to_consensus = net.counters().sent;
      if (config.stop_on_consensus) break;
    }
  }
  result.value = std::move(proto.value);
  result.counters = net.counters();
  return result;
}

}  // namespace

UniformPushMaxResult uniform_push_max(std::uint32_t n, std::span<const double> values,
                                      std::uint64_t seed, const sim::Scenario& scenario,
                                      UniformPushMaxConfig config) {
  return run_uniform_max(n, values, seed, scenario, config, /*pull=*/false);
}

UniformPushMaxResult uniform_push_pull_max(std::uint32_t n, std::span<const double> values,
                                           std::uint64_t seed, const sim::Scenario& scenario,
                                           UniformPushMaxConfig config) {
  return run_uniform_max(n, values, seed, scenario, config, /*pull=*/true);
}

// ---------------------------------------------------------------------------
// uniform_push_sum

namespace {

struct SumMsg {
  double s;
  double w;
};

struct PushSumAllProtocol {
  std::vector<double> s;
  std::vector<double> w;
  std::uint32_t pair_bits;

  void on_round(sim::Network<SumMsg>& net, sim::NodeId v) {
    s[v] *= 0.5;
    w[v] *= 0.5;
    net.send(v, net.sample_peer(v), SumMsg{s[v], w[v]}, pair_bits);
  }
  /// Mid-run joiner: the canonical push-sum join is (0, 0) -- it carries
  /// traffic and accumulates mass from incoming shares, but contributes
  /// nothing, so sum(s)/sum(w) (and thus the founders' average) is
  /// conserved.  Without this hook a joiner would pop in with its stale
  /// start-time pair and inject mass the protocol never mixed.
  void on_join(sim::Network<SumMsg>&, sim::NodeId v) {
    s[v] = 0.0;
    w[v] = 0.0;
  }
  void on_message(sim::Network<SumMsg>&, sim::NodeId, sim::NodeId dst, const SumMsg& m) {
    s[dst] += m.s;
    w[dst] += m.w;
  }
};

}  // namespace

UniformPushSumResult uniform_push_sum(std::uint32_t n, std::span<const double> values,
                                      std::uint64_t seed, const sim::Scenario& scenario,
                                      UniformPushSumConfig config) {
  if (values.size() < n) throw std::invalid_argument("uniform_push_sum: values too short");
  RngFactory rngs{seed};
  sim::Network<SumMsg> net{n, rngs, scenario, /*purpose=*/0x0b50};

  PushSumAllProtocol proto{std::vector<double>(values.begin(), values.begin() + n),
                           std::vector<double>(n, 1.0), 2 * 64};
  // True average over alive nodes.
  double sum = 0.0;
  for (sim::NodeId v : net.alive_nodes()) sum += proto.s[v];
  const double ave = sum / static_cast<double>(net.alive_nodes().size());
  const double scale = std::max(std::fabs(ave), 1e-300);

  const auto rounds = static_cast<std::uint32_t>(config.round_multiplier *
                                                 static_cast<double>(ceil_log2(n))) +
                      config.extra_rounds;
  UniformPushSumResult result;
  for (std::uint32_t r = 0; r < rounds; ++r) {
    net.step(proto);
    double err = 0.0;
    for (sim::NodeId v : net.alive_nodes()) {
      const double est = proto.w[v] > 0.0 ? proto.s[v] / proto.w[v] : 0.0;
      err = std::max(err, std::fabs(est - ave) / scale);
    }
    result.error_per_round.push_back(err);
    if (result.rounds_to_epsilon == 0 && err < config.epsilon) {
      result.rounds_to_epsilon = r + 1;
      result.messages_to_epsilon = net.counters().sent;
    }
  }
  result.estimate.assign(n, 0.0);
  for (sim::NodeId v : net.alive_nodes())
    result.estimate[v] = proto.w[v] > 0.0 ? proto.s[v] / proto.w[v] : 0.0;
  result.max_relative_error =
      result.error_per_round.empty() ? 0.0 : result.error_per_round.back();
  result.counters = net.counters();
  return result;
}

// ---------------------------------------------------------------------------
// karp_push_pull

namespace {

struct RumorMsg {
  enum class Kind : std::uint8_t { kPush, kPullRequest, kPullReply };
  Kind kind;
  std::uint32_t age = 0;  // rounds since the rumor's birth, as known to sender
};

struct KarpProtocol {
  KarpProtocol(std::uint32_t n, std::uint32_t cutoff_rounds, sim::NodeId source)
      : informed(n, false), age(n, 0), cutoff(cutoff_rounds) {
    informed[source] = true;
  }

  std::vector<bool> informed;
  std::vector<std::uint32_t> age;  // sender-local age estimate
  std::uint32_t cutoff;
  std::uint64_t transmissions = 0;
  std::uint32_t informed_count = 1;
  std::uint32_t rumor_bits = 64;

  /// Mid-run joiner: uninformed by construction; ask a uniform live peer
  /// for the rumor right away (the pull it would otherwise issue next
  /// round, moved into the birth round).
  void on_join(sim::Network<RumorMsg>& net, sim::NodeId v) {
    net.send(v, net.sample_peer(v), RumorMsg{RumorMsg::Kind::kPullRequest, 0}, 1);
  }

  void on_round(sim::Network<RumorMsg>& net, sim::NodeId v) {
    // Every node calls one random partner each round (the model's free
    // connection); the rumor itself is transmitted only while young.
    const sim::NodeId u = net.sample_peer(v);
    if (informed[v] && age[v] <= cutoff) {
      ++transmissions;
      net.send(v, u, RumorMsg{RumorMsg::Kind::kPush, age[v]}, rumor_bits);
    } else {
      // Uninformed (or quiescent) caller: pull.
      net.send(v, u, RumorMsg{RumorMsg::Kind::kPullRequest, 0}, 1);
    }
  }

  void learn(sim::NodeId v, std::uint32_t rumor_age) {
    if (!informed[v]) {
      informed[v] = true;
      ++informed_count;
      age[v] = rumor_age;
    } else {
      age[v] = std::max(age[v], rumor_age);
    }
  }

  void on_message(sim::Network<RumorMsg>& net, sim::NodeId src, sim::NodeId dst,
                  const RumorMsg& m) {
    switch (m.kind) {
      case RumorMsg::Kind::kPush:
        learn(dst, m.age);
        break;
      case RumorMsg::Kind::kPullRequest:
        if (informed[dst] && age[dst] <= cutoff) {
          ++transmissions;
          net.reply(dst, src, RumorMsg{RumorMsg::Kind::kPullReply, age[dst]}, rumor_bits);
        }
        break;
      case RumorMsg::Kind::kPullReply:
        break;  // handled in on_reply
    }
  }

  void on_reply(sim::Network<RumorMsg>&, sim::NodeId, sim::NodeId dst, const RumorMsg& m) {
    if (m.kind == RumorMsg::Kind::kPullReply) learn(dst, m.age);
  }

  void on_round_end(sim::Network<RumorMsg>&, sim::NodeId v) {
    if (informed[v]) ++age[v];
  }
};

}  // namespace

KarpPushPullResult karp_push_pull(std::uint32_t n, std::uint64_t seed,
                                  const sim::Scenario& scenario, KarpPushPullConfig config) {
  if (n < 2) throw std::invalid_argument("karp_push_pull: need n >= 2");
  RngFactory rngs{seed};
  sim::Network<RumorMsg> net{n, rngs, scenario, /*purpose=*/0x0ca9};

  // Karp et al.: log3 n rounds of exponential growth (push-pull triples the
  // informed set), then O(log log n) rounds in which pull finishes the
  // stragglers; the rumor stops being transmitted after the cutoff.
  const double log3n = std::log2(static_cast<double>(n)) / std::log2(3.0);
  const auto cutoff = static_cast<std::uint32_t>(
      std::ceil(log3n) +
      config.extra_loglog * static_cast<double>(ceil_log2(std::max<std::uint32_t>(
                                2, ceil_log2(n)))));
  KarpProtocol proto{n, cutoff, net.alive_nodes().front()};

  const std::uint32_t total_rounds = cutoff + config.pull_tail;
  for (std::uint32_t r = 0; r < total_rounds; ++r) net.step(proto);

  KarpPushPullResult result;
  result.informed = proto.informed_count;
  result.rounds = total_rounds;
  result.transmissions = proto.transmissions;
  result.all_informed = proto.informed_count == net.alive_nodes().size();
  result.counters = net.counters();
  return result;
}

}  // namespace drrg
