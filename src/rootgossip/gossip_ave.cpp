#include "rootgossip/gossip_ave.hpp"

#include <span>
#include <stdexcept>
#include <type_traits>

#include "rootgossip/flat_executor.hpp"
#include "sim/engine.hpp"
#include "support/mathutil.hpp"

namespace drrg {

namespace {

// The protocol is compiled twice: the measurement variant (kTrack) carries
// the Lemma 8 contribution half-rows in every message, the production
// variant carries a 24-byte POD -- no vector member, no heap traffic on
// the engine's hottest queue.  Both draw identical randomness (streams are
// a function of seed/purpose only), so the split is observationally free.
struct NoPayload {};

template <bool kTrack>
struct PsMsg {
  // kRelayMass: first hop of the member relay on explicit topologies (the
  // root hands its half to a uniform random member of its own tree, which
  // samples *its* substrate neighbor) -- see GmMsg for the rationale.
  enum class Kind : std::uint8_t { kMass, kAck, kRelayMass };
  // Field order keeps the production variant at 24 bytes (32-byte queue
  // envelopes): the queues are the engine's hottest memory traffic.
  double num = 0.0;
  double den = 0.0;
  // Sender-local sequence number of the initiating half, echoed by the
  // first-hop ack: under event-time latency several halves from one root
  // are outstanding at once, and the ack must resolve the right one.
  std::uint32_t seq = 0;
  // True on the initiating hop from the sending root; the first receiver
  // acknowledges it so the sender can detect a lost call.
  bool first_hop = false;
  Kind kind = Kind::kMass;
  // Contribution half-row (kTrack only).  The vector is bookkeeping for
  // the Lemma 8 measurement, not protocol payload -- bit accounting
  // charges only the (num, den) pair.
  [[no_unique_address]] std::conditional_t<kTrack, std::vector<double>, NoPayload> y{};
};

template <bool kTrack>
struct PushSumProtocol {
  using Msg = PsMsg<kTrack>;

  PushSumProtocol(const Forest& f, std::span<const double> num0,
                  std::span<const double> den0, const PushSumConfig& cfg,
                  std::uint32_t n, bool relay_members, std::uint32_t latency_bound)
      : forest(f),
        forward(cfg.forward_via_trees),
        relay(relay_members && cfg.forward_via_trees),
        ack_deadline(latency_bound),
        num(n, 0.0),
        den(n, 0.0),
        pending(n),
        next_seq(n, 0),
        root_index(n, 0),
        push_rounds(static_cast<std::uint32_t>(cfg.rounds_multiplier *
                                               static_cast<double>(ceil_log2(n)) *
                                               cfg.round_budget_scale) +
                    cfg.extra_rounds),
        pair_bits(2 * 64 + address_bits(n)) {
    const auto& roots = f.roots();
    for (std::uint32_t i = 0; i < roots.size(); ++i) root_index[roots[i]] = i;
    for (NodeId r : roots) {
      num[r] = num0[r];
      den[r] = den0[r];
    }
    if constexpr (kTrack) {
      // y_{0,i} = e_i over the m roots.
      Y.assign(roots.size(), std::vector<double>(roots.size(), 0.0));
      for (std::uint32_t i = 0; i < roots.size(); ++i) Y[i][i] = 1.0;
    }
  }

  /// A sent half held until the first receiver's ack.  The re-absorption
  /// deadline is latency-aware: a half sent at round S arrives at the
  /// latest in round S + bound (the model's maximum delay) and its ack
  /// rides the reliable reply path of that same round, so no ack by the
  /// end of round S + bound means the call was lost (crashed target, loss
  /// coin, partition cut) and the mass is re-absorbed -- restoring the
  /// conservation law sum(num), sum(den) that the push-sum limit relies
  /// on, without double-counting halves that were merely delayed.
  struct Outstanding {
    std::uint32_t seq = 0;
    std::uint32_t sent_round = 0;
    double num = 0.0;
    double den = 0.0;
    [[no_unique_address]] std::conditional_t<kTrack, std::vector<double>, NoPayload> y{};
  };

  const Forest& forest;
  bool forward;
  bool relay;  // explicit topology: leave the tree via a random member
  std::uint32_t ack_deadline;  // latency bound; 0 = same-round resolution
  std::vector<double> num;
  std::vector<double> den;
  std::vector<std::vector<Outstanding>> pending;  // per-root outstanding halves
  std::vector<std::uint32_t> next_seq;
  std::vector<std::uint32_t> root_index;
  std::vector<std::vector<double>> Y;  // contribution rows, root-index order
  std::uint32_t push_rounds;
  std::uint32_t pair_bits;

  /// Only roots push mass or hold pending halves; the engine thins its
  /// per-round upcall scans to the (ascending) root list.
  [[nodiscard]] std::span<const sim::NodeId> active_nodes() const noexcept {
    return forest.roots();
  }

  void on_round(sim::Network<Msg>& net, sim::NodeId v) {
    if (net.round() >= push_rounds) return;
    // Keep half, send half (computed before any of this round's receipts).
    num[v] *= 0.5;
    den[v] *= 0.5;
    Msg m{num[v], den[v], next_seq[v]++, /*first_hop=*/true, Msg::Kind::kMass, {}};
    if constexpr (kTrack) {
      auto& row = Y[root_index[v]];
      for (double& yj : row) yj *= 0.5;
      m.y = row;
    }
    if constexpr (kTrack) {
      pending[v].push_back(Outstanding{m.seq, net.round(), m.num, m.den, m.y});
    } else {
      pending[v].push_back(Outstanding{m.seq, net.round(), m.num, m.den, {}});
    }
    if (relay) {
      const auto members = forest.tree_members(v);
      const auto carrier = static_cast<sim::NodeId>(
          members[net.node_rng(v).next_below(members.size())]);
      if (carrier != v) {
        m.kind = Msg::Kind::kRelayMass;
        net.send(v, carrier, std::move(m), pair_bits);
        return;
      }
    }
    sim::NodeId target = net.sample_peer(v);
    if (!forward && forest.is_member(target)) {
      // Analysis mode: the G~ edge collapses to one direct hop, with the
      // selection probability still proportional to tree size.
      target = forest.root_of(target);
    }
    net.send(v, target, std::move(m), pair_bits);
  }

  void on_message(sim::Network<Msg>& net, sim::NodeId src, sim::NodeId dst, const Msg& m) {
    if (m.kind == Msg::Kind::kAck) return;  // acks ride the reply path
    if (!forest.is_member(dst)) {
      // A mid-run joiner outside the forest overlay cannot forward the
      // share (it has no root).  Crucially it must not ack either: the
      // sender's recovery deadline then re-absorbs the half, so no mass
      // leaks into bystanders.
      return;
    }
    if (m.first_hop) {
      // Acknowledge on the established call: the sender now knows its
      // half arrived (replies are reliable in the §2 model).
      net.reply(dst, src, Msg{0.0, 0.0, m.seq, false, Msg::Kind::kAck, {}}, 1);
    }
    if (m.kind == Msg::Kind::kRelayMass) {
      // Relay hop: this member samples *its* substrate neighbor.
      Msg fwd = m;
      fwd.first_hop = false;
      fwd.kind = Msg::Kind::kMass;
      const sim::NodeId target = net.sample_peer(dst);
      net.send(dst, target, std::move(fwd), pair_bits);
      return;
    }
    // root_of(v) == v iff v is a member root: one load on the hot path.
    const sim::NodeId root = forest.root_of(dst);
    if (root != dst) {
      Msg fwd = m;
      fwd.first_hop = false;
      net.send(dst, root, std::move(fwd), pair_bits);
      return;
    }
    num[dst] += m.num;
    den[dst] += m.den;
    if constexpr (kTrack) {
      if (!m.y.empty()) {
        auto& row = Y[root_index[dst]];
        for (std::size_t j = 0; j < row.size(); ++j) row[j] += m.y[j];
      }
    }
  }

  void on_reply(sim::Network<Msg>&, sim::NodeId, sim::NodeId dst, const Msg& m) {
    if (m.kind != Msg::Kind::kAck) return;
    auto& q = pending[dst];
    for (std::size_t i = 0; i < q.size(); ++i) {
      if (q[i].seq == m.seq) {
        q.erase(q.begin() + static_cast<std::ptrdiff_t>(i));  // stable: FP order
        break;
      }
    }
  }

  void on_round_end(sim::Network<Msg>& net, sim::NodeId v) {
    if (pending[v].empty()) return;
    // Every half whose latest possible ack round has passed was lost:
    // re-absorb it so no (num, den) mass leaves the system.  Halves still
    // inside the latency window stay parked.
    auto& q = pending[v];
    std::size_t keep = 0;
    for (std::size_t i = 0; i < q.size(); ++i) {
      if (q[i].sent_round + ack_deadline <= net.round()) {
        num[v] += q[i].num;
        den[v] += q[i].den;
        if constexpr (kTrack) {
          if (!q[i].y.empty()) {
            auto& row = Y[root_index[v]];
            for (std::size_t j = 0; j < row.size(); ++j) row[j] += q[i].y[j];
          }
        }
      } else {
        if (keep != i) q[keep] = std::move(q[i]);
        ++keep;
      }
    }
    q.resize(keep);
  }

  /// Phi_t of Lemma 8 over the current contribution rows.
  [[nodiscard]] double potential() const {
    const auto m = static_cast<double>(Y.size());
    double phi = 0.0;
    for (const auto& row : Y) {
      double w = 0.0;
      for (double yj : row) w += yj;
      const double target = w / m;
      for (double yj : row) {
        const double d = yj - target;
        phi += d * d;
      }
    }
    return phi;
  }
};

/// Flat-executor policy (rootgossip/flat_executor.hpp), production mode
/// (forwarding on, no potential tracking): a root halves its (num, den)
/// pair and sends one half; at a root an arriving half is added, so every
/// IEEE-754 accumulation happens in exact delivery order.  The first
/// receiver of each call acks it with 1 bit; a half whose call went
/// unacked returns to its root after the round's deliveries, exactly where
/// the engine path's on_round_end re-absorbs it.
struct PushSumFlat {
  struct Payload {
    double num;
    double den;
  };
  static constexpr bool kAckedCalls = true;

  bool relay;
  std::uint64_t purpose;
  std::uint32_t push_rounds;
  std::uint32_t drain;
  std::uint32_t pair_bits;
  double* num;
  double* den;

  [[nodiscard]] std::uint32_t total_rounds() const { return push_rounds + drain; }
  [[nodiscard]] bool calls_in(std::uint32_t r) const { return r < push_rounds; }
  [[nodiscard]] Payload call(NodeId v, std::uint32_t) const {
    num[v] *= 0.5;
    den[v] *= 0.5;
    return {num[v], den[v]};
  }
  template <class Send>
  void arrive(NodeId root, const Payload& m, Send&&) const {
    num[root] += m.num;
    den[root] += m.den;
  }
  void unacked(NodeId root, const Payload& half) const {
    num[root] += half.num;
    den[root] += half.den;
  }
  void end_round(std::uint32_t) const {}
  [[nodiscard]] sim::Counters counters(std::uint64_t msgs, std::uint64_t delivered,
                                       std::uint64_t acks) const {
    return {.sent = msgs + acks, .delivered = delivered + acks, .bits = msgs * pair_bits + acks};
  }
};

template <bool kTrack>
PushSumResult run_push_sum_impl(const Forest& forest, std::span<const double> num0,
                                std::span<const double> den0, const RngFactory& rngs,
                                const sim::Scenario& scenario,
                                const PushSumConfig& config) {
  const std::uint32_t n = forest.size();
  sim::Network<PsMsg<kTrack>> net{n, rngs, scenario, derive_seed(0xa4e, config.stream_tag)};
  PushSumProtocol<kTrack> proto{forest, num0, den0, config, n,
                                config.member_relay && !scenario.topology.is_complete(),
                                scenario.faults.latency.bound()};

  PushSumResult result;
  const NodeId z = forest.largest_tree_root();
  // The forwarding drain flushes the G~ relay chain (up to three hops);
  // under event-time latency every hop can additionally sit in flight for
  // the model's bound, so the drain stretches accordingly (exactly 3 for
  // the zero model -- the historical schedule).
  const std::uint32_t drain =
      config.forward_via_trees ? 3 * (1 + scenario.faults.latency.bound()) : 0;
  for (std::uint32_t r = 0; r < proto.push_rounds + drain; ++r) {
    net.step(proto);
    if constexpr (kTrack) {
      result.potential_per_round.push_back(proto.potential());
      result.z_estimate_per_round.push_back(
          proto.den[z] > 0.0 ? proto.num[z] / proto.den[z] : 0.0);
    }
  }

  result.num = std::move(proto.num);
  result.den = std::move(proto.den);
  result.estimate.assign(n, 0.0);
  for (NodeId r : forest.roots())
    if (result.den[r] > 0.0) result.estimate[r] = result.num[r] / result.den[r];
  result.counters = net.counters();
  result.rounds = proto.push_rounds + drain;
  return result;
}

/// Production mode (forwarding on, no potential tracking) under §2's
/// fault model.  A function of its own: inlined into run_push_sum_impl,
/// the executor's loops measured ~5% slower on dense-ave-clean.
PushSumResult run_push_sum_flat(const Forest& forest, std::span<const double> num0,
                                std::span<const double> den0, const RngFactory& rngs,
                                const sim::Scenario& scenario,
                                const PushSumConfig& config) {
  const std::uint32_t n = forest.size();
  const bool relay = config.member_relay && !scenario.topology.is_complete();
  PushSumProtocol<false> proto{forest, num0, den0, config, n, relay, /*latency_bound=*/0};
  const PushSumFlat flat{relay, derive_seed(0xa4e, config.stream_tag), proto.push_rounds,
                         /*drain=*/3, proto.pair_bits, proto.num.data(), proto.den.data()};
  sim::CallFaults faults{n, rngs, scenario, flat.purpose};
  PushSumResult result;
  result.counters =
      faults.active()
          ? rootgossip::run_flat_root_gossip<true>(flat, forest, rngs, scenario.topology, faults)
          : rootgossip::run_flat_root_gossip<false>(flat, forest, rngs, scenario.topology,
                                                    faults);
  result.num = std::move(proto.num);
  result.den = std::move(proto.den);
  result.estimate.assign(n, 0.0);
  for (NodeId r : forest.roots())
    if (result.den[r] > 0.0) result.estimate[r] = result.num[r] / result.den[r];
  result.rounds = flat.total_rounds();
  return result;
}

}  // namespace

PushSumResult run_root_push_sum(const Forest& forest, std::span<const double> num0,
                                std::span<const double> den0, const RngFactory& rngs,
                                const sim::Scenario& scenario, PushSumConfig config) {
  const std::uint32_t n = forest.size();
  if (num0.size() < n || den0.size() < n)
    throw std::invalid_argument("run_root_push_sum: inputs too short");
  if (config.track_potential && config.forward_via_trees)
    throw std::invalid_argument(
        "run_root_push_sum: potential tracking requires analysis mode "
        "(forward_via_trees = false)");
  if (!config.track_potential && config.forward_via_trees && scenario.faults.paper_model())
    return run_push_sum_flat(forest, num0, den0, rngs, scenario, config);
  return config.track_potential
             ? run_push_sum_impl<true>(forest, num0, den0, rngs, scenario, config)
             : run_push_sum_impl<false>(forest, num0, den0, rngs, scenario, config);
}

}  // namespace drrg
