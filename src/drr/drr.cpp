#include "drr/drr.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>

#include "sim/engine.hpp"
#include "support/mathutil.hpp"

namespace drrg {

namespace {

struct DrrMsg {
  enum class Kind : std::uint8_t { kProbe, kProbeReply, kConnect, kConnectAck };
  Kind kind;
  double rank = 0.0;  // kProbeReply: responder's rank
};

/// Per-node payload sizes in bits: probes carry only the sender address
/// (implicit in the call); replies carry a rank (an O(log n)-bit
/// discretised value suffices -- see Algorithm 1's remark that ranks from
/// [1, n^3] give the same bounds, i.e. 3 log n bits).
struct DrrProtocol {
  explicit DrrProtocol(std::uint32_t n, const DrrConfig& cfg)
      : budget(cfg.probe_budget != 0 ? cfg.probe_budget : drr_probe_budget(n)),
        connect_cap(cfg.connect_attempt_cap),
        rank_bits(3 * address_bits(n)),
        addr_bits(address_bits(n)),
        rank(n, 0.0),
        state(n) {}

  struct NodeState {
    std::uint32_t attempts = 0;         // probes consumed
    bool probe_outstanding = false;     // sent this round, awaiting reply
    std::uint32_t connect_attempts = 0;
    sim::NodeId pending_parent = sim::kNoNode;  // found, not yet acked
    sim::NodeId parent = sim::kNoNode;          // acknowledged parent
    bool settled = false;
  };

  std::uint32_t budget;
  std::uint32_t connect_cap;
  std::uint32_t rank_bits;
  std::uint32_t addr_bits;
  /// Ranks live in their own dense array: the probe-reply handler touches
  /// nothing else, and probes hit random nodes -- a 32 KB rank table stays
  /// cache-resident where the full state records would not.
  std::vector<double> rank;
  std::vector<NodeState> state;
  std::vector<sim::NodeId> active;  // unsettled nodes, ascending
  std::uint64_t total_probes = 0;
  std::uint32_t unsettled = 0;  // maintained by the runner

  void init_ranks(sim::Network<DrrMsg>& net) {
    for (sim::NodeId v : net.alive_nodes()) rank[v] = net.node_rng(v).next_unit();
    unsettled = static_cast<std::uint32_t>(net.alive_nodes().size());
    active = net.alive_nodes();
  }

  /// Settled nodes are pure no-ops in on_round/on_round_end; handing the
  /// engine the shrinking unsettled list keeps the late rounds (few
  /// stragglers retrying connects) from scanning all n nodes.  Pruned in
  /// done(), which runs between rounds -- never while the engine iterates.
  [[nodiscard]] std::span<const sim::NodeId> active_nodes() const noexcept {
    return active;
  }

  void settle(NodeState& s) {
    if (!s.settled) {
      s.settled = true;
      --unsettled;
    }
  }

  void on_round(sim::Network<DrrMsg>& net, sim::NodeId v) {
    NodeState& s = state[v];
    if (s.settled) return;
    if (s.pending_parent != sim::kNoNode) {
      // Connection phase: call the chosen parent until acknowledged.
      ++s.connect_attempts;
      net.send(v, s.pending_parent, DrrMsg{DrrMsg::Kind::kConnect, 0.0}, addr_bits);
      return;
    }
    if (s.attempts < budget) {
      // Probe a random peer of the scenario topology.
      sim::NodeId u = net.sample_peer(v);
      // Self-samples tell us nothing; on the complete graph skip them
      // cheaply (the analysis assumes distinct samples whp).  On an
      // explicit topology only an isolated node self-samples: its probe
      // is a spent attempt and it becomes a root by exhaustion.
      if (u == v && net.topology().is_complete()) u = (u + 1) % net.size();
      s.probe_outstanding = true;
      ++total_probes;
      net.send(v, u, DrrMsg{DrrMsg::Kind::kProbe, 0.0}, addr_bits);
    }
  }

  void on_message(sim::Network<DrrMsg>& net, sim::NodeId src, sim::NodeId dst,
                  const DrrMsg& m) {
    switch (m.kind) {
      case DrrMsg::Kind::kProbe:
        net.reply(dst, src, DrrMsg{DrrMsg::Kind::kProbeReply, rank[dst]}, rank_bits);
        break;
      case DrrMsg::Kind::kConnect:
        // Record the child; duplicates from retries are idempotent because
        // children are reconstructed from child->parent pointers later.
        net.reply(dst, src, DrrMsg{DrrMsg::Kind::kConnectAck, 0.0}, addr_bits);
        break;
      default:
        break;  // replies handled in on_reply
    }
  }

  void on_reply(sim::Network<DrrMsg>&, sim::NodeId src, sim::NodeId dst, const DrrMsg& m) {
    NodeState& s = state[dst];
    switch (m.kind) {
      case DrrMsg::Kind::kProbeReply:
        s.probe_outstanding = false;
        ++s.attempts;
        if (m.rank > rank[dst]) s.pending_parent = src;
        break;
      case DrrMsg::Kind::kConnectAck:
        s.parent = src;
        settle(s);
        break;
      default:
        break;
    }
  }

  void on_round_end(sim::Network<DrrMsg>&, sim::NodeId v) {
    NodeState& s = state[v];
    if (s.settled) return;
    if (s.probe_outstanding) {
      // The call was lost: the sampled node told us nothing, the attempt
      // is spent (conservative -- can only create extra roots).
      s.probe_outstanding = false;
      ++s.attempts;
    }
    if (s.pending_parent != sim::kNoNode) {
      if (s.connect_attempts >= connect_cap) settle(s);  // root by exhaustion
      return;
    }
    if (s.attempts >= budget) settle(s);  // no higher-ranked node found: root
  }

  [[nodiscard]] bool done(const sim::Network<DrrMsg>&) {
    active.erase(std::remove_if(active.begin(), active.end(),
                                [this](sim::NodeId v) { return state[v].settled; }),
                 active.end());
    return unsettled == 0;
  }
};

/// Names Phase I's per-node streams and its loss stream.
std::uint64_t drr_purpose(const DrrConfig& config) {
  return config.stream_tag != 0 ? derive_seed(0x11ddULL, config.stream_tag) : 0x11ddULL;
}

/// Flat executor.  Every probe is answered and every connect acked in the
/// round it is made, or not at all, so the whole round resolves inline:
/// probe replies read only the static rank table and connect acks read
/// nothing, so no handler can observe another node's same-round
/// mutations -- inlining the two delivery passes is exactly the engine's
/// schedule.  kFaulty adds §2's faults (sim::CallFaults): crashed nodes
/// draw no rank and make no call, and each call's loss coin is drawn
/// where the engine draws it, in ascending caller order; a lost probe is
/// a spent attempt and a lost connect is retried until the cap, as
/// on_round_end decides.  Counters, RNG draw order (ranks then probes,
/// one stream per node) and the resulting forest are bit-identical to the
/// Network path (pinned by the golden determinism tests).
template <bool kFaulty>
DrrResult run_drr_flat(std::uint32_t n, const RngFactory& rngs, const sim::Topology& topology,
                       const DrrConfig& config, sim::CallFaults& faults) {
  DrrProtocol proto{n, config};
  const std::uint64_t purpose = drr_purpose(config);
  const bool complete = topology.is_complete();

  // One stream per node, first draw the rank -- the engine's init_ranks.
  std::vector<Rng> rng;
  rng.reserve(n);
  for (NodeId v = 0; v < n; ++v) rng.push_back(rngs.node_stream(v, purpose));
  if constexpr (kFaulty) {
    proto.active.reserve(n);
    for (NodeId v = 0; v < n; ++v) {
      if (faults.crashed(v)) continue;
      proto.rank[v] = rng[v].next_unit();
      proto.active.push_back(v);
    }
    proto.unsettled = static_cast<std::uint32_t>(proto.active.size());
  } else {
    for (NodeId v = 0; v < n; ++v) proto.rank[v] = rng[v].next_unit();
    proto.unsettled = n;
    proto.active.resize(n);
    for (NodeId v = 0; v < n; ++v) proto.active[v] = v;
  }

  std::uint64_t probes = 0;    // probes sent
  std::uint64_t connects = 0;  // connects sent
  std::uint64_t answered = 0;  // kFaulty: probes answered with a rank
  std::uint64_t acked = 0;     // kFaulty: connects acknowledged
  const sim::Topology::PeerSampler sample = topology.sampler(n);
  const double* rank_of = proto.rank.data();
  const std::uint32_t max_rounds = proto.budget + config.connect_attempt_cap + 2;
  std::uint32_t rounds = 0;
  for (std::uint32_t r = 0; r < max_rounds; ++r) {
    ++rounds;
    for (NodeId v : proto.active) {
      DrrProtocol::NodeState& s = proto.state[v];
      if (s.pending_parent != sim::kNoNode) {
        ++s.connect_attempts;
        ++connects;
        if constexpr (kFaulty) {
          if (faults.lost(s.pending_parent)) {
            // Retry next round, or become a root by exhaustion.
            if (s.connect_attempts >= proto.connect_cap) proto.settle(s);
            continue;
          }
          ++acked;
        }
        // Connect + ack, both delivered this round: settled.
        s.parent = s.pending_parent;
        proto.settle(s);
        continue;
      }
      if (s.attempts < proto.budget) {
        NodeId u = sample(v, rng[v]);
        if (u == v && complete) u = (u + 1) % n;
        // Probe out, rank reply back, both delivered this round -- or the
        // call was lost and the attempt is spent all the same.
        ++probes;
        ++s.attempts;
        if constexpr (kFaulty) {
          if (!faults.lost(u)) {
            ++answered;
            if (rank_of[u] > rank_of[v]) s.pending_parent = u;
          }
          if (s.pending_parent != sim::kNoNode) {
            if (s.connect_attempts >= proto.connect_cap) proto.settle(s);
            continue;
          }
        } else {
          if (rank_of[u] > rank_of[v]) s.pending_parent = u;
        }
      }
      if (s.pending_parent == sim::kNoNode && s.attempts >= proto.budget)
        proto.settle(s);  // no higher-ranked node found: root
    }
    proto.active.erase(std::remove_if(proto.active.begin(), proto.active.end(),
                                      [&proto](sim::NodeId v) {
                                        return proto.state[v].settled;
                                      }),
                       proto.active.end());
    if (proto.unsettled == 0) break;
  }
  if constexpr (!kFaulty) {
    answered = probes;
    acked = connects;
  }

  proto.total_probes = probes;
  sim::Counters counters;
  counters.sent = probes + answered + connects + acked;
  counters.delivered = 2 * (answered + acked);
  counters.lost = (probes - answered) + (connects - acked);
  counters.bits = probes * proto.addr_bits + answered * proto.rank_bits +
                  (connects + acked) * proto.addr_bits;
  counters.rounds = rounds;
  std::vector<NodeId> parent(n, kNoParent);
  std::vector<bool> member(n, true);
  for (NodeId v = 0; v < n; ++v) {
    parent[v] = proto.state[v].parent;
    if constexpr (kFaulty) member[v] = !faults.crashed(v);
  }
  DrrResult result{Forest::from_parents(std::move(parent), std::move(member)),
                   std::move(proto.rank), counters, proto.total_probes, rounds};
  return result;
}

}  // namespace

DrrResult run_drr(std::uint32_t n, const RngFactory& rngs, const sim::Scenario& scenario,
                  DrrConfig config) {
  if (n < 2) throw std::invalid_argument("run_drr: need n >= 2");
  const std::uint64_t purpose = drr_purpose(config);
  if (scenario.faults.paper_model()) {
    sim::CallFaults faults{n, rngs, scenario, purpose};
    return faults.active() ? run_drr_flat<true>(n, rngs, scenario.topology, config, faults)
                           : run_drr_flat<false>(n, rngs, scenario.topology, config, faults);
  }
  sim::Network<DrrMsg> net{n, rngs, scenario, purpose};
  DrrProtocol proto{n, config};
  proto.init_ranks(net);

  // Probe budget rounds plus connection retries; done() usually fires
  // earlier.  The +2 covers the final connect/ack exchange.
  const std::uint32_t max_rounds = proto.budget + config.connect_attempt_cap + 2;
  const std::uint32_t rounds = net.run(proto, max_rounds);

  std::vector<NodeId> parent(n, kNoParent);
  std::vector<bool> member(n, false);
  std::vector<double> ranks(n, 0.0);
  for (sim::NodeId v : net.alive_nodes()) {
    member[v] = true;
    parent[v] = proto.state[v].parent;
    // A parent that crashed mid-phase (churn) is gone: its orphaned child
    // becomes a root, exactly as if the connection had never been acked.
    if (parent[v] != kNoParent && !net.alive(parent[v])) parent[v] = kNoParent;
    ranks[v] = proto.rank[v];
  }

  DrrResult result{Forest::from_parents(std::move(parent), std::move(member)),
                   std::move(ranks), net.counters(), proto.total_probes, rounds};
  return result;
}

}  // namespace drrg
