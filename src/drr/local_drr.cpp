#include "drr/local_drr.hpp"

#include <algorithm>
#include <stdexcept>

#include "sim/engine.hpp"
#include "support/mathutil.hpp"

namespace drrg {

namespace {

/// Names Local-DRR's per-node streams and its loss stream.
constexpr std::uint64_t kLocalDrrPurpose = 0x10ca1;

struct LocalMsg {
  enum class Kind : std::uint8_t { kRank, kConnect, kConnectAck };
  Kind kind;
  double rank = 0.0;
};

struct LocalDrrProtocol {
  LocalDrrProtocol(const Graph& graph, const LocalDrrConfig& cfg)
      : g(graph),
        exchange_rounds(cfg.exchange_rounds == 0 ? 1 : cfg.exchange_rounds),
        connect_cap(cfg.connect_attempt_cap),
        rank_bits(3 * address_bits(graph.size())),
        addr_bits(address_bits(graph.size())),
        state(graph.size()) {}

  struct NodeState {
    double rank = 0.0;
    double best_rank = -1.0;            // highest neighbor rank heard so far
    sim::NodeId best_neighbor = sim::kNoNode;
    std::uint32_t connect_attempts = 0;
    sim::NodeId parent = sim::kNoNode;  // acknowledged parent
    bool settled = false;

    /// Max-merge of a heard rank: rank descending, then sender id
    /// ascending.  A total order, so the result is independent of the
    /// order the ranks arrive in.
    void hear(double r, sim::NodeId src) noexcept {
      if (r > best_rank || (r == best_rank && src < best_neighbor)) {
        best_rank = r;
        best_neighbor = src;
      }
    }

    /// A local maximum among the neighbors heard: becomes a root.
    [[nodiscard]] bool local_max() const noexcept {
      return best_neighbor == sim::kNoNode || best_rank <= rank;
    }
  };

  const Graph& g;
  std::uint32_t exchange_rounds;
  std::uint32_t connect_cap;
  std::uint32_t rank_bits;
  std::uint32_t addr_bits;
  std::vector<NodeState> state;
  std::uint32_t unsettled = 0;

  void init_ranks(sim::Network<LocalMsg>& net) {
    for (sim::NodeId v : net.alive_nodes()) state[v].rank = net.node_rng(v).next_unit();
    unsettled = static_cast<std::uint32_t>(net.alive_nodes().size());
  }

  void settle(NodeState& s) {
    if (!s.settled) {
      s.settled = true;
      --unsettled;
    }
  }

  void on_round(sim::Network<LocalMsg>& net, sim::NodeId v) {
    NodeState& s = state[v];
    if (net.round() < exchange_rounds) {
      // Assumption (1) of §4: one round reaches all neighbors.
      for (NodeId w : g.neighbors(v))
        net.send(v, w, LocalMsg{LocalMsg::Kind::kRank, s.rank}, rank_bits);
      return;
    }
    if (s.settled) return;
    if (net.round() == exchange_rounds && s.local_max()) {
      settle(s);  // exchange finished: root
      return;
    }
    if (!s.local_max()) {
      ++s.connect_attempts;
      net.send(v, s.best_neighbor, LocalMsg{LocalMsg::Kind::kConnect, 0.0}, addr_bits);
    }
  }

  void on_message(sim::Network<LocalMsg>& net, sim::NodeId src, sim::NodeId dst,
                  const LocalMsg& m) {
    switch (m.kind) {
      case LocalMsg::Kind::kRank:
        state[dst].hear(m.rank, src);
        break;
      case LocalMsg::Kind::kConnect:
        net.reply(dst, src, LocalMsg{LocalMsg::Kind::kConnectAck, 0.0}, addr_bits);
        break;
      default:
        break;
    }
  }

  void on_reply(sim::Network<LocalMsg>&, sim::NodeId src, sim::NodeId dst,
                const LocalMsg& m) {
    if (m.kind != LocalMsg::Kind::kConnectAck) return;
    NodeState& s = state[dst];
    s.parent = src;
    settle(s);
  }

  void on_round_end(sim::Network<LocalMsg>& net, sim::NodeId v) {
    if (net.round() < exchange_rounds) return;
    NodeState& s = state[v];
    if (!s.settled && s.connect_attempts >= connect_cap) settle(s);  // root by exhaustion
  }

  [[nodiscard]] bool done(const sim::Network<LocalMsg>& net) const {
    return net.round() >= exchange_rounds && unsettled == 0;
  }
};

/// Flat executor.  Every round resolves inline, in the engine's send
/// order.  A rank round sends from each live node, ascending, to each
/// neighbor in adjacency order; ranks read only the sender's static rank
/// and the max-merge is order-independent, so merging at send time is
/// the engine's delivery step.  A connect round sends one connect per
/// unsettled node, ascending; its ack is reliable and reads nothing, and
/// on_round_end reads only the node's own state, so both resolve at the
/// send.  kFaulty adds §2's faults (sim::CallFaults): crashed nodes draw
/// no rank and send nothing, and each send asks lost(dst) once, where the
/// engine draws its coin; a lost connect is retried until the cap.  The
/// fault-free instantiation hears every rank in the first round, so it
/// walks the edges once and counts the repeated rounds.  Counters, rounds,
/// ranks and the forest are bit-identical to the Network path (pinned by
/// the equivalence tests in tests/test_determinism.cpp).
template <bool kFaulty>
LocalDrrResult run_local_drr_flat(const Graph& g, const RngFactory& rngs,
                                  const LocalDrrConfig& config, sim::CallFaults& faults) {
  const std::uint32_t n = g.size();
  LocalDrrProtocol proto{g, config};
  std::vector<NodeId> active;  // unsettled live nodes, ascending
  active.reserve(n);
  for (NodeId v = 0; v < n; ++v) {
    if constexpr (kFaulty) {
      if (faults.crashed(v)) continue;
    }
    proto.state[v].rank = rngs.node_stream(v, kLocalDrrPurpose).next_unit();
    active.push_back(v);
  }
  proto.unsettled = static_cast<std::uint32_t>(active.size());

  const std::uint64_t* offsets = g.csr_offsets().data();
  const NodeId* adjacency = g.csr_adjacency().data();
  std::uint64_t rank_sends = 0;
  std::uint64_t rank_heard = 0;  // kFaulty: ranks delivered
  std::uint64_t connects = 0;
  std::uint64_t acked = 0;  // kFaulty: connects acknowledged
  const std::uint32_t max_rounds = proto.exchange_rounds + config.connect_attempt_cap + 2;
  std::uint32_t rounds = 0;
  for (std::uint32_t r = 0; r < max_rounds; ++r) {
    ++rounds;
    if (r < proto.exchange_rounds) {
      if (kFaulty || r == 0) {
        for (const NodeId v : active) {
          const double rank = proto.state[v].rank;
          for (std::uint64_t i = offsets[v]; i < offsets[v + 1]; ++i) {
            const NodeId w = adjacency[i];
            if constexpr (kFaulty) {
              ++rank_sends;
              if (faults.lost(w)) continue;
              ++rank_heard;
            }
            proto.state[w].hear(rank, v);
          }
        }
      }
    } else {
      for (const NodeId v : active) {
        LocalDrrProtocol::NodeState& s = proto.state[v];
        if (r == proto.exchange_rounds && s.local_max()) {
          proto.settle(s);  // root
          continue;
        }
        ++s.connect_attempts;
        ++connects;
        if constexpr (kFaulty) {
          if (faults.lost(s.best_neighbor)) {
            if (s.connect_attempts >= proto.connect_cap) proto.settle(s);  // root by exhaustion
            continue;
          }
          ++acked;
        }
        s.parent = s.best_neighbor;
        proto.settle(s);
      }
      active.erase(std::remove_if(active.begin(), active.end(),
                                  [&proto](NodeId v) { return proto.state[v].settled; }),
                   active.end());
    }
    if (r + 1 >= proto.exchange_rounds && proto.unsettled == 0) break;
  }
  if constexpr (!kFaulty) {
    rank_sends = std::uint64_t{proto.exchange_rounds} * g.csr_adjacency().size();
    rank_heard = rank_sends;
    acked = connects;
  }

  sim::Counters counters;
  counters.sent = rank_sends + connects + acked;
  counters.delivered = rank_heard + 2 * acked;
  counters.lost = (rank_sends - rank_heard) + (connects - acked);
  counters.bits = rank_sends * proto.rank_bits + (connects + acked) * proto.addr_bits;
  counters.rounds = rounds;
  std::vector<NodeId> parent(n, kNoParent);
  std::vector<bool> member(n, true);
  std::vector<double> ranks(n, 0.0);
  for (NodeId v = 0; v < n; ++v) {
    if constexpr (kFaulty) {
      if (faults.crashed(v)) {
        member[v] = false;
        continue;
      }
    }
    parent[v] = proto.state[v].parent;
    ranks[v] = proto.state[v].rank;
  }
  return LocalDrrResult{Forest::from_parents(std::move(parent), std::move(member)),
                        std::move(ranks), counters, rounds};
}

}  // namespace

LocalDrrResult run_local_drr(const Graph& g, const RngFactory& rngs,
                             const sim::Scenario& scenario, LocalDrrConfig config) {
  if (g.is_complete())
    throw std::invalid_argument("run_local_drr: use run_drr for the complete graph");
  if (g.size() < 2) throw std::invalid_argument("run_local_drr: need n >= 2");

  if (scenario.faults.paper_model()) {
    sim::CallFaults faults{g.size(), rngs, scenario, kLocalDrrPurpose};
    return faults.active() ? run_local_drr_flat<true>(g, rngs, config, faults)
                           : run_local_drr_flat<false>(g, rngs, config, faults);
  }
  sim::Network<LocalMsg> net{g.size(), rngs, scenario, kLocalDrrPurpose};
  LocalDrrProtocol proto{g, config};
  proto.init_ranks(net);

  const std::uint32_t max_rounds =
      proto.exchange_rounds + config.connect_attempt_cap + 2;
  const std::uint32_t rounds = net.run(proto, max_rounds);

  const std::uint32_t n = g.size();
  std::vector<NodeId> parent(n, kNoParent);
  std::vector<bool> member(n, false);
  std::vector<double> ranks(n, 0.0);
  for (sim::NodeId v : net.alive_nodes()) {
    member[v] = true;
    parent[v] = proto.state[v].parent;
    ranks[v] = proto.state[v].rank;
  }

  return LocalDrrResult{Forest::from_parents(std::move(parent), std::move(member)),
                        std::move(ranks), net.counters(), rounds};
}

}  // namespace drrg
