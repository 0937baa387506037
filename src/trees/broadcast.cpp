#include "trees/broadcast.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>

#include "sim/engine.hpp"
#include "support/mathutil.hpp"

namespace drrg {

namespace {

struct BcMsg {
  enum class Kind : std::uint8_t { kValue, kAck };
  Kind kind;
  double payload = 0.0;
};

struct BcProtocol {
  BcProtocol(const Forest& f, std::span<const double> payload, std::uint32_t n,
             bool simultaneous)
      : forest(f), all_children_at_once(simultaneous), value_bits(64 + address_bits(n)),
        state(n), child_acked(f.child_slots(), 0), child_slot(n, 0) {
    for (NodeId v = 0; v < n; ++v) {
      if (!f.is_member(v)) continue;
      ++uninformed;
      if (f.is_root(v)) {
        state[v].informed = true;
        state[v].payload = payload[v];
        --uninformed;
      }
      // Only internal nodes ever act in on_round; leaves and childless
      // roots are upcall no-ops and stay off the engine's scan list.
      const auto children = f.children(v);
      if (!children.empty()) {
        active.push_back(v);
        for (std::size_t i = 0; i < children.size(); ++i)
          child_slot[children[i]] = f.child_offset(v) + i;
      }
    }
  }

  struct NodeState {
    bool informed = false;
    double payload = 0.0;
    std::uint32_t acked_count = 0;
    /// First child index that might be unacked (acked prefix skip: the
    /// per-round resend scan is O(1) amortised instead of O(children)).
    std::uint32_t resend_cursor = 0;
  };

  const Forest& forest;
  bool all_children_at_once;
  std::uint32_t value_bits;
  std::vector<NodeState> state;
  /// Ack flags for every (parent, child) edge, flat in the forest's CSR
  /// child order -- one array instead of n per-node vectors.
  std::vector<std::uint8_t> child_acked;
  /// child_slot[c]: c's index into child_acked (valid for members with a
  /// parent).
  std::vector<std::uint64_t> child_slot;
  std::vector<NodeId> active;  // internal nodes not yet fully acked, ascending
  std::uint32_t uninformed = 0;

  [[nodiscard]] std::span<const sim::NodeId> active_nodes() const noexcept {
    return active;
  }

  void on_round(sim::Network<BcMsg>& net, sim::NodeId v) {
    NodeState& s = state[v];
    const auto children = forest.children(v);
    if (!s.informed || s.acked_count == children.size()) return;
    const std::uint64_t base = forest.child_offset(v);
    if (all_children_at_once) {
      // §4 Assumption (1): one round reaches all (graph-neighbor) children.
      for (std::size_t i = 0; i < children.size(); ++i)
        if (!child_acked[base + i])
          net.send(v, children[i], BcMsg{BcMsg::Kind::kValue, s.payload}, value_bits);
    } else {
      // Random phone call model: one call per round; (re)send to the first
      // child that has not acknowledged yet.
      while (s.resend_cursor < children.size() && child_acked[base + s.resend_cursor])
        ++s.resend_cursor;
      if (s.resend_cursor < children.size()) {
        net.send(v, children[s.resend_cursor], BcMsg{BcMsg::Kind::kValue, s.payload},
                 value_bits);
      }
    }
  }

  void on_message(sim::Network<BcMsg>& net, sim::NodeId src, sim::NodeId dst,
                  const BcMsg& m) {
    if (m.kind != BcMsg::Kind::kValue) return;
    NodeState& s = state[dst];
    if (!s.informed) {
      s.informed = true;
      s.payload = m.payload;
      --uninformed;
    }
    net.reply(dst, src, BcMsg{BcMsg::Kind::kAck, 0.0}, 1);
  }

  void on_reply(sim::Network<BcMsg>&, sim::NodeId src, sim::NodeId dst, const BcMsg& m) {
    if (m.kind != BcMsg::Kind::kAck) return;
    const std::uint64_t slot = child_slot[src];
    if (!child_acked[slot]) {
      child_acked[slot] = 1;
      ++state[dst].acked_count;
    }
  }

  [[nodiscard]] bool done(const sim::Network<BcMsg>&) {
    // Fully-acked internal nodes never act again; pruning runs between
    // rounds (never while the engine iterates the active span).
    active.erase(std::remove_if(active.begin(), active.end(),
                                [this](NodeId v) {
                                  return state[v].acked_count ==
                                         forest.children(v).size();
                                }),
                 active.end());
    return uninformed == 0;
  }
};

/// Flat executor.  Every kValue is delivered and acknowledged within its
/// own round, or lost and resent the next round, so the round resolves
/// inline.  The one ordering hazard -- the engine runs all upcalls before
/// any delivery, so a child informed in round r must not itself send until
/// round r+1 -- is handled by stamping the informing round and gating
/// sends on informed_at < r.  kFaulty adds §2's faults (sim::CallFaults):
/// crashed nodes never send, and each send's loss coin is drawn in the
/// engine's send order (ascending sender, then child index).  Counters and
/// the informed/payload state are bit-identical to the Network path
/// (pinned by the golden determinism tests); no node RNG is ever drawn by
/// either path.
template <bool kFaulty>
BroadcastResult run_broadcast_flat(const Forest& forest, std::span<const double> payload,
                                   std::uint32_t n, bool simultaneous,
                                   std::uint32_t max_rounds, sim::CallFaults& faults) {
  BcProtocol proto{forest, payload, n, simultaneous};
  std::vector<std::uint32_t> informed_at(n, 0);  // roots: round 0 (pre-informed)
  if constexpr (kFaulty) {
    std::erase_if(proto.active, [&faults](NodeId v) { return faults.crashed(v); });
  }

  sim::Counters counters;
  std::uint32_t rounds = 0;
  while (rounds < max_rounds) {
    const std::uint32_t r = rounds;
    ++counters.rounds;
    ++rounds;
    for (NodeId v : proto.active) {
      BcProtocol::NodeState& s = proto.state[v];
      const auto children = forest.children(v);
      if (!s.informed || informed_at[v] > r || s.acked_count == children.size())
        continue;
      const std::uint64_t base = forest.child_offset(v);
      auto inform = [&](std::size_t i) {
        const NodeId c = children[i];
        if constexpr (kFaulty) {
          if (faults.lost(c)) {
            counters.sent += 1;
            counters.lost += 1;
            counters.bits += proto.value_bits;
            return;
          }
        }
        // kValue out, child informed, 1-bit ack back -- all this round.
        counters.sent += 2;
        counters.delivered += 2;
        counters.bits += proto.value_bits + 1;
        BcProtocol::NodeState& cs = proto.state[c];
        if (!cs.informed) {
          cs.informed = true;
          cs.payload = s.payload;
          informed_at[c] = r + 1;  // acts from the next round, engine order
          --proto.uninformed;
        }
        proto.child_acked[base + i] = 1;
        ++s.acked_count;
      };
      if (proto.all_children_at_once) {
        for (std::size_t i = 0; i < children.size(); ++i)
          if (!proto.child_acked[base + i]) inform(i);
      } else {
        while (s.resend_cursor < children.size() &&
               proto.child_acked[base + s.resend_cursor])
          ++s.resend_cursor;
        if (s.resend_cursor < children.size()) inform(s.resend_cursor);
      }
    }
    proto.active.erase(std::remove_if(proto.active.begin(), proto.active.end(),
                                      [&proto, &forest](NodeId v) {
                                        return proto.state[v].acked_count ==
                                               forest.children(v).size();
                                      }),
                       proto.active.end());
    if (proto.uninformed == 0) break;
  }

  BroadcastResult result;
  result.received.assign(n, 0.0);
  result.informed.assign(n, false);
  for (NodeId v = 0; v < n; ++v) {
    result.received[v] = proto.state[v].payload;
    result.informed[v] = proto.state[v].informed;
  }
  result.counters = counters;
  result.rounds = rounds;
  result.complete = proto.uninformed == 0;
  return result;
}

}  // namespace

BroadcastResult run_broadcast(const Forest& forest, std::span<const double> payload,
                              const RngFactory& rngs, const sim::Scenario& scenario,
                              BroadcastConfig config) {
  const std::uint32_t n = forest.size();
  if (payload.size() < n) throw std::invalid_argument("run_broadcast: payload too short");

  std::uint32_t max_rounds = config.max_rounds;
  if (max_rounds == 0) {
    max_rounds = config.simultaneous_children
                     ? 8 * (forest.max_tree_height() + 2) + 64
                     : 8 * (forest.max_tree_size() + 2) + 64;
  }
  const std::uint64_t purpose = derive_seed(0xbc, config.stream_tag);
  if (scenario.faults.paper_model()) {
    sim::CallFaults faults{n, rngs, scenario, purpose};
    return faults.active()
               ? run_broadcast_flat<true>(forest, payload, n, config.simultaneous_children,
                                          max_rounds, faults)
               : run_broadcast_flat<false>(forest, payload, n, config.simultaneous_children,
                                           max_rounds, faults);
  }

  sim::Network<BcMsg> net{n, rngs, scenario, purpose};
  BcProtocol proto{forest, payload, n, config.simultaneous_children};

  const std::uint32_t rounds = net.run(proto, max_rounds);

  BroadcastResult result;
  result.received.assign(n, 0.0);
  result.informed.assign(n, false);
  for (NodeId v = 0; v < n; ++v) {
    result.received[v] = proto.state[v].payload;
    result.informed[v] = proto.state[v].informed;
  }
  result.counters = net.counters();
  result.rounds = rounds;
  result.complete = proto.uninformed == 0;
  return result;
}

}  // namespace drrg
