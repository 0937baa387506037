#pragma once
// Convergecast (Algorithms 2 and 3) as an engine protocol, generic in
// what it folds.  Private to src/: run_convergecast folds (value, count)
// pairs under a ConvergecastOp; extrema propagation folds k-vectors of
// minima on its own Network.
//
// A Fold is a small value:
//   using Value = ...;                           // one node's partial aggregate
//   void operator()(Value& into, const Value& from) const;  // absorb a child's
// Every kValue message costs the `value_bits` the caller prices it at;
// the ack costs 1 bit.

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "forest/forest.hpp"
#include "sim/engine.hpp"

namespace drrg {

/// Default round horizon: height rounds at delta = 0; each level adds a
/// geometric number of retries under loss (delta < 1/8), so a 8x + 64
/// slack is far beyond the whp horizon.
[[nodiscard]] inline std::uint32_t convergecast_round_budget(const Forest& forest) {
  return 8 * (forest.max_tree_height() + 2) + 64;
}

enum class CcKind : std::uint8_t { kValue, kAck };

template <class Value>
struct CcMsg {
  Value value{};
  CcKind kind = CcKind::kValue;
};

template <class Fold>
struct CcProtocol {
  using Value = typename Fold::Value;
  using Msg = CcMsg<Value>;

  /// `init(v)` is each member's own input.
  template <class Init>
  CcProtocol(const Forest& f, Fold fold_in, std::uint32_t bits, Init&& init)
      : forest(f), fold(fold_in), value_bits(bits), state(f.size()), reported(f.size(), 0) {
    for (NodeId v = 0; v < f.size(); ++v) {
      if (!f.is_member(v)) continue;
      NodeState& s = state[v];
      s.acc = init(v);
      s.pending_children = static_cast<std::uint32_t>(f.children(v).size());
      if (!f.is_root(v)) {
        ++unfinished;
        active.push_back(v);  // roots never act in on_round
      }
    }
    for (NodeId r : f.roots())
      if (state[r].pending_children > 0) ++unfinished_roots;
  }

  struct NodeState {
    Value acc{};
    std::uint32_t pending_children = 0;
    bool sent_up = false;  // parent acknowledged
  };

  const Forest& forest;
  Fold fold;
  std::uint32_t value_bits;
  std::vector<NodeState> state;
  /// reported[c]: c's kValue was absorbed at its parent.  Every node has
  /// exactly one parent, so one flag per child edge.  Under event-time
  /// latency the resend loop puts several copies of the same kValue in
  /// flight before the first ack returns; absorbing a duplicate would
  /// double-count the subtree and wrap pending_children, so duplicates
  /// are acked (to stop the resends) but never absorbed.
  std::vector<std::uint8_t> reported;
  std::vector<NodeId> active;          // non-roots not yet acked, ascending
  std::uint32_t unfinished = 0;        // non-roots that have not been acked
  std::uint32_t unfinished_roots = 0;  // roots still waiting on children

  [[nodiscard]] std::span<const sim::NodeId> active_nodes() const noexcept {
    return active;
  }

  void on_round(sim::Network<Msg>& net, sim::NodeId v) {
    NodeState& s = state[v];
    if (s.sent_up || s.pending_children > 0) return;
    // All children reported: push the partial aggregate to the parent,
    // repeating each round until the ack arrives.
    net.send(v, forest.parent(v), Msg{s.acc, CcKind::kValue}, value_bits);
  }

  void on_message(sim::Network<Msg>& net, sim::NodeId src, sim::NodeId dst, const Msg& m) {
    if (m.kind != CcKind::kValue) return;
    if (!reported[src]) {
      reported[src] = 1;
      NodeState& s = state[dst];
      fold(s.acc, m.value);
      --s.pending_children;
      if (s.pending_children == 0 && forest.is_root(dst) && unfinished_roots > 0)
        --unfinished_roots;
    }
    net.reply(dst, src, Msg{Value{}, CcKind::kAck}, 1);
  }

  void on_reply(sim::Network<Msg>&, sim::NodeId, sim::NodeId dst, const Msg& m) {
    if (m.kind != CcKind::kAck) return;
    NodeState& s = state[dst];
    if (!s.sent_up) {
      s.sent_up = true;
      --unfinished;
    }
  }

  [[nodiscard]] bool done(const sim::Network<Msg>&) {
    // Acked nodes are pure no-ops from here on; pruning runs between
    // rounds (never while the engine iterates the active span).
    active.erase(std::remove_if(active.begin(), active.end(),
                                [this](NodeId v) { return state[v].sent_up; }),
                 active.end());
    return unfinished == 0 && unfinished_roots == 0;
  }
};

}  // namespace drrg
