#pragma once
// Gossip-max (Algorithm 4) as an engine protocol, generic in what it
// diffuses.  Private to src/: run_gossip_max max-merges 64-bit keys;
// extrema propagation min-merges k-vectors on its own Network.
//
// A Fold is a small value:
//   using Value = ...;                           // what a root holds
//   void operator()(Value& into, const Value& from) const;  // merge a received one
// The merge must be idempotent and commutative (max of keys, componentwise
// min of vectors): that is what lets a lost or repeated message cost
// redundancy, never correctness.  Every message costs the `message_bits`
// the caller prices it at.

#include <cstdint>
#include <span>
#include <vector>

#include "forest/forest.hpp"
#include "rootgossip/gossip_max.hpp"
#include "sim/engine.hpp"
#include "support/mathutil.hpp"

namespace drrg {

// kRelay*: first hop of the member relay on explicit topologies -- the
// root hands its message to a uniform random member of its own tree,
// which then samples *its* substrate neighbor.  This makes the G~
// overlay inherit the tree-adjacency connectivity of the substrate
// (connected whenever G is); sampling only the root node's own 2-4
// neighbors strands values in enclosed trees, the historical grid
// consensus = 0 failure.
enum class GmKind : std::uint8_t {
  kGossip, kInquiry, kInquiryReply, kRelayGossip, kRelayInquiry
};

template <class Value>
struct GmMsg {
  // Field order keeps the 64-bit-key message at 16 bytes (24-byte queue
  // envelopes): the queues are the engine's hottest memory traffic.
  Value value{};
  sim::NodeId origin = sim::kNoNode;  // inquiring root (kInquiry)
  GmKind kind = GmKind::kGossip;
};

template <class Fold>
struct GossipMaxProtocol {
  using Value = typename Fold::Value;
  using Msg = GmMsg<Value>;

  /// `init(r)` is each root's starting value; `topology` decides the
  /// member relay (explicit substrates only, when cfg.member_relay).
  template <class Init>
  GossipMaxProtocol(const Forest& f, Fold fold_in, std::uint32_t message_bits,
                    const GossipMaxConfig& cfg, const sim::Topology& topology, Init&& init)
      : forest(f),
        fold(fold_in),
        relay(cfg.member_relay && !topology.is_complete()),
        value(f.size()),
        bits(message_bits),
        gossip_rounds(static_cast<std::uint32_t>(cfg.gossip_multiplier *
                                                 static_cast<double>(ceil_log2(f.size())) *
                                                 cfg.round_budget_scale)),
        sampling_rounds(static_cast<std::uint32_t>(cfg.sampling_multiplier *
                                                   static_cast<double>(ceil_log2(f.size())) *
                                                   cfg.round_budget_scale)),
        drain(cfg.drain_rounds) {
    for (NodeId r : f.roots()) value[r] = init(r);
  }

  const Forest& forest;
  Fold fold;
  bool relay;  // explicit topology: leave the tree via a random member
  std::vector<Value> value;
  std::uint32_t bits;
  std::uint32_t gossip_rounds;
  std::uint32_t sampling_rounds;
  std::uint32_t drain;

  /// Only roots act in Algorithm 4/5; the engine thins its upcall scans
  /// to the (ascending) root list.
  [[nodiscard]] std::span<const sim::NodeId> active_nodes() const noexcept {
    return forest.roots();
  }

  [[nodiscard]] std::uint32_t total_rounds() const {
    return gossip_rounds + drain + sampling_rounds + drain;
  }
  [[nodiscard]] bool in_gossip(std::uint32_t r) const { return r < gossip_rounds; }
  [[nodiscard]] bool in_sampling(std::uint32_t r) const {
    return r >= gossip_rounds + drain && r < gossip_rounds + drain + sampling_rounds;
  }

  void on_round(sim::Network<Msg>& net, sim::NodeId v) {
    const std::uint32_t r = net.round();
    const bool gossip = in_gossip(r);
    if (!gossip && !in_sampling(r)) return;
    if (relay) {
      // Pick the member that will carry this round's call (the root
      // itself carries it with probability 1/|tree|, the size-1 tree
      // degenerating to the direct path).
      const auto members = forest.tree_members(v);
      const auto m = static_cast<sim::NodeId>(
          members[net.node_rng(v).next_below(members.size())]);
      if (m != v) {
        net.send(v, m,
                 gossip ? Msg{value[v], sim::kNoNode, GmKind::kRelayGossip}
                        : Msg{Value{}, v, GmKind::kRelayInquiry},
                 bits);
        return;
      }
    }
    const sim::NodeId target = net.sample_peer(v);
    net.send(v, target,
             gossip ? Msg{value[v], sim::kNoNode, GmKind::kGossip}
                    : Msg{Value{}, v, GmKind::kInquiry},
             bits);
  }

  void on_message(sim::Network<Msg>& net, sim::NodeId, sim::NodeId dst, const Msg& m) {
    if (m.kind == GmKind::kRelayGossip || m.kind == GmKind::kRelayInquiry) {
      // Relay hop: this member samples *its* neighbor on the substrate.
      const sim::NodeId target = net.sample_peer(dst);
      net.send(dst, target,
               m.kind == GmKind::kRelayGossip ? Msg{m.value, sim::kNoNode, GmKind::kGossip}
                                              : Msg{Value{}, m.origin, GmKind::kInquiry},
               bits);
      return;
    }
    // A mid-run joiner that arrived after the forest was fixed is alive
    // but outside the overlay: it has no root to forward to, so the call
    // dies here exactly like a call to a crashed address.
    if (!forest.is_member(dst)) return;
    // root_of(v) == v iff v is a member root: one load replaces the
    // member/parent double lookup on the hottest delivery path.
    const sim::NodeId root = forest.root_of(dst);
    if (root != dst) {
      // Forward to this node's root: the address learned in Phase II.
      // One extra round and message -- the second hop of the G~ edge.
      net.send(dst, root, m, bits);
      return;
    }
    switch (m.kind) {
      case GmKind::kGossip:
      case GmKind::kInquiryReply:
        fold(value[dst], m.value);
        break;
      case GmKind::kInquiry:
        // Reply directly to the inquiring root (its address travelled in
        // the message): one hop on G.
        net.send(dst, m.origin, Msg{value[dst], sim::kNoNode, GmKind::kInquiryReply}, bits);
        break;
      default:
        break;  // relay kinds handled above
    }
  }
};

}  // namespace drrg
