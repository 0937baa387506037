#pragma once
// Flat executor for Phase III's root gossip (private to src/rootgossip/).
// Gossip-max / data-spread and push-sum run the same two-hop G~ skeleton:
// every round each root calls a sampled node -- directly, or on explicit
// topologies through a uniform random member of its own tree, which
// samples *its* substrate neighbor -- and a non-root receiver forwards to
// its root one round later.  This executor unrolls that skeleton onto two
// pooled plain-array queues, with no engine dispatch and no reply
// machinery.  Its fault-free instantiation makes no crash or loss check at
// all; the kFaulty one resolves §2's faults -- a round-0 crash set and one
// loss coin per call -- through sim::CallFaults.
//
// Every send, every delivery, every RNG draw (loss coins included) and
// every state update happens in exactly the order the sim::Network path
// produces: forwards queued during round r's delivery are carried over
// and delivered at the *front* of round r+1's batch, ahead of that
// round's fresh root calls (the engine's leftover-outbox order), and a
// crashed destination loses its call without consuming a coin.  Counters
// and results are therefore bit-identical to the engine path -- the
// golden determinism tests pin this.  It pays: Phase III on the engine
// path instead makes a fault-free dense Ave run ~28% slower (README,
// "Performance").
//
// A Policy supplies what differs between the protocols.  It is a small
// value -- constants plus pointers into the protocol's state -- that the
// executor holds by value, so its fields stay in registers across the
// queue pushes (the Topology::PeerSampler idiom):
//   using Payload = ...;                     // what a message carries
//   // Is a root's call acknowledged by its first receiver (push-sum)?
//   static constexpr bool kAckedCalls = ...;
//   bool relay;              // leave each tree through a random member
//   std::uint64_t purpose;   // names the per-node sampling streams
//                            // (Network::node_rng's purpose)
//   std::uint32_t total_rounds() const;
//   bool calls_in(std::uint32_t r) const;    // do roots call in round r?
//   Payload call(NodeId root, std::uint32_t r);
//   void arrive(NodeId root, const Payload&, Send&& send);  // send(dst, p)
//   // kAckedCalls: the root's call of this round went unacked (lost, or
//   // dead at a non-member); runs after the round's deliveries.
//   void unacked(NodeId root, const Payload& call);
//   void end_round(std::uint32_t r);
//   // Prices the run: messages sent and delivered, and acks (root calls
//   // delivered to a forest member, each acked in the round it is made).
//   sim::Counters counters(std::uint64_t msgs, std::uint64_t delivered,
//                          std::uint64_t acks) const;

#include <cstdint>
#include <utility>
#include <vector>

#include "forest/forest.hpp"
#include "sim/call_faults.hpp"
#include "sim/counters.hpp"
#include "sim/topology.hpp"
#include "support/rng.hpp"

namespace drrg::rootgossip {

/// Runs `policy` over the roots of `forest` on `topology`.  kFaulty
/// resolves every call through `faults`, which the fault-free
/// instantiation never touches.  The parameters (with the hidden return
/// slot) all fit registers: a call that passes one on the stack costs its
/// caller the frame-pointer register, and a fault-free loop inlined into
/// such a caller measured ~10% slower.
template <bool kFaulty, class Policy>
[[nodiscard]] sim::Counters run_flat_root_gossip(const Policy& policy_in, const Forest& forest,
                                                 const RngFactory& rngs,
                                                 const sim::Topology& topology,
                                                 sim::CallFaults& faults) {
  Policy policy = policy_in;  // held by value: its fields stay in registers
  using Payload = typename Policy::Payload;
  struct Pending {
    NodeId dst;
    // A root's hand-off to the member that carries its call: the carrier
    // samples the target on delivery.  Every other message lands at dst.
    bool to_carrier;
    Payload msg;
  };

  const std::uint32_t n = forest.size();
  const std::vector<NodeId>& roots = forest.roots();
  const bool relay = policy.relay;
  const std::uint64_t purpose = policy.purpose;

  // Per-node sampling streams, identical to Network::node_rng(v): lazily
  // constructed (relay touches arbitrary members, roots always draw).
  std::vector<Rng> rng_slot(relay ? n : roots.size(), Rng{});
  std::vector<std::uint8_t> rng_init(relay ? n : roots.size(), 0);
  auto rng_at = [&](NodeId v, std::size_t slot) -> Rng& {
    if (!rng_init[slot]) {
      rng_slot[slot] = rngs.node_stream(v, purpose);
      rng_init[slot] = 1;
    }
    return rng_slot[slot];
  };

  std::vector<Pending> cur, nxt;
  cur.reserve(roots.size() * 2);
  nxt.reserve(roots.size() * 2);
  // kFaulty with acked calls: this round's calling roots in send order,
  // and the calls that went unacked.
  constexpr bool kAcks = kFaulty && Policy::kAckedCalls;
  std::vector<NodeId> callers;
  std::vector<std::pair<NodeId, Payload>> unacked;

  // Locals keep the tallies in registers.
  std::uint64_t msgs = 0;
  std::uint64_t delivered = 0;
  std::uint64_t lost = 0;
  std::uint64_t acks = 0;
  auto send_onward = [&](NodeId dst, const Payload& msg) {
    ++msgs;
    nxt.push_back(Pending{dst, false, msg});
  };
  const sim::Topology::PeerSampler sample = topology.sampler(n);
  const NodeId* root_of = forest.root_of_table();
  const std::uint32_t rounds = policy.total_rounds();
  for (std::uint32_t r = 0; r < rounds; ++r) {
    // Carried-over forwards fill cur's front; this round's calls follow.
    const std::size_t carried = cur.size();
    if (policy.calls_in(r)) {
      if constexpr (!kFaulty) acks += roots.size();
      for (std::size_t i = 0; i < roots.size(); ++i) {
        const NodeId v = roots[i];
        if constexpr (kFaulty) {
          if (faults.crashed(v)) continue;
          if constexpr (kAcks) callers.push_back(v);
        }
        const Payload msg = policy.call(v, r);
        Rng& vrng = rng_at(v, relay ? v : i);
        ++msgs;
        if (relay) {
          // The root itself carries the call with probability 1/|tree|,
          // the size-1 tree degenerating to the direct path.
          const auto members = forest.tree_members(v);
          const auto carrier =
              static_cast<NodeId>(members[vrng.next_below(members.size())]);
          if (carrier != v) {
            cur.push_back(Pending{carrier, true, msg});
            continue;
          }
        }
        cur.push_back(Pending{sample(v, vrng), false, msg});
      }
    }
    for (const Pending& e : cur) {
      if constexpr (kFaulty) {
        const auto k = static_cast<std::size_t>(&e - cur.data());
        const bool is_call = kAcks && k >= carried;  // a root's call: acked on arrival
        if (faults.lost(e.dst)) {
          ++lost;
          if (is_call) unacked.emplace_back(callers[k - carried], e.msg);
          continue;
        }
        // A live node outside the forest has no root to forward to (a
        // carrier always has one): the call dies there, unacknowledged.
        if (!e.to_carrier && root_of[e.dst] == kNoParent) {
          ++delivered;
          if (is_call) unacked.emplace_back(callers[k - carried], e.msg);
          continue;
        }
        if (is_call) ++acks;
      }
      ++delivered;
      if (e.to_carrier) {
        // Relay hop: this member samples *its* substrate neighbor.
        send_onward(sample(e.dst, rng_at(e.dst, e.dst)), e.msg);
        continue;
      }
      const NodeId root = root_of[e.dst];
      if (root != e.dst) {  // second hop of the G~ edge, next round
        send_onward(root, e.msg);
        continue;
      }
      policy.arrive(e.dst, e.msg, send_onward);
    }
    cur.swap(nxt);
    nxt.clear();
    if constexpr (kAcks) {
      for (const auto& [root, call] : unacked) policy.unacked(root, call);
      unacked.clear();
      callers.clear();
    }
    policy.end_round(r);
  }

  sim::Counters counters = policy.counters(msgs, delivered, acks);
  counters.lost = lost;
  counters.rounds = rounds;
  return counters;
}

}  // namespace drrg::rootgossip
