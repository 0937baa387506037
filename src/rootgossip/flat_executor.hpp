#pragma once
// Flat fault-free executor for Phase III's root gossip (private to
// src/rootgossip/).  Gossip-max / data-spread and push-sum run the same
// two-hop G~ skeleton: every round each root calls a sampled node --
// directly, or on explicit topologies through a uniform random member of
// its own tree, which samples *its* substrate neighbor -- and a non-root
// receiver forwards to its root one round later.  This executor unrolls
// that skeleton onto two pooled plain-array queues, with no engine
// dispatch, no crash/loss checks and no reply machinery.
//
// Every send, every delivery, every RNG draw and every state update
// happens in exactly the order the sim::Network path produces: forwards
// queued during round r's delivery are carried over and delivered at the
// *front* of round r+1's batch, ahead of that round's fresh root calls
// (the engine's leftover-outbox order).  Counters and results are
// therefore bit-identical to the engine path -- the golden determinism
// tests pin this.  It pays: Phase III on the engine path instead makes a
// fault-free dense Ave run ~28% slower (README, "Performance").
//
// A Policy supplies what differs between the protocols.  It is a small
// value -- constants plus pointers into the protocol's state -- that the
// executor holds by value, so its fields stay in registers across the
// queue pushes (the Topology::PeerSampler idiom):
//   using Payload = ...;                     // what a message carries
//   std::uint32_t total_rounds() const;
//   bool calls_in(std::uint32_t r) const;    // do roots call in round r?
//   Payload call(NodeId root, std::uint32_t r);
//   void arrive(NodeId root, const Payload&, Send&& send);  // send(dst, p)
//   void end_round(std::uint32_t r);
//   // Prices the run: messages sent and delivered, and root calls (each
//   // delivered in the round it is made).
//   sim::Counters counters(std::uint64_t msgs, std::uint64_t delivered,
//                          std::uint64_t calls) const;

#include <cstdint>
#include <vector>

#include "forest/forest.hpp"
#include "sim/counters.hpp"
#include "sim/topology.hpp"
#include "support/rng.hpp"

namespace drrg::rootgossip {

/// Runs `policy` over the roots of `forest` on `topology`.  `purpose`
/// names the per-node sampling streams (Network::node_rng's purpose);
/// `relay` leaves each tree through a random member.
template <class Policy>
[[nodiscard]] sim::Counters run_flat_root_gossip(Policy policy, const Forest& forest,
                                                 const RngFactory& rngs,
                                                 std::uint64_t purpose,
                                                 const sim::Topology& topology,
                                                 bool relay) {
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

  // Locals keep the tallies in registers.
  std::uint64_t msgs = 0;
  std::uint64_t delivered = 0;
  std::uint64_t calls = 0;
  auto send_onward = [&](NodeId dst, const Payload& msg) {
    ++msgs;
    nxt.push_back(Pending{dst, false, msg});
  };
  const sim::Topology::PeerSampler sample = topology.sampler(n);
  const NodeId* root_of = forest.root_of_table();
  const std::uint32_t rounds = policy.total_rounds();
  for (std::uint32_t r = 0; r < rounds; ++r) {
    if (policy.calls_in(r)) {
      calls += roots.size();
      for (std::size_t i = 0; i < roots.size(); ++i) {
        const NodeId v = roots[i];
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
    policy.end_round(r);
  }

  sim::Counters counters = policy.counters(msgs, delivered, calls);
  counters.rounds = rounds;
  return counters;
}

}  // namespace drrg::rootgossip
