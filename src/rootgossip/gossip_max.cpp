#include "rootgossip/gossip_max.hpp"

#include <span>
#include <stdexcept>

#include "rootgossip/flat_executor.hpp"
#include "rootgossip/ordered_key.hpp"
#include "sim/engine.hpp"
#include "support/mathutil.hpp"

namespace drrg {

namespace {

struct GmMsg {
  // kRelay*: first hop of the member relay on explicit topologies -- the
  // root hands its message to a uniform random member of its own tree,
  // which then samples *its* substrate neighbor.  This makes the G~
  // overlay inherit the tree-adjacency connectivity of the substrate
  // (connected whenever G is); sampling only the root node's own 2-4
  // neighbors strands keys in enclosed trees, the historical grid
  // consensus = 0 failure.
  enum class Kind : std::uint8_t {
    kGossip, kInquiry, kInquiryReply, kRelayGossip, kRelayInquiry
  };
  // Field order keeps the struct at 16 bytes (24-byte queue envelopes):
  // the queues are the engine's hottest memory traffic.
  std::uint64_t key = 0;
  sim::NodeId origin = sim::kNoNode;  // inquiring root (kInquiry)
  Kind kind = Kind::kGossip;
};

struct GossipMaxProtocol {
  GossipMaxProtocol(const Forest& f, std::span<const std::uint64_t> init,
                    const GossipMaxConfig& cfg, std::uint32_t n, bool relay_members)
      : forest(f),
        relay(relay_members),
        key(n, kKeyBottom),
        key_bits(64 + 2 * address_bits(n)),
        gossip_rounds(static_cast<std::uint32_t>(cfg.gossip_multiplier *
                                                 static_cast<double>(ceil_log2(n)) *
                                                 cfg.round_budget_scale)),
        sampling_rounds(static_cast<std::uint32_t>(cfg.sampling_multiplier *
                                                   static_cast<double>(ceil_log2(n)) *
                                                   cfg.round_budget_scale)),
        drain(cfg.drain_rounds) {
    for (NodeId r : f.roots()) key[r] = init[r];
  }

  const Forest& forest;
  bool relay;  // explicit topology: leave the tree via a random member
  std::vector<std::uint64_t> key;
  std::vector<std::uint64_t> key_after_gossip;  // filled by the runner
  std::uint32_t key_bits;
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

  void on_round(sim::Network<GmMsg>& net, sim::NodeId v) {
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
                 gossip ? GmMsg{key[v], sim::kNoNode, GmMsg::Kind::kRelayGossip}
                        : GmMsg{0, v, GmMsg::Kind::kRelayInquiry},
                 key_bits);
        return;
      }
    }
    const sim::NodeId target = net.sample_peer(v);
    net.send(v, target,
             gossip ? GmMsg{key[v], sim::kNoNode, GmMsg::Kind::kGossip}
                    : GmMsg{0, v, GmMsg::Kind::kInquiry},
             key_bits);
  }

  void on_message(sim::Network<GmMsg>& net, sim::NodeId, sim::NodeId dst, const GmMsg& m) {
    if (m.kind == GmMsg::Kind::kRelayGossip || m.kind == GmMsg::Kind::kRelayInquiry) {
      // Relay hop: this member samples *its* neighbor on the substrate.
      const sim::NodeId target = net.sample_peer(dst);
      net.send(dst, target,
               m.kind == GmMsg::Kind::kRelayGossip
                   ? GmMsg{m.key, sim::kNoNode, GmMsg::Kind::kGossip}
                   : GmMsg{0, m.origin, GmMsg::Kind::kInquiry},
               key_bits);
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
      net.send(dst, root, m, key_bits);
      return;
    }
    switch (m.kind) {
      case GmMsg::Kind::kGossip:
        key[dst] = std::max(key[dst], m.key);
        break;
      case GmMsg::Kind::kInquiry:
        // Reply directly to the inquiring root (its address travelled in
        // the message): one hop on G.
        net.send(dst, m.origin, GmMsg{key[dst], sim::kNoNode, GmMsg::Kind::kInquiryReply},
                 key_bits);
        break;
      case GmMsg::Kind::kInquiryReply:
        key[dst] = std::max(key[dst], m.key);
        break;
      default:
        break;  // relay kinds handled above
    }
  }
};

/// Flat-executor policy (rootgossip/flat_executor.hpp): a root sends its
/// key in the gossip procedure and an inquiry in the sampling procedure;
/// at a root, keys and inquiry replies max-merge and an inquiry is
/// answered straight to its origin.  Every message carries key_bits.
struct GossipMaxFlat {
  using Payload = GmMsg;

  GossipMaxProtocol& proto;
  std::uint64_t* key = proto.key.data();
  std::uint32_t gossip_rounds = proto.gossip_rounds;
  std::uint32_t sampling_begin = proto.gossip_rounds + proto.drain;
  std::uint32_t sampling_end = sampling_begin + proto.sampling_rounds;

  [[nodiscard]] std::uint32_t total_rounds() const { return proto.total_rounds(); }
  [[nodiscard]] bool calls_in(std::uint32_t r) const {
    return r < gossip_rounds || (r >= sampling_begin && r < sampling_end);
  }
  [[nodiscard]] GmMsg call(NodeId v, std::uint32_t r) const {
    return r < gossip_rounds ? GmMsg{key[v], sim::kNoNode, GmMsg::Kind::kGossip}
                             : GmMsg{0, v, GmMsg::Kind::kInquiry};
  }
  template <class Send>
  void arrive(NodeId root, const GmMsg& m, Send&& send) const {
    if (m.kind == GmMsg::Kind::kInquiry)
      send(m.origin, GmMsg{key[root], sim::kNoNode, GmMsg::Kind::kInquiryReply});
    else
      key[root] = std::max(key[root], m.key);
  }
  void end_round(std::uint32_t r) const {
    if (r + 1 == sampling_begin) proto.key_after_gossip = proto.key;
  }
  [[nodiscard]] sim::Counters counters(std::uint64_t msgs, std::uint64_t delivered,
                                       std::uint64_t /*calls*/) const {
    return {.sent = msgs, .delivered = delivered, .bits = msgs * proto.key_bits};
  }
};

}  // namespace

GossipMaxResult run_gossip_max(const Forest& forest,
                               std::span<const std::uint64_t> init_key,
                               const RngFactory& rngs, const sim::Scenario& scenario,
                               GossipMaxConfig config) {
  const std::uint32_t n = forest.size();
  if (init_key.size() < n) throw std::invalid_argument("run_gossip_max: keys too short");

  const std::uint64_t purpose = derive_seed(0x3099, config.stream_tag);
  const bool relay = config.member_relay && !scenario.topology.is_complete();
  GossipMaxProtocol proto{forest, init_key, config, n, relay};
  GossipMaxResult result;
  if (scenario.faults.fault_free()) {
    result.counters = rootgossip::run_flat_root_gossip(GossipMaxFlat{proto}, forest, rngs,
                                                       purpose, scenario.topology, relay);
  } else {
    sim::Network<GmMsg> net{n, rngs, scenario, purpose};
    // Run the gossip procedure (plus drain), snapshot for Theorem 5, then
    // the sampling procedure (plus drain).
    for (std::uint32_t r = 0; r < proto.gossip_rounds + proto.drain; ++r) net.step(proto);
    proto.key_after_gossip = proto.key;
    for (std::uint32_t r = 0; r < proto.sampling_rounds + proto.drain; ++r) net.step(proto);
    result.counters = net.counters();
  }
  result.key = std::move(proto.key);
  result.key_after_gossip = std::move(proto.key_after_gossip);
  result.rounds = proto.total_rounds();
  return result;
}

GossipMaxResult run_data_spread(const Forest& forest, NodeId source_root,
                                std::uint64_t key, const RngFactory& rngs,
                                const sim::Scenario& scenario, GossipMaxConfig config) {
  if (!forest.is_root(source_root))
    throw std::invalid_argument("run_data_spread: source is not a root");
  std::vector<std::uint64_t> init(forest.size(), kKeyBottom);
  init[source_root] = key;
  return run_gossip_max(forest, init, rngs, scenario, config);
}

double fraction_of_roots_with_key(const Forest& forest,
                                  std::span<const std::uint64_t> keys,
                                  std::uint64_t key) {
  if (forest.roots().empty()) return 0.0;
  std::size_t holders = 0;
  for (NodeId r : forest.roots())
    if (keys[r] == key) ++holders;
  return static_cast<double>(holders) / static_cast<double>(forest.roots().size());
}

}  // namespace drrg
