#include "rootgossip/gossip_max.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>

#include "rootgossip/flat_executor.hpp"
#include "rootgossip/gossip_max_protocol.hpp"
#include "rootgossip/ordered_key.hpp"

namespace drrg {

namespace {

struct KeyMax {
  using Value = std::uint64_t;
  void operator()(std::uint64_t& into, std::uint64_t from) const {
    into = std::max(into, from);
  }
};

using KeyProtocol = GossipMaxProtocol<KeyMax>;
using KeyMsg = KeyProtocol::Msg;

/// Flat-executor policy (rootgossip/flat_executor.hpp): a root sends its
/// key in the gossip procedure and an inquiry in the sampling procedure;
/// at a root, keys and inquiry replies max-merge and an inquiry is
/// answered straight to its origin.  Every message carries key_bits, and
/// no call is acknowledged.
struct GossipMaxFlat {
  using Payload = KeyMsg;
  static constexpr bool kAckedCalls = false;

  KeyProtocol& proto;
  std::vector<std::uint64_t>& key_after_gossip;
  std::uint64_t purpose;
  bool relay = proto.relay;
  std::uint64_t* key = proto.value.data();
  std::uint32_t gossip_rounds = proto.gossip_rounds;
  std::uint32_t sampling_begin = proto.gossip_rounds + proto.drain;
  std::uint32_t sampling_end = sampling_begin + proto.sampling_rounds;

  [[nodiscard]] std::uint32_t total_rounds() const { return proto.total_rounds(); }
  [[nodiscard]] bool calls_in(std::uint32_t r) const {
    return r < gossip_rounds || (r >= sampling_begin && r < sampling_end);
  }
  [[nodiscard]] KeyMsg call(NodeId v, std::uint32_t r) const {
    return r < gossip_rounds ? KeyMsg{key[v], sim::kNoNode, GmKind::kGossip}
                             : KeyMsg{0, v, GmKind::kInquiry};
  }
  template <class Send>
  void arrive(NodeId root, const KeyMsg& m, Send&& send) const {
    if (m.kind == GmKind::kInquiry)
      send(m.origin, KeyMsg{key[root], sim::kNoNode, GmKind::kInquiryReply});
    else
      key[root] = std::max(key[root], m.value);
  }
  void end_round(std::uint32_t r) const {
    if (r + 1 == sampling_begin) key_after_gossip = proto.value;
  }
  [[nodiscard]] sim::Counters counters(std::uint64_t msgs, std::uint64_t delivered,
                                       std::uint64_t /*acks*/) const {
    return {.sent = msgs, .delivered = delivered, .bits = msgs * proto.bits};
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
  KeyProtocol proto{forest, KeyMax{}, 64 + 2 * address_bits(n), config, scenario.topology,
                    [init_key](NodeId r) { return init_key[r]; }};
  GossipMaxResult result;
  if (scenario.faults.paper_model()) {
    sim::CallFaults faults{n, rngs, scenario, purpose};
    const GossipMaxFlat flat{proto, result.key_after_gossip, purpose};
    result.counters =
        faults.active()
            ? rootgossip::run_flat_root_gossip<true>(flat, forest, rngs, scenario.topology, faults)
            : rootgossip::run_flat_root_gossip<false>(flat, forest, rngs, scenario.topology,
                                                      faults);
  } else {
    sim::Network<KeyMsg> net{n, rngs, scenario, purpose};
    // Run the gossip procedure (plus drain), snapshot for Theorem 5, then
    // the sampling procedure (plus drain).
    for (std::uint32_t r = 0; r < proto.gossip_rounds + proto.drain; ++r) net.step(proto);
    result.key_after_gossip = proto.value;
    for (std::uint32_t r = 0; r < proto.sampling_rounds + proto.drain; ++r) net.step(proto);
    result.counters = net.counters();
  }
  result.key = std::move(proto.value);
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
