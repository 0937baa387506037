#include "trees/convergecast.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>

#include "support/mathutil.hpp"
#include "trees/convergecast_protocol.hpp"

namespace drrg {

namespace {

/// Algorithm 3's (value-sum, node-count) vector; kMax/kMin fold only `a`.
struct CcPair {
  double a = 0.0;  // aggregate
  double b = 0.0;  // weight (kSum)
};

struct OpFold {
  using Value = CcPair;
  ConvergecastOp op;

  void operator()(CcPair& into, const CcPair& from) const {
    switch (op) {
      case ConvergecastOp::kMax: into.a = std::max(into.a, from.a); break;
      case ConvergecastOp::kMin: into.a = std::min(into.a, from.a); break;
      case ConvergecastOp::kSum:
        into.a += from.a;
        into.b += from.b;
        break;
    }
  }
};

using OpProtocol = CcProtocol<OpFold>;

ConvergecastResult collect(const OpProtocol& proto, sim::Counters counters,
                           std::uint32_t rounds) {
  const std::uint32_t n = proto.forest.size();
  ConvergecastResult result;
  result.aggregate.assign(n, 0.0);
  result.weight.assign(n, 0.0);
  for (NodeId v = 0; v < n; ++v) {
    result.aggregate[v] = proto.state[v].acc.a;
    result.weight[v] = proto.state[v].acc.b;
  }
  result.counters = counters;
  result.rounds = rounds;
  result.complete = proto.unfinished == 0 && proto.unfinished_roots == 0;
  return result;
}

/// Flat executor.  Each ready node's value reaches its parent (and is
/// acked) within its own round, or is lost and resent the next round, so
/// the round resolves inline.  The ordering hazard -- a parent whose last
/// child reports in round r must not push upward until round r+1 (the
/// engine runs all upcalls before any delivery) -- is handled by stamping
/// ready_at when pending_children hits zero.  A parent absorbing inline is
/// safe in either id order: a parent still waiting on children never sends
/// in that same round, so no same-round send can observe the absorption
/// early.  Per-parent absorption order is the ascending-child send order
/// the engine produces, keeping the IEEE-754 sums bit-identical (pinned by
/// the golden determinism tests).  kFaulty adds §2's faults
/// (sim::CallFaults): crashed nodes never send, and each send's loss coin
/// is drawn in that same ascending order.  Without latency an absorbed
/// value is always acked in its round, so no duplicate ever arrives.
template <bool kFaulty>
ConvergecastResult run_convergecast_flat(OpProtocol& proto, std::uint32_t max_rounds,
                                         sim::CallFaults& faults) {
  const Forest& forest = proto.forest;
  std::vector<std::uint32_t> ready_at(forest.size(), 0);  // leaves: ready from round 0
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
      OpProtocol::NodeState& s = proto.state[v];
      if (s.sent_up || s.pending_children > 0 || ready_at[v] > r) continue;
      // Value up, absorbed at the parent, 1-bit ack back -- all this round.
      const NodeId p = forest.parent(v);
      if constexpr (kFaulty) {
        if (faults.lost(p)) {
          counters.sent += 1;
          counters.lost += 1;
          counters.bits += proto.value_bits;
          continue;
        }
      }
      counters.sent += 2;
      counters.delivered += 2;
      counters.bits += proto.value_bits + 1;
      OpProtocol::NodeState& ps = proto.state[p];
      proto.fold(ps.acc, s.acc);
      --ps.pending_children;
      if (ps.pending_children == 0) {
        ready_at[p] = r + 1;  // pushes upward from the next round
        if (forest.is_root(p) && proto.unfinished_roots > 0) --proto.unfinished_roots;
      }
      s.sent_up = true;
      --proto.unfinished;
    }
    proto.active.erase(std::remove_if(proto.active.begin(), proto.active.end(),
                                      [&proto](NodeId v) { return proto.state[v].sent_up; }),
                       proto.active.end());
    if (proto.unfinished == 0 && proto.unfinished_roots == 0) break;
  }
  return collect(proto, counters, rounds);
}

}  // namespace

ConvergecastResult run_convergecast(const Forest& forest, std::span<const double> values,
                                    ConvergecastOp op, const RngFactory& rngs,
                                    const sim::Scenario& scenario, ConvergecastConfig config) {
  const std::uint32_t n = forest.size();
  if (values.size() < n) throw std::invalid_argument("run_convergecast: values too short");

  const std::uint32_t max_rounds =
      config.max_rounds != 0 ? config.max_rounds : convergecast_round_budget(forest);
  OpProtocol proto{forest, OpFold{op}, 64 + address_bits(n),
                   [values](NodeId v) { return CcPair{values[v], 1.0}; }};
  const std::uint64_t purpose = derive_seed(0xcc, config.stream_tag);
  if (scenario.faults.paper_model()) {
    sim::CallFaults faults{n, rngs, scenario, purpose};
    return faults.active() ? run_convergecast_flat<true>(proto, max_rounds, faults)
                           : run_convergecast_flat<false>(proto, max_rounds, faults);
  }

  sim::Network<OpProtocol::Msg> net{n, rngs, scenario, purpose};
  const std::uint32_t rounds = net.run(proto, max_rounds);
  return collect(proto, net.counters(), rounds);
}

}  // namespace drrg
