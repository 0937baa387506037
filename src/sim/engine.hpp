#pragma once
// Synchronous random-phone-call network simulator (the model of §2),
// generalised into a scenario engine: the communication substrate
// (sim::Topology) and the fault model (sim::FaultSchedule) are first-class,
// swappable components bundled into a sim::Scenario.  Its behaviour is
// pinned by the FNV-1a sweep checksums in test_determinism and the
// engine-sweep sha256 hashes in BENCH_engine.json.
//
// Time advances in discrete rounds.  In each round every live node gets an
// on_round() upcall in which it may *call* other nodes by sending messages;
// a message sent in round t is delivered at the delivery step of round t
// (the call happens within the round).  A recipient may reply() on the
// established call; replies are delivered in the same round and are
// reliable, while call-initiating send()s are lost independently with
// probability FaultSchedule::loss_prob.  Messages emitted *during* delivery
// (forwarding) are queued for the next round: each forwarding hop costs one
// round, exactly the "at most two hops of G per edge of G~" accounting the
// paper uses for Phase III.
//
// Faults: a crash_fraction of nodes is down from the start, and scheduled
// CrashEvents kill further nodes mid-run.  The engine maintains the alive
// set incrementally: a node with death round r participates in (global)
// rounds < r and is gone from round r on.  Scenario::start_round offsets
// this network's clock so multi-phase pipelines can thread one global
// schedule through per-phase Network instances.
//
// Structured adversity (all byte-invisible when absent from the schedule):
//   * LatencyModel -- each call draws a per-message delay d from the
//     engine's latency stream and arrives at the delivery step d rounds
//     after it normally would (event-time delivery via a future-bucket
//     ring).  Replies ride the established call and stay same-round.
//     With the model zero() no draw happens and no code path changes.
//   * BlockCrashEvent -- correlated rack/rectangle outages, folded into
//     the same death timeline as churn (sim::full_timeline).
//   * PartitionEvent -- while active, every message straddling the
//     boundary is dropped (replies included: the cut is physical).
//   * JoinEvent -- deferred births: an unborn node is crashed until its
//     birth round, then revives, is inserted into the alive set, and the
//     protocol's optional on_join(net, v) hook fires so it can bootstrap
//     state from a live peer.
//
// Protocols are plain structs; the engine discovers optional hooks with
// C++20 `requires`, so a protocol only implements what it needs:
//
//   void on_round(Network<Msg>&, NodeId)                      -- initiate calls
//   void on_message(Network<Msg>&, NodeId src, NodeId dst, const Msg&)
//   void on_reply(Network<Msg>&, NodeId src, NodeId dst, const Msg&)
//   void on_round_end(Network<Msg>&, NodeId)                  -- detect lost calls
//   bool done(const Network<Msg>&)                            -- early termination
//   span<const NodeId> active_nodes()                         -- upcall thinning
//
// active_nodes() is a pure optimisation contract: a protocol whose
// per-round work is confined to a known node subset (Phase III acts only
// on the forest roots) returns that subset -- sorted ascending, a superset
// of every node whose on_round/on_round_end does anything -- and the
// engine iterates it instead of the whole alive set.  The engine still
// filters crashed nodes, and ascending order keeps the send sequence (and
// therefore every downstream delivery and RNG draw) bit-identical to the
// full alive scan.
//
// Determinism: all protocol randomness comes from per-node streams and all
// engine randomness (loss, crashes) from separate engine streams, both
// derived from one root seed; deliveries are processed in send order.
// Per-node streams are constructed lazily (first use), which is invisible:
// stream state is a pure function of (root seed, node, purpose).
//
// The round loop is serial: one upcall scan, then one handler dispatch per
// delivery batch, on the calling thread.  Parallelism lives one level up,
// across whole runs (api::run_trials, the median bracket): sharding the
// loop itself across threads measured slower than this loop below 2^22
// nodes (README, "Scaling to millions of nodes").
//
// Hot-path notes: the delivery queues are pooled (capacity survives across
// rounds, so steady-state rounds allocate nothing), the crash flags are a
// flat byte array, the per-node RNG pool is flat SoA (32-byte xoshiro
// state + 1-byte seeded flag per node, not vector<optional> -- at n = 16M
// the pool is two flat allocations and stays lazily seeded), and the loss
// coin is skipped entirely for loss-free runs (the loss stream feeds
// nothing else, so eliding the draws cannot perturb any observable).

#include <algorithm>
#include <cassert>
#include <concepts>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "sim/call_faults.hpp"
#include "sim/counters.hpp"
#include "sim/scenario.hpp"
#include "sim/topology.hpp"
#include "support/rng.hpp"

namespace drrg::sim {

inline constexpr NodeId kNoNode = static_cast<NodeId>(-1);

template <class Msg>
class Network {
 public:
  /// `purpose` namespaces the per-node RNG streams so that consecutive
  /// protocol phases sharing one RngFactory draw independent randomness.
  Network(std::uint32_t n, const RngFactory& rngs, Scenario scenario = {},
          std::uint64_t purpose = 0)
      : n_(n),
        scenario_(std::move(scenario)),
        rngs_(rngs),
        purpose_(purpose),
        loss_rng_(rngs.engine_stream(derive_seed(purpose, kLossStreamTag))),
        latency_rng_(rngs.engine_stream(derive_seed(purpose, 0x1a7eULL))),
        lossy_run_(scenario_.faults.loss_prob > 0.0),
        latency_on_(!scenario_.faults.latency.zero()),
        partitioned_(scenario_.faults.has_partitions()) {
    assert(scenario_.topology.is_complete() || scenario_.topology.size() == n);
    node_rngs_.resize(n);  // lazily seeded on first use (flags below)
    rng_seeded_.assign(n, 0);
    const FaultTimeline timeline = full_timeline(n, rngs, scenario_.faults);
    crashed_.assign(n, 0);
    alive_.reserve(n);
    for (NodeId v = 0; v < n; ++v) {
      const bool born = timeline.birth[v] <= scenario_.start_round;
      const bool dead = timeline.death[v] <= scenario_.start_round;
      if (born && !dead) {
        alive_.push_back(v);
      } else {
        crashed_[v] = 1;
      }
      if (!born) {
        pending_births_.push_back({timeline.birth[v], v});
        if (unborn_.empty()) unborn_.assign(n, 0);
        unborn_[v] = 1;
      }
      if (!dead && timeline.death[v] != kNeverCrashes) {
        pending_deaths_.push_back({timeline.death[v], v});
      }
    }
    std::sort(pending_deaths_.begin(), pending_deaths_.end());
    std::sort(pending_births_.begin(), pending_births_.end());
    if (latency_on_) future_.resize(scenario_.faults.latency.bound() + 2);
  }

  [[nodiscard]] std::uint32_t size() const noexcept { return n_; }
  [[nodiscard]] bool alive(NodeId v) const noexcept { return crashed_[v] == 0; }
  [[nodiscard]] const std::vector<NodeId>& alive_nodes() const noexcept { return alive_; }
  /// Rounds executed by *this* network (local clock).
  [[nodiscard]] std::uint32_t round() const noexcept { return round_; }
  /// start_round + round(): the position on the scenario's global clock.
  [[nodiscard]] std::uint32_t global_round() const noexcept {
    return scenario_.start_round + round_;
  }
  [[nodiscard]] Counters& counters() noexcept { return counters_; }
  [[nodiscard]] const Counters& counters() const noexcept { return counters_; }
  [[nodiscard]] const Scenario& scenario() const noexcept { return scenario_; }
  [[nodiscard]] const FaultSchedule& faults() const noexcept { return scenario_.faults; }
  [[nodiscard]] const Topology& topology() const noexcept { return scenario_.topology; }
  /// True when no sends or replies are queued for delivery (including
  /// delayed messages still in flight under a latency model).
  [[nodiscard]] bool quiescent() const noexcept {
    return outbox_.empty() && replies_.empty() && future_count_ == 0;
  }

  /// Per-node private randomness stream (constructed on first use; the
  /// seeded flags live in their own flat array so the pool stays SoA).
  [[nodiscard]] Rng& node_rng(NodeId v) noexcept {
    if (rng_seeded_[v] == 0) {
      node_rngs_[v] = rngs_.node_stream(v, purpose_);
      rng_seeded_[v] = 1;
    }
    return node_rngs_[v];
  }

  /// Samples a call target for `caller` from the scenario's topology: the
  /// random phone call primitive.  Uniform over all of V on the complete
  /// topology (crashed nodes can be sampled -- a call to a crashed node is
  /// simply lost); uniform over the caller's neighbors on an explicit one.
  /// A node whose scheduled join has not happened yet has no address
  /// anybody could dial, so unborn targets are resampled (bounded spin;
  /// mass-conserving protocols would otherwise leak shares into nodes
  /// that are not part of the system yet).  Without a join schedule the
  /// mask stays empty and not a single extra draw happens.
  [[nodiscard]] NodeId sample_peer(NodeId caller) noexcept {
    NodeId peer = scenario_.topology.sample_peer(caller, n_, node_rng(caller));
    if (!unborn_.empty()) {
      for (int spin = 0; spin < 16 && unborn_[peer]; ++spin)
        peer = scenario_.topology.sample_peer(caller, n_, node_rng(caller));
    }
    return peer;
  }

  /// Initiates a call: delivered at the delivery step it is scheduled for
  /// (this round from on_round, next round when forwarding), plus a
  /// per-message delay drawn from the latency model when one is active;
  /// lost with probability loss_prob at delivery time.  `bits` is the
  /// payload size for the O(log n + log s) message-size accounting.
  void send(NodeId src, NodeId dst, Msg m, std::uint32_t bits) {
    assert(dst < n_);
    counters_.sent += 1;
    counters_.bits += bits;
    if (latency_on_) {
      // Arrival = the round this send would legacy-deliver in, plus the
      // drawn delay.  Sends made during delivery or on_round_end target
      // the next round's step (the forwarding-costs-a-round accounting).
      const std::uint32_t base = (in_delivery_ || post_delivery_) ? round_ + 1 : round_;
      const std::uint32_t arrival = base + scenario_.faults.latency.draw(latency_rng_);
      if (arrival != round_) {
        future_[arrival % future_.size()].push_back(Envelope{src, dst, std::move(m)});
        ++future_count_;
        return;
      }
    }
    outbox_.push_back(Envelope{src, dst, std::move(m)});
  }

  /// Replies on an established call (only valid inside on_message).
  /// Reliable and delivered in the same round's reply step.
  void reply(NodeId src, NodeId dst, Msg m, std::uint32_t bits) {
    assert(in_delivery_ && "reply() is only valid while handling a delivery");
    counters_.sent += 1;
    counters_.bits += bits;
    replies_.push_back(Envelope{src, dst, std::move(m)});
  }

  /// Runs the protocol for at most max_rounds rounds; returns the number of
  /// rounds executed (== max_rounds unless proto.done() fired earlier).
  template <class P>
  std::uint32_t run(P& proto, std::uint32_t max_rounds) {
    std::uint32_t executed = 0;
    for (std::uint32_t r = 0; r < max_rounds; ++r) {
      step(proto);
      ++executed;
      if constexpr (requires { { proto.done(*this) } -> std::convertible_to<bool>; }) {
        if (proto.done(*this)) break;
      }
    }
    return executed;
  }

  /// Executes a single synchronous round (exposed for tests and for
  /// pipelines that interleave protocols).
  template <class P>
  void step(P& proto) {
    apply_scheduled_births(proto, global_round());
    apply_scheduled_deaths(global_round());
    ++counters_.rounds;
    const bool check_crash = alive_.size() != n_;  // crash-free fast path
    if constexpr (requires(NodeId v) { proto.on_round(*this, v); }) {
      for (NodeId v : upcall_set(proto)) {
        if (check_crash && crashed_[v]) continue;
        proto.on_round(*this, v);
      }
    }
    if (latency_on_) {
      // Delayed messages due this round deliver first: they were sent in
      // earlier rounds, so they precede this round's fresh calls -- the
      // same relative order the legacy outbox gives forwards vs. new
      // sends.  Sends made while delivering them land in the future ring
      // (arrival >= round_ + 1), never back in the batch being drained.
      auto& due = future_[round_ % future_.size()];
      future_count_ -= due.size();
      deliver_queue(proto, due, /*lossy=*/true, /*as_reply=*/false);
    }
    deliver_queue(proto, outbox_, /*lossy=*/true, /*as_reply=*/false);
    // Replies generated while delivering; drains until quiet so that a
    // reply chain within one established call completes this round.
    while (!replies_.empty()) {
      deliver_queue(proto, replies_, /*lossy=*/false, /*as_reply=*/true);
    }
    post_delivery_ = true;
    if constexpr (requires(NodeId v) { proto.on_round_end(*this, v); }) {
      for (NodeId v : upcall_set(proto)) {
        if (check_crash && crashed_[v]) continue;
        proto.on_round_end(*this, v);
      }
    }
    post_delivery_ = false;
    ++round_;
  }

 private:
  struct Envelope {
    NodeId src;
    NodeId dst;
    Msg msg;
  };

  /// The node set scanned for per-round upcalls: the protocol's declared
  /// active set when it has one, the full alive list otherwise.  Both are
  /// ascending, and the engine re-checks crashed_ per node, so the two
  /// scans produce identical observable behavior.
  template <class P>
  [[nodiscard]] std::span<const NodeId> upcall_set(P& proto) const noexcept {
    if constexpr (requires {
                    { proto.active_nodes() } -> std::convertible_to<std::span<const NodeId>>;
                  }) {
      return proto.active_nodes();
    } else {
      return {alive_.data(), alive_.size()};
    }
  }

  /// Revives every node whose scheduled birth round has arrived: it joins
  /// the alive set (sorted insert, preserving upcall order) and the
  /// protocol's optional on_join hook fires so the joiner can bootstrap
  /// state -- sends made from on_join are delivered this round.  Births
  /// run before deaths so a block outage scheduled at a node's own birth
  /// round still kills it.
  template <class P>
  void apply_scheduled_births(P& proto, std::uint32_t global_round) {
    if (next_birth_ >= pending_births_.size()) return;
    joined_now_.clear();
    while (next_birth_ < pending_births_.size() &&
           pending_births_[next_birth_].first <= global_round) {
      const NodeId v = pending_births_[next_birth_].second;
      ++next_birth_;
      crashed_[v] = 0;
      unborn_[v] = 0;
      alive_.insert(std::lower_bound(alive_.begin(), alive_.end(), v), v);
      joined_now_.push_back(v);
    }
    // Deaths scheduled for this same round (a block outage covering the
    // joiner) must fire before the join upcall, so apply them eagerly.
    apply_scheduled_deaths(global_round);
    if constexpr (requires(NodeId v) { proto.on_join(*this, v); }) {
      for (NodeId v : joined_now_) {
        if (crashed_[v] == 0) proto.on_join(*this, v);
      }
    }
  }

  /// Kills every node whose scheduled death round has arrived.  Runs at
  /// the top of each round, so a node dying at round r is absent from
  /// round r's upcalls and deliveries.
  void apply_scheduled_deaths(std::uint32_t global_round) {
    bool any = false;
    while (next_death_ < pending_deaths_.size() &&
           pending_deaths_[next_death_].first <= global_round) {
      crashed_[pending_deaths_[next_death_].second] = 1;
      ++next_death_;
      any = true;
    }
    if (any) {
      alive_.erase(std::remove_if(alive_.begin(), alive_.end(),
                                  [this](NodeId v) { return crashed_[v] != 0; }),
                   alive_.end());
    }
  }

  template <class P>
  void deliver_queue(P& proto, std::vector<Envelope>& queue, bool lossy, bool as_reply) {
    scratch_.swap(queue);  // sends made during delivery land in the next batch
    in_delivery_ = true;
    const bool coin = lossy && lossy_run_;
    const double loss_prob = scenario_.faults.loss_prob;
    // Drop counters are accumulated locally and flushed once: the handlers
    // bump counters_.sent through send(), so the compiler cannot keep the
    // members in registers across the upcalls.
    std::uint64_t delivered = 0;
    std::uint64_t lost = 0;
    const bool check_crash = alive_.size() != n_;
    // Partition cuts are evaluated at delivery time against the current
    // global round, so a delayed message crossing a since-healed cut gets
    // through and one arriving mid-partition is dropped.  The cut is
    // physical: it precedes (and so elides) the loss coin, and it applies
    // to replies too.
    const bool check_cut = partitioned_;
    const std::uint32_t g = global_round();
    for (Envelope& e : scratch_) {
      if ((check_crash && crashed_[e.dst]) || (check_cut && cut_now(g, e.src, e.dst)) ||
          (coin && loss_rng_.next_bernoulli(loss_prob))) {
        ++lost;
        continue;
      }
      ++delivered;
      if (as_reply) {
        if constexpr (requires { proto.on_reply(*this, e.src, e.dst, e.msg); }) {
          proto.on_reply(*this, e.src, e.dst, e.msg);
        } else if constexpr (requires { proto.on_message(*this, e.src, e.dst, e.msg); }) {
          proto.on_message(*this, e.src, e.dst, e.msg);
        }
      } else {
        if constexpr (requires { proto.on_message(*this, e.src, e.dst, e.msg); }) {
          proto.on_message(*this, e.src, e.dst, e.msg);
        }
      }
    }
    counters_.delivered += delivered;
    counters_.lost += lost;
    in_delivery_ = false;
    scratch_.clear();  // keeps capacity: steady-state rounds allocate nothing
  }

  [[nodiscard]] bool cut_now(std::uint32_t global_round, NodeId src,
                             NodeId dst) const noexcept {
    for (const PartitionEvent& p : scenario_.faults.partitions) {
      if (p.active_at(global_round) && p.cuts(src, dst)) return true;
    }
    return false;
  }

  std::uint32_t n_;
  Scenario scenario_;
  RngFactory rngs_;
  std::uint64_t purpose_;
  Rng loss_rng_;
  Rng latency_rng_;
  bool lossy_run_;
  bool latency_on_;
  bool partitioned_;
  std::vector<std::pair<std::uint32_t, NodeId>> pending_deaths_;  // sorted
  std::size_t next_death_ = 0;
  std::vector<std::pair<std::uint32_t, NodeId>> pending_births_;  // sorted
  /// Non-empty iff the schedule has joins; unborn_[v] = 1 until v's birth
  /// (sample_peer resamples these -- an unjoined node has no address).
  std::vector<std::uint8_t> unborn_;
  std::size_t next_birth_ = 0;
  std::vector<NodeId> joined_now_;  // this round's arrivals (pooled)
  std::vector<std::vector<Envelope>> future_;  // latency ring, slot = round % size
  std::size_t future_count_ = 0;
  std::vector<std::uint8_t> crashed_;  // flat byte array: branch-light delivery check
  std::vector<NodeId> alive_;
  std::vector<Rng> node_rngs_;            // flat SoA pool, lazily seeded...
  std::vector<std::uint8_t> rng_seeded_;  // ...per these flags
  std::vector<Envelope> outbox_;
  std::vector<Envelope> replies_;
  std::vector<Envelope> scratch_;  // pooled delivery batch (double buffer)
  Counters counters_{};
  std::uint32_t round_ = 0;
  bool in_delivery_ = false;
  bool post_delivery_ = false;  // inside on_round_end (latency base round)
};

}  // namespace drrg::sim
