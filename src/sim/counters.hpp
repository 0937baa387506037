#pragma once
// Message/round accounting.  The paper's claims are *counts*: rounds used
// and messages sent.  Every send is tallied here, including messages that
// the fault model subsequently drops (a lost message still consumed
// bandwidth, which is what message complexity measures).

#include <cstdint>
#include <utility>
#include <vector>

#include "support/rng.hpp"

namespace drrg::sim {

/// Sentinel round for events that never fire (a partition that never
/// heals).  Matches kNeverCrashes in scenario.hpp numerically.
inline constexpr std::uint32_t kNeverRound = static_cast<std::uint32_t>(-1);

struct Counters {
  std::uint64_t sent = 0;       ///< messages handed to the network
  std::uint64_t delivered = 0;  ///< messages that reached a live node
  std::uint64_t lost = 0;       ///< dropped by the loss model or dead target
  std::uint64_t bits = 0;       ///< total payload bits sent
  std::uint32_t rounds = 0;     ///< synchronous rounds executed

  constexpr Counters& operator+=(const Counters& o) noexcept {
    sent += o.sent;
    delivered += o.delivered;
    lost += o.lost;
    bits += o.bits;
    rounds += o.rounds;
    return *this;
  }

  constexpr void reset() noexcept { *this = Counters{}; }
};

/// One scheduled churn event: at the start of global round `round` a
/// `fraction` of the then-alive nodes crash (selected deterministically
/// from the engine's crash stream).  A node that crashes at round r takes
/// part in rounds 0..r-1 and is gone from round r on: it neither sends
/// nor receives, and in-flight messages to it are lost.
struct CrashEvent {
  std::uint32_t round = 0;
  double fraction = 0.0;
};

/// Correlated ("rack-shaped") outage: at the start of `round`, every node
/// in [lo, hi) whose offset satisfies (v - lo) % stride < width crashes.
/// stride == 0 (the default) takes out the whole contiguous range; the
/// stride/width form expresses a grid rectangle on a row-major lattice
/// (lo = r0*cols + c0, hi = r1*cols, stride = cols, width = c1 - c0).
/// Selection is purely arithmetic: a block event draws no randomness, so
/// adding one cannot perturb any other stream.
struct BlockCrashEvent {
  std::uint32_t round = 0;
  std::uint32_t lo = 0;
  std::uint32_t hi = 0;
  std::uint32_t stride = 0;
  std::uint32_t width = 0;

  [[nodiscard]] bool covers(std::uint32_t v) const noexcept {
    if (v < lo || v >= hi) return false;
    return stride == 0 || (v - lo) % stride < width;
  }
};

/// Network partition: from the start of `round` until the start of
/// `heal_round`, every message whose endpoints straddle `boundary`
/// (src < boundary XOR dst < boundary) is dropped by the engine --
/// replies included, the cut is physical.  Nodes stay alive; on a
/// row-major lattice boundary = r*cols slices between rows r-1 and r.
/// heal_round == kNeverRound never heals.
struct PartitionEvent {
  std::uint32_t round = 0;
  std::uint32_t heal_round = kNeverRound;
  std::uint32_t boundary = 0;

  [[nodiscard]] bool active_at(std::uint32_t global_round) const noexcept {
    return global_round >= round && global_round < heal_round;
  }
  [[nodiscard]] bool cuts(std::uint32_t src, std::uint32_t dst) const noexcept {
    return (src < boundary) != (dst < boundary);
  }
};

/// Mid-run arrival: at the start of `round`, a `fraction` of the id space
/// joins.  Joiners are ids deferred out of the round-0 cohort (selected
/// deterministically from the engine's join stream); until their birth
/// round they neither send nor receive and messages to them are lost,
/// exactly like crashed nodes.  On joining they bootstrap protocol state
/// from a live peer (the protocols' on_join upcall).
struct JoinEvent {
  std::uint32_t round = 0;
  double fraction = 0.0;
};

/// Per-link latency distribution.  A call sent in round t is delivered at
/// the delivery step of round t + d, d drawn per message from the engine's
/// latency stream.  d == 0 for every message reproduces the historical
/// lockstep schedule exactly -- and when the model is zero() the engine
/// draws nothing at all, keeping the latency-free path byte-identical.
/// Replies ride the already-established call and stay same-round reliable:
/// latency models call setup, not the answer on an open link.
struct LatencyModel {
  enum class Kind : std::uint8_t {
    kZero = 0,     ///< no extra delay (historical behavior)
    kFixed,        ///< every call delayed exactly min_delay rounds
    kUniform,      ///< delay uniform in [min_delay, max_delay]
    kHeavyTail,    ///< min_delay, but with prob tail_prob a straggler
                   ///< uniform in [min_delay, max_delay]
  };

  Kind kind = Kind::kZero;
  std::uint32_t min_delay = 0;
  std::uint32_t max_delay = 0;
  double tail_prob = 0.0;

  bool operator==(const LatencyModel&) const = default;

  [[nodiscard]] bool zero() const noexcept {
    return kind == Kind::kZero || bound() == 0;
  }
  /// Largest delay the model can produce (sizes the engine's future ring).
  [[nodiscard]] std::uint32_t bound() const noexcept {
    return kind == Kind::kFixed ? min_delay
           : kind == Kind::kZero ? 0
                                 : max_delay;
  }
  /// Expected delay, for round-budget scaling.
  [[nodiscard]] double mean() const noexcept {
    switch (kind) {
      case Kind::kZero: return 0.0;
      case Kind::kFixed: return min_delay;
      case Kind::kUniform: return (min_delay + max_delay) / 2.0;
      case Kind::kHeavyTail:
        return min_delay + tail_prob * (max_delay - min_delay) / 2.0;
    }
    return 0.0;
  }
  /// One per-message delay draw.  Only called when !zero().
  [[nodiscard]] std::uint32_t draw(Rng& rng) const noexcept {
    switch (kind) {
      case Kind::kZero: return 0;
      case Kind::kFixed: return min_delay;
      case Kind::kUniform:
        return min_delay + static_cast<std::uint32_t>(
                               rng.next_below(max_delay - min_delay + 1ULL));
      case Kind::kHeavyTail:
        if (!rng.next_bernoulli(tail_prob)) return min_delay;
        return min_delay + static_cast<std::uint32_t>(
                               rng.next_below(max_delay - min_delay + 1ULL));
    }
    return 0;
  }
};

/// Fault model of §2, generalised to a *schedule*: a fraction of nodes may
/// crash before the algorithm starts, further fractions may crash at
/// scheduled rounds mid-run (churn), and each *call-initiating* message is
/// lost independently with probability loss_prob.  Replies on an
/// established call are reliable, matching "once a call is established ...
/// information can be exchanged in both directions along the link".  The
/// paper assumes static start-time crashes only (empty `churn`) and
/// 1/log n < δ < 1/8.
struct FaultSchedule {
  double loss_prob = 0.0;
  double crash_fraction = 0.0;
  /// Mid-run crash events, applied in round order.  Rounds are *global*:
  /// multi-phase pipelines thread an accumulated round offset through
  /// their phases so one schedule spans the whole execution.
  std::vector<CrashEvent> churn;
  /// Correlated outages (rack / grid-rectangle), applied in round order
  /// interleaved with `churn` on the same global clock.
  std::vector<BlockCrashEvent> blocks;
  /// Substrate cuts with optional heal rounds.
  std::vector<PartitionEvent> partitions;
  /// Mid-run arrivals (bidirectional churn).
  std::vector<JoinEvent> joins;
  /// Per-link latency distribution (event-time delivery).
  LatencyModel latency{};

  FaultSchedule() = default;
  /// Link loss plus static start-time crashes, optionally with churn.
  FaultSchedule(double loss, double crash, std::vector<CrashEvent> events = {})
      : loss_prob(loss), crash_fraction(crash), churn(std::move(events)) {}

  [[nodiscard]] bool has_churn() const noexcept { return !churn.empty(); }
  [[nodiscard]] bool has_blocks() const noexcept { return !blocks.empty(); }
  [[nodiscard]] bool has_partitions() const noexcept { return !partitions.empty(); }
  [[nodiscard]] bool has_joins() const noexcept { return !joins.empty(); }

  /// True when the schedule is exactly §2's fault model: each call lost
  /// independently with probability loss_prob, and a crash set fixed at
  /// round 0 -- no churn, blocks, joins, partitions or latency (a
  /// fault-free schedule qualifies).  This is the dispatch predicate for
  /// the flat lockstep executors -- run_drr_flat, run_convergecast_flat,
  /// run_broadcast_flat and Phase III's run_flat_root_gossip (gossip-max,
  /// data-spread and push-sum), which resolve both faults inline through
  /// sim::CallFaults: under it, the generic engine path and the flat path
  /// are step-for-step equivalent, so keep it the single source of truth
  /// when extending the fault model.  sim::Network keeps the structured
  /// adversity a lockstep loop cannot express.
  [[nodiscard]] bool paper_model() const noexcept {
    return !has_churn() && !has_blocks() && !has_partitions() && !has_joins() &&
           latency.zero();
  }

  /// True when the schedule never kills a node and none arrives late (loss,
  /// latency and partitions may still drop or delay messages).  This is the
  /// dispatch predicate for the routed crash-free fast path: with every
  /// node alive for the whole run, the stabilized liveness detours are
  /// identities, so routing can skip the liveness oracle entirely.  Loss is
  /// irrelevant to it -- a lossy-but-crash-free run drops envelopes in the
  /// engine's delivery step, never en route.
  [[nodiscard]] bool crash_free() const noexcept {
    return crash_fraction <= 0.0 && !has_churn() && !has_blocks() && !has_joins();
  }
};

}  // namespace drrg::sim
