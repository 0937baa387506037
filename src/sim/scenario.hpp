#pragma once
// sim::Scenario -- one run's environment: who can call whom (Topology) and
// who fails when (FaultSchedule), plus the global-clock offset that lets
// multi-phase pipelines thread a single fault schedule through per-phase
// Network instances.  Kept separate from engine.hpp so protocol headers
// can name Scenario in their signatures without the Network template.

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/counters.hpp"
#include "sim/topology.hpp"
#include "support/rng.hpp"

namespace drrg::sim {

using NodeId = std::uint32_t;

/// death round of a node that never crashes.
inline constexpr std::uint32_t kNeverCrashes = static_cast<std::uint32_t>(-1);

// Large-n width guards: the fault timelines index nodes with 32-bit ids
// and the two "never" sentinels must stay numerically interchangeable
// (timeline code compares death rounds against both).
static_assert(sizeof(NodeId) == 4, "fault timelines assume 32-bit node ids");
static_assert(kNeverCrashes == kNeverRound,
              "kNeverCrashes and kNeverRound must coincide");

/// One run's environment.  The implicit FaultSchedule conversion keeps the
/// historical call shape `run_xxx(n, ..., faults, config)` working: a plain
/// fault model is the scenario with the complete topology and a zero clock
/// offset.
struct Scenario {
  Topology topology{};
  FaultSchedule faults{};
  /// Global round at which this network's clock starts (multi-phase
  /// pipelines bump it by each phase's executed rounds so one churn
  /// schedule spans the whole execution).
  std::uint32_t start_round = 0;
  /// Unused: nothing reads it.  It was the worker budget for the engine's
  /// intra-round sharding, which was removed because it was no faster
  /// than the serial round loop below 2^24 nodes (README, "Scaling to
  /// millions of nodes").  It stays declared only while the benchmark
  /// driver (bench/e2e/drrg_bench.cpp) still assigns it.
  std::uint32_t intra_threads = 1;

  Scenario() = default;
  Scenario(FaultSchedule f) : faults(std::move(f)) {}  // NOLINT(google-explicit-constructor)
  Scenario(Topology t, FaultSchedule f) : topology(std::move(t)), faults(std::move(f)) {}

  /// Copy of this scenario with the clock advanced to global round `r`.
  [[nodiscard]] Scenario at_round(std::uint32_t r) const {
    Scenario s = *this;
    s.start_round = r;
    return s;
  }
};

/// birth round of a node present from the start.
inline constexpr std::uint32_t kBornAtStart = 0;

/// Death and birth timelines together: death[v] as in fault_timeline;
/// birth[v] == 0 iff v is present from round 0, r > 0 iff v joins at the
/// start of global round r (absent -- effectively crashed -- before it).
struct FaultTimeline {
  std::vector<std::uint32_t> death;
  std::vector<std::uint32_t> birth;
};

namespace detail {
/// Rejection-sampling draw cap.  Uniform draws over n with k free slots
/// succeed with probability k/n, so for every schedule the validation
/// layer admits (fractions in [0, 1], cumulative targets capped by the
/// >=1-survivor guards) the expected draw count is O(n log n) and a run
/// exhausting 32n + 1024 draws has vanishing probability -- none of the
/// pinned seeds comes near it.  When a pathological schedule does exhaust
/// the cap, the remaining quota is filled by a deterministic ascending id
/// scan instead of spinning: termination is unconditional, and every
/// schedule that completes within the cap keeps its historical draw
/// sequence bit-identically.
[[nodiscard]] constexpr std::uint64_t draw_cap(std::uint32_t n) noexcept {
  return 32ULL * n + 1024ULL;
}
}  // namespace detail

/// The full death+birth timeline every Network sharing `rngs` draws.
/// A pure function of the root seed (purpose-independent) so that all
/// phases of a multi-phase pipeline -- and result adapters that need
/// survivor ground truth for algorithms whose outcome struct carries no
/// alive mask -- agree on the same sets.
///
/// Draw-order contract (what keeps historical schedules bit-identical):
/// join births come first, from their own engine stream (0xb117), so a
/// schedule without joins draws nothing there; then initial crashes and
/// churn from the historical crash stream (0xdead), with the original
/// draw sequence -- the birth-skip condition only fires for deferred ids,
/// of which there are none without joins.  Block events select
/// arithmetically (no draws).  Random crash victims are drawn from the
/// round-0 cohort only; block outages may also take out an already-joined
/// node.
[[nodiscard]] inline FaultTimeline full_timeline(std::uint32_t n, const RngFactory& rngs,
                                                 const FaultSchedule& faults) {
  FaultTimeline t;
  t.death.assign(n, kNeverCrashes);
  t.birth.assign(n, kBornAtStart);
  if (faults.crash_fraction <= 0.0 && faults.churn.empty() && faults.blocks.empty() &&
      faults.joins.empty()) {
    return t;
  }
  std::vector<std::uint32_t>& death = t.death;
  std::vector<std::uint32_t>& birth = t.birth;
  const std::uint64_t cap = detail::draw_cap(n);

  // 1. Births (join stream; no-op without join events).
  std::uint32_t deferred = 0;
  if (!faults.joins.empty()) {
    Rng join_rng = rngs.engine_stream(0xb117ULL);
    std::vector<JoinEvent> joins = faults.joins;
    std::stable_sort(joins.begin(), joins.end(),
                     [](const JoinEvent& a, const JoinEvent& b) { return a.round < b.round; });
    for (const JoinEvent& e : joins) {
      if (e.fraction <= 0.0) continue;
      const std::uint32_t round = std::max<std::uint32_t>(e.round, 1);
      const auto target =
          static_cast<std::uint32_t>(e.fraction * static_cast<double>(n));
      std::uint32_t count = 0;
      std::uint64_t draws = 0;
      while (count < target && deferred < n - 1 && draws < cap) {
        ++draws;
        const auto v = static_cast<NodeId>(join_rng.next_below(n));
        if (birth[v] == kBornAtStart) {
          birth[v] = round;
          ++count;
          ++deferred;
        }
      }
      for (NodeId v = 0; count < target && deferred < n - 1 && v < n; ++v) {
        if (birth[v] == kBornAtStart) {
          birth[v] = round;
          ++count;
          ++deferred;
        }
      }
    }
  }

  // 2. Initial crashes (historical crash stream and sequence; the birth
  //    skip only rejects deferred ids).
  Rng crash_rng = rngs.engine_stream(0xdeadULL);
  std::uint32_t alive = n - deferred;
  if (faults.crash_fraction > 0.0) {
    const auto target =
        static_cast<std::uint32_t>(faults.crash_fraction * static_cast<double>(n));
    std::uint32_t count = 0;
    std::uint64_t draws = 0;
    while (count < target && count < n - 1 && alive > 1 && draws < cap) {
      ++draws;
      const auto v = static_cast<NodeId>(crash_rng.next_below(n));
      if (death[v] == kNeverCrashes && birth[v] == kBornAtStart) {
        death[v] = 0;
        ++count;
        --alive;
      }
    }
    for (NodeId v = 0; count < target && count < n - 1 && alive > 1 && v < n; ++v) {
      if (death[v] == kNeverCrashes && birth[v] == kBornAtStart) {
        death[v] = 0;
        ++count;
        --alive;
      }
    }
  }

  // 3. Scheduled events in round order.  Joins bump the alive count at
  //    their round (so later churn fractions see arrivals); churn draws
  //    random victims; blocks kill their ranges arithmetically.  At equal
  //    rounds: joins, then churn, then blocks -- and with no blocks/joins
  //    the churn walk is the historical one.
  std::vector<CrashEvent> events = faults.churn;
  std::stable_sort(events.begin(), events.end(),
                   [](const CrashEvent& a, const CrashEvent& b) { return a.round < b.round; });
  std::vector<BlockCrashEvent> blocks = faults.blocks;
  std::stable_sort(blocks.begin(), blocks.end(),
                   [](const BlockCrashEvent& a, const BlockCrashEvent& b) {
                     return a.round < b.round;
                   });
  std::vector<std::pair<std::uint32_t, std::uint32_t>> join_counts;  // (round, count)
  for (NodeId v = 0; v < n; ++v) {
    if (birth[v] != kBornAtStart) join_counts.push_back({birth[v], 1});
  }
  std::sort(join_counts.begin(), join_counts.end());
  std::size_t next_join = 0, next_block = 0;
  auto advance_to = [&](std::uint32_t round) {
    while (next_join < join_counts.size() && join_counts[next_join].first <= round) {
      alive += join_counts[next_join].second;
      ++next_join;
    }
  };
  auto apply_blocks_through = [&](std::uint32_t round) {
    while (next_block < blocks.size() && blocks[next_block].round <= round) {
      const BlockCrashEvent& b = blocks[next_block];
      advance_to(b.round);
      for (NodeId v = b.lo; v < b.hi && v < n; ++v) {
        if (alive <= 1) break;  // never take out the last node
        if (b.covers(v) && death[v] == kNeverCrashes && birth[v] <= b.round) {
          death[v] = b.round;
          --alive;
        }
      }
      ++next_block;
    }
  };
  for (const CrashEvent& e : events) {
    if (e.fraction <= 0.0) continue;
    const std::uint32_t round = std::max<std::uint32_t>(e.round, 1);
    advance_to(round);
    apply_blocks_through(round == 0 ? 0 : round - 1);
    const auto target =
        static_cast<std::uint32_t>(e.fraction * static_cast<double>(alive));
    std::uint32_t count = 0;
    std::uint64_t draws = 0;
    while (count < target && alive > 1 && draws < cap) {
      ++draws;
      const auto v = static_cast<NodeId>(crash_rng.next_below(n));
      if (death[v] == kNeverCrashes && birth[v] == kBornAtStart) {
        death[v] = round;
        ++count;
        --alive;
      }
    }
    for (NodeId v = 0; count < target && alive > 1 && v < n; ++v) {
      if (death[v] == kNeverCrashes && birth[v] == kBornAtStart) {
        death[v] = round;
        ++count;
        --alive;
      }
    }
  }
  apply_blocks_through(kNeverRound - 1);
  return t;
}

/// The death timeline alone (historical shape): death_round[v] == 0 iff v
/// is down from the start, r > 0 iff v crashes at the start of global
/// round r, kNeverCrashes iff v survives the schedule.  The initial-crash
/// draw sequence is identical to the historical crash_mask.
[[nodiscard]] inline std::vector<std::uint32_t> fault_timeline(
    std::uint32_t n, const RngFactory& rngs, const FaultSchedule& faults) {
  return full_timeline(n, rngs, faults).death;
}

/// The start-time crash set alone (historical helper): crashed[v] == true
/// iff node v is down from round 0.
[[nodiscard]] inline std::vector<bool> crash_mask(std::uint32_t n, const RngFactory& rngs,
                                                  double crash_fraction) {
  std::vector<bool> crashed(n, false);
  if (crash_fraction <= 0.0) return crashed;
  Rng crash_rng = rngs.engine_stream(0xdeadULL);
  const auto target = static_cast<std::uint32_t>(crash_fraction * static_cast<double>(n));
  std::uint32_t count = 0;
  while (count < target && count < n - 1) {  // keep >= 1 node alive
    const auto v = static_cast<NodeId>(crash_rng.next_below(n));
    if (!crashed[v]) {
      crashed[v] = true;
      ++count;
    }
  }
  return crashed;
}

/// Final survivors of the schedule as seen by a run that executed
/// `rounds_executed` global rounds: participating[v] == true iff v was
/// still alive when the run ended (a churn event scheduled beyond the
/// run's horizon never fired, so its would-be victims did participate)
/// AND v had joined by then (a joiner whose birth round lies beyond the
/// horizon never arrived).  The default horizon covers the whole
/// schedule.  This is the RunReport.participating ground truth for
/// algorithms that do not track crashes themselves.
[[nodiscard]] inline std::vector<bool> survivor_mask(
    std::uint32_t n, const RngFactory& rngs, const FaultSchedule& faults,
    std::uint32_t rounds_executed = kNeverCrashes) {
  const FaultTimeline t = full_timeline(n, rngs, faults);
  std::vector<bool> participating(n, true);
  for (std::uint32_t v = 0; v < n; ++v)
    participating[v] = t.death[v] >= rounds_executed && t.birth[v] < rounds_executed;
  return participating;
}

/// The round-0 cohort that survived: like survivor_mask but excluding
/// every late joiner regardless of birth round.  Tree-building pipelines
/// (DRR/convergecast) fix their membership -- and their ground truth --
/// in Phase I; a node arriving later can carry routed traffic but holds
/// no input value, so it is not part of the aggregate.
[[nodiscard]] inline std::vector<bool> founder_mask(
    std::uint32_t n, const RngFactory& rngs, const FaultSchedule& faults,
    std::uint32_t rounds_executed = kNeverCrashes) {
  const FaultTimeline t = full_timeline(n, rngs, faults);
  std::vector<bool> participating(n, true);
  for (std::uint32_t v = 0; v < n; ++v)
    participating[v] = t.death[v] >= rounds_executed && t.birth[v] == kBornAtStart;
  return participating;
}

}  // namespace drrg::sim
