#pragma once
// Hop-by-hop substrate routing for the §4 sparse pipeline's Phase III.
//
// On a sparse substrate a root cannot call a random node directly: the
// call is *routed* (Assumption 2), and every logical G~ edge expands into
// real overlay hops.  This header gives the Phase III protocols the two
// verbs that expansion needs, with the per-message routing state kept as a
// small POD that travels inside the engine envelope -- so mid-run churn,
// per-hop loss and the round clock of sim::Network apply to every
// intermediate hop, exactly as they do for chord-uniform:
//
//   * begin_random(src)    -- start an Assumption-2 near-uniform sample;
//   * begin_directed(dst)  -- start a route to a specific known node (the
//                             non-address-oblivious reply step);
//   * next_hop(at, state)  -- advance one overlay hop; `at` unchanged
//                             means the route has arrived;
//   * resolve(src, state)  -- the whole route at once, endpoint and hop
//                             count, for a keyed route with every node
//                             alive (the fault-free event-time Phase III).
//
// Three samplers cover the substrate families:
//
//   * Chord overlay: greedy finger routing of a uniformly random key,
//     then a successor smear of j in [0, S) steps (the King et al. [10]
//     substitute documented in chord.hpp) -- O(log n) hops, near-uniform;
//   * grid / torus: row-then-column coordinate routing to an *exactly*
//     uniform random node id (torus wraps pick the shorter direction) --
//     O(diam) hops;
//   * everything else (random-regular, chord-ring-as-graph, ...): a
//     random walk of Theta(log n) steps; on the expander-like substrates
//     this family serves, the walk mixes to near-uniform.
//
// Directed routes exist for Chord (route to the target's ring id) and
// grids (route to the target's coordinates).  Walk substrates have no
// keyed routing scheme, so begin_directed degenerates to a single
// point-to-point send -- the established-connection convention the engine
// already uses for Algorithm 4's "reply directly to the inquiring root"
// (see sim/topology.hpp).

#include <cstdint>

#include "chord/chord.hpp"
#include "sim/topology.hpp"
#include "support/rng.hpp"

namespace drrg {

/// Liveness oracle for fault-aware routing: Chord hops detour around
/// crashed fingers/successors, modelling the overlay's stabilization
/// (each node pings its neighbors and repairs its successor pointers --
/// the successor-list guarantee of Stoica et al. [25]).  A default view
/// treats everyone as alive.  The Phase III protocols wrap the engine's
/// alive set; the pair is cheaper than a std::function on the hop path.
struct LivenessView {
  const void* ctx = nullptr;
  bool (*fn)(const void*, NodeId) = nullptr;
  [[nodiscard]] bool operator()(NodeId v) const {
    return fn == nullptr || fn(ctx, v);
  }
};

/// Per-message routing state (24 bytes, POD).  In the Chord modes `owner`
/// caches the key's *static* owner, resolved once at begin_* time:
/// owner_of_key is a pure function of the overlay, so hoisting its
/// ring-index lookup off the per-hop path is observationally invisible
/// (the stabilized liveness walk starts from the same static owner it
/// always did), and each hop only compares its holder with it.  In kGrid
/// the same two spare fields drive the perimeter detour: `owner` holds
/// the previous carrier (backtrack avoidance) and `steps` a
/// hop TTL -- both ignored by the crash-free fast hop, so setting them at
/// begin_* time is equally invisible.  The engine charges message size
/// through the explicit `bits` argument of send(), never sizeof, so the
/// wider state leaves every counter untouched.
struct RouteState {
  enum class Mode : std::uint8_t {
    kDone,        ///< arrived: the current holder is the route's endpoint
    kChordRoute,  ///< greedy finger routing toward `target` (a ring key)
    kChordSmear,  ///< successor walk, `steps` left
    kGrid,        ///< coordinate routing toward node id `target`
    kWalk,        ///< random walk, `steps` left
    kStranded,    ///< gave up en route (dead target / boxed in / TTL out):
                  ///< the holder is NOT the endpoint -- drop, or re-home
                  ///< under the push-sum carry-ack
  };
  std::uint64_t target = 0;
  std::uint32_t steps = 0;
  NodeId owner = 0;  ///< static key owner (kChord*) / previous carrier (kGrid)
  Mode mode = Mode::kDone;
};

/// Where a route ends and how many overlay hops it takes to get there.
struct RouteEnd {
  NodeId at = 0;
  std::uint32_t hops = 0;
};

class SparseRouter {
 public:
  /// Routes on a Chord overlay (the chord-drr family).
  [[nodiscard]] static SparseRouter on_chord(const ChordOverlay& chord);

  /// Routes on an explicit substrate: coordinate routing when the
  /// topology is a recorded lattice (Topology::of_grid), a Theta(log n)
  /// random walk otherwise.  The topology must be explicit.
  [[nodiscard]] static SparseRouter on_substrate(const sim::Topology& topology);

  /// Starts an Assumption-2 near-uniform sample from `src`, drawing the
  /// route's randomness (key + smear / target id / nothing) from `rng`.
  [[nodiscard]] RouteState begin_random(NodeId src, Rng& rng) const;

  /// Starts a route to the known node `dst`.  Mode kDone means the
  /// substrate has no keyed routing: deliver with one direct send.
  [[nodiscard]] RouteState begin_directed(NodeId dst) const;

  /// Advances the route one overlay hop from its current holder `at`;
  /// draws from `rng` (the holder's stream) only in kWalk mode.  Chord
  /// hops consult `alive` and detour around crashed nodes (stabilized
  /// overlay); lattice hops sidestep a dead static hop greedily around
  /// the obstacle's perimeter (see next_hop_live); walk hops are static
  /// -- a dead carrier kills the delivery, exactly like any other lost
  /// hop.  Returns the next carrier, or `at` itself when the route has
  /// ended (the state is then kDone on arrival, kStranded on a give-up).
  [[nodiscard]] NodeId next_hop(NodeId at, RouteState& state, Rng& rng,
                                const LivenessView& alive = {}) const;

  /// Crash-free fast hop for the keyed modes (kChordRoute / kChordSmear /
  /// kGrid): no liveness oracle (the function-pointer detour logic is
  /// compiled out, not just short-circuited), flat successor loads, and
  /// Chord finger selection that starts at finger floor(log2 d), d being
  /// the key's clockwise distance from the holder (no higher finger can
  /// precede the key), and scans down past the fingers equal to it --
  /// one comparison on most hops.  Step-for-step identical to next_hop
  /// under an all-alive view -- the dispatch predicate is
  /// FaultSchedule::crash_free().
  /// Precondition: state.mode != kWalk (walks draw per-hop randomness and
  /// go through next_hop).
  [[nodiscard]] NodeId next_hop_fast(NodeId at, RouteState& state) const noexcept;

  /// Liveness-aware hop for the keyed modes: the stabilized-detour path of
  /// next_hop without the unused Rng parameter, so forwarding a chord/grid
  /// envelope does not touch the holder's RNG slot.  kGrid routes detour
  /// greedily around dead lattice nodes: when the static coordinate hop is
  /// dead, the remaining axial neighbors are tried in toward-target-first
  /// order (avoiding an immediate backtrack unless forced), under a hop
  /// TTL; a dead target, a boxed-in carrier or an exhausted TTL ends the
  /// route as kStranded at the current holder.  Precondition: state.mode
  /// != kWalk.
  [[nodiscard]] NodeId next_hop_live(NodeId at, RouteState& state,
                                     const LivenessView& alive) const;

  /// True when routes are keyed (Chord, grid, torus): a route is a pure
  /// function of its start state and the liveness view, and draws no
  /// randomness per hop.  Walk substrates are not keyed.
  [[nodiscard]] bool keyed() const noexcept { return chord_ != nullptr || cols_ != 0; }

  /// The endpoint and hop count of a keyed route from `src` with every node
  /// alive: what stepping next_hop_fast until it returns its holder gives,
  /// without the per-hop dispatch.  The greedy finger walk still takes one
  /// finger lookup per hop; the successor smear is one ring-index lookup,
  /// and a lattice route is its row distance plus its column distance (a
  /// torus dimension takes the shorter way round).  Precondition: keyed(),
  /// and `state` is as begin_random or begin_directed returned it.
  [[nodiscard]] RouteEnd resolve(NodeId src, const RouteState& state) const noexcept;

  /// Generous upper bound on the hops of any single route this router can
  /// emit (drain horizons are sized from it).
  [[nodiscard]] std::uint32_t max_route_hops() const noexcept;

  /// Expected hops of a begin_random route (the pipeline's latency
  /// estimate: routed push-sum scales its initiation window by
  /// 1 + typical/log2 n so the delayed shares still complete the paper's
  /// O(log n) mixing generations).
  [[nodiscard]] std::uint32_t typical_route_hops() const noexcept;

 private:
  /// kGrid hop TTL: the detour budget a route may burn walking around
  /// dead regions before it gives up (kStranded).  Twice the worst static
  /// path plus slack.
  [[nodiscard]] std::uint32_t grid_ttl() const noexcept {
    return 2 * (rows_ + cols_) + 16;
  }

  const ChordOverlay* chord_ = nullptr;
  std::uint32_t n_ = 0;
  std::uint32_t rows_ = 0, cols_ = 0;  // lattice layout (kGrid)
  bool torus_ = false;
  std::uint32_t walk_len_ = 0;  // kWalk length
  sim::Topology::PeerSampler sampler_{};
};

}  // namespace drrg
