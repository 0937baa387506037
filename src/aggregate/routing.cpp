#include "aggregate/routing.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>

#include "support/mathutil.hpp"

namespace drrg {

SparseRouter SparseRouter::on_chord(const ChordOverlay& chord) {
  SparseRouter r;
  r.chord_ = &chord;
  r.n_ = chord.size();
  return r;
}

SparseRouter SparseRouter::on_substrate(const sim::Topology& topology) {
  if (topology.is_complete())
    throw std::invalid_argument("SparseRouter: substrate topology must be explicit");
  SparseRouter r;
  r.n_ = topology.size();
  if (topology.is_grid()) {
    r.rows_ = topology.grid_rows();
    r.cols_ = topology.grid_cols();
    r.torus_ = topology.grid_torus();
  } else {
    // Walk length: on a constant-spectral-gap substrate the walk is within
    // O(1/n) of uniform after O(log n) steps; the factor 2 buys slack for
    // the moderately-expanding families without changing the O(log n) hop
    // bill Theorem 14 charges per G~ edge.
    r.walk_len_ = std::max<std::uint32_t>(8, 2 * ceil_log2(topology.size()));
    r.sampler_ = topology.sampler(topology.size());
  }
  return r;
}

namespace {
/// No-previous-carrier sentinel for the kGrid detour state.
constexpr NodeId kNoPrev = static_cast<NodeId>(-1);
}  // namespace

RouteState SparseRouter::begin_random(NodeId src, Rng& rng) const {
  RouteState st;
  if (chord_ != nullptr) {
    st.mode = RouteState::Mode::kChordRoute;
    st.target = rng.next_below(chord_->ring_size());
    st.steps = static_cast<std::uint32_t>(rng.next_below(chord_->smear_width()));
    st.owner = chord_->owner_of_key(st.target);
    return st;
  }
  if (cols_ != 0) {
    st.mode = RouteState::Mode::kGrid;
    st.target = rng.next_below(n_);  // exactly uniform over V
    st.steps = grid_ttl();           // detour budget (fast hops ignore it)
    st.owner = kNoPrev;
    return st;
  }
  st.mode = RouteState::Mode::kWalk;
  st.steps = walk_len_;
  (void)src;
  return st;
}

RouteState SparseRouter::begin_directed(NodeId dst) const {
  RouteState st;
  if (chord_ != nullptr) {
    // Greedy routing on dst's own ring id lands exactly on dst.
    st.mode = RouteState::Mode::kChordRoute;
    st.target = chord_->id_of(dst);
    st.owner = dst;
    return st;
  }
  if (cols_ != 0) {
    st.mode = RouteState::Mode::kGrid;
    st.target = dst;
    st.steps = grid_ttl();
    st.owner = kNoPrev;
    return st;
  }
  return st;  // kDone: single point-to-point send
}

namespace {

/// (to - from) clockwise on a power-of-two ring.
[[nodiscard]] std::uint64_t ring_dist(std::uint64_t from, std::uint64_t to,
                                      std::uint64_t ring) noexcept {
  return (to - from) & (ring - 1);
}

/// First alive node clockwise after v (stabilized successor pointer).
[[nodiscard]] NodeId successor_live(const ChordOverlay& chord, NodeId v,
                                    const LivenessView& alive) {
  NodeId s = chord.successor(v);
  for (std::uint32_t guard = 0; guard < chord.size() && !alive(s); ++guard)
    s = chord.successor(s);
  return s;
}

/// The alive node owning the route's key on the stabilized ring: the
/// cached static owner, or its first alive successor when the owner
/// crashed.  Starting from RouteState::owner instead of re-running
/// owner_of_key keeps the per-hop path free of ring lookups while
/// walking the exact successor chain the recomputation would.
[[nodiscard]] NodeId owner_live(const ChordOverlay& chord, NodeId static_owner,
                                const LivenessView& alive) {
  NodeId o = static_owner;
  for (std::uint32_t guard = 0; guard < chord.size() && !alive(o); ++guard)
    o = chord.successor(o);
  return o;
}

/// Greedy Chord step on the stabilized overlay: the closest preceding
/// *alive* finger, else the alive successor chain.  Reduces to the static
/// greedy step when everyone is alive.
[[nodiscard]] NodeId chord_next_hop_live(const ChordOverlay& chord, NodeId v,
                                         const RouteState& state,
                                         const LivenessView& alive) {
  if (owner_live(chord, state.owner, alive) == v) return v;
  const std::uint64_t ring = chord.ring_size();
  const std::uint64_t dv = ring_dist(chord.id_of(v), state.target, ring);
  for (std::uint32_t k = chord.ring_bits(); k-- > 0;) {
    const NodeId c = chord.finger(v, k);
    if (c == v || !alive(c)) continue;
    const std::uint64_t dc = ring_dist(chord.id_of(c), state.target, ring);
    if (dc < dv) return c;  // fingers are scanned longest-jump first
  }
  return successor_live(chord, v, alive);
}

/// Crash-free greedy Chord step: the farthest finger at clockwise distance
/// <= dv.  For a finger c != v, ring_dist(id_c, key) < dv  <=>
/// ring_dist(id_v, id_c) <= dv (subtracting the finger offset modulo the
/// ring), so this selects exactly the finger the longest-jump-first
/// liveness scan would with everyone alive.  Finger k is the first node at
/// distance >= 2^k, so the fingers above K = floor(log2 dv) all lie past
/// the key, and finger K is the only candidate at distance >= 2^K.  When
/// it overshoots (or is v itself), every lower finger that differs from it
/// sits below 2^K <= dv: the answer is the first such finger scanning
/// down, else the successor (finger 0).
[[nodiscard]] NodeId chord_next_hop_fast(const ChordOverlay& chord, NodeId v,
                                         std::uint64_t key) noexcept {
  const std::uint64_t ring = chord.ring_size();
  const std::uint64_t dv = ring_dist(chord.id_of(v), key, ring);
  if (dv == 0) return chord.successor(v);  // v owns the key; callers stop first
  const NodeId* fingers = chord.finger_row(v);
  auto k = static_cast<std::uint32_t>(std::bit_width(dv)) - 1;
  const NodeId top = fingers[k];
  if (top != v && ring_dist(chord.id_of(v), chord.id_of(top), ring) <= dv) return top;
  if (top == fingers[0]) return top;  // the successor overshoots: last hop
  while (fingers[k - 1] == top) --k;  // ends at finger 0 at the latest
  return fingers[k - 1];
}

/// One coordinate-routing step toward node id `target` (row first, then
/// column).  Torus wraps take the shorter direction, and an exact tie
/// (possible for any even dimension: down == rows - down at the antipode)
/// deterministically goes forward -- the <= below is load-bearing for the
/// pinned determinism sweeps.
[[nodiscard]] NodeId grid_step(NodeId at, std::uint32_t target, std::uint32_t rows,
                               std::uint32_t cols, bool torus) noexcept {
  const std::uint32_t ar = at / cols, ac = at % cols;
  const std::uint32_t tr = target / cols, tc = target % cols;
  if (ar != tr) {
    const std::uint32_t down = (tr + rows - ar) % rows;
    const bool forward = !torus ? tr > ar : down <= rows - down;
    const std::uint32_t nr = forward ? (ar + 1) % rows : (ar + rows - 1) % rows;
    return nr * cols + ac;
  }
  const std::uint32_t right = (tc + cols - ac) % cols;
  const bool forward = !torus ? tc > ac : right <= cols - right;
  const std::uint32_t nc = forward ? (ac + 1) % cols : (ac + cols - 1) % cols;
  return ar * cols + nc;
}

/// Liveness-aware lattice hop: the static coordinate step when its node is
/// alive, a greedy perimeter detour otherwise.  Detour preference order is
/// toward-target on the other axis first, then the remaining axial
/// neighbors, skipping the previous carrier unless it is the only live
/// exit.  Greedy sidesteps can live-lock on concave dead regions, so a hop
/// TTL (state.steps) bounds the walk: exhausting it -- or a dead target,
/// or a fully dead neighborhood -- ends the route kStranded at the current
/// holder (the push-sum carry-ack re-homes the payload from there; other
/// carriers drop it, exactly like the pre-detour dead-hop delivery).
[[nodiscard]] NodeId grid_hop_live(NodeId at, RouteState& state, std::uint32_t rows,
                                   std::uint32_t cols, bool torus,
                                   const LivenessView& alive) {
  const auto target = static_cast<NodeId>(state.target);
  if (target == at) {
    state.mode = RouteState::Mode::kDone;
    return at;
  }
  if (state.steps == 0 || !alive(target)) {
    state.mode = RouteState::Mode::kStranded;
    return at;
  }
  --state.steps;
  const NodeId prev = state.owner;
  const NodeId greedy = grid_step(at, target, rows, cols, torus);
  if (alive(greedy) && greedy != prev) {
    state.owner = at;
    return greedy;
  }
  const std::uint32_t ar = at / cols, ac = at % cols;
  const std::uint32_t tr = target / cols, tc = target % cols;
  NodeId cand[4];
  int m = 0;
  auto push = [&](std::uint32_t r, std::uint32_t c) {
    const NodeId v = r * cols + c;
    for (int i = 0; i < m; ++i) {
      if (cand[i] == v) return;
    }
    cand[m++] = v;
  };
  // The static greedy hop first (it may equal prev, kept as last resort
  // below), then the toward-target move on the other axis, then the rest.
  push(greedy / cols, greedy % cols);
  if (ar != tr && ac != tc) {
    const std::uint32_t right = (tc + cols - ac) % cols;
    const bool forward = !torus ? tc > ac : right <= cols - right;
    push(ar, forward ? (ac + 1) % cols : (ac + cols - 1) % cols);
  }
  if (torus || ar + 1 < rows) push((ar + 1) % rows, ac);
  if (torus || ar > 0) push((ar + rows - 1) % rows, ac);
  if (torus || ac + 1 < cols) push(ar, (ac + 1) % cols);
  if (torus || ac > 0) push(ar, (ac + cols - 1) % cols);
  NodeId last_resort = kNoPrev;
  for (int i = 0; i < m; ++i) {
    if (cand[i] == at || !alive(cand[i])) continue;
    if (cand[i] == prev) {
      last_resort = prev;
      continue;
    }
    state.owner = at;
    return cand[i];
  }
  if (last_resort != kNoPrev) {
    state.owner = at;
    return last_resort;
  }
  state.mode = RouteState::Mode::kStranded;  // boxed in by dead neighbors
  return at;
}

}  // namespace

NodeId SparseRouter::next_hop_fast(NodeId at, RouteState& state) const noexcept {
  switch (state.mode) {
    case RouteState::Mode::kDone:
      return at;
    case RouteState::Mode::kChordRoute: {
      if (state.owner != at) return chord_next_hop_fast(*chord_, at, state.target);
      state.mode =
          state.steps > 0 ? RouteState::Mode::kChordSmear : RouteState::Mode::kDone;
      return state.steps > 0 ? next_hop_fast(at, state) : at;
    }
    case RouteState::Mode::kChordSmear:
      if (state.steps == 0) {
        state.mode = RouteState::Mode::kDone;
        return at;
      }
      --state.steps;
      if (state.steps == 0) state.mode = RouteState::Mode::kDone;
      return chord_->successor(at);
    case RouteState::Mode::kGrid: {
      const auto target = static_cast<std::uint32_t>(state.target);
      if (target == at) {
        state.mode = RouteState::Mode::kDone;
        return at;
      }
      return grid_step(at, target, rows_, cols_, torus_);
    }
    case RouteState::Mode::kWalk:
      assert(false && "kWalk draws randomness; route it through next_hop");
      return at;
    case RouteState::Mode::kStranded:
      return at;
  }
  return at;
}

namespace {

/// Hops along one lattice dimension of length `len`: the coordinate
/// difference, or on a torus the shorter way round.  grid_step breaks an
/// antipode tie forward, but both ways are equally long.
[[nodiscard]] std::uint32_t axis_hops(std::uint32_t from, std::uint32_t to, std::uint32_t len,
                                      bool torus) noexcept {
  if (!torus) return from < to ? to - from : from - to;
  const std::uint32_t forward = (to + len - from) % len;
  return std::min(forward, len - forward);
}

}  // namespace

RouteEnd SparseRouter::resolve(NodeId src, const RouteState& state) const noexcept {
  if (state.mode == RouteState::Mode::kGrid) {
    const auto target = static_cast<NodeId>(state.target);
    return {target, axis_hops(src / cols_, target / cols_, rows_, torus_) +
                        axis_hops(src % cols_, target % cols_, cols_, torus_)};
  }
  assert(state.mode == RouteState::Mode::kChordRoute && "resolve takes a fresh keyed route");
  // The greedy walk to the key's static owner, hop for hop as
  // next_hop_fast takes it, then the whole smear in one lookup.
  RouteEnd end{src, 0};
  while (end.at != state.owner) {
    end.at = chord_next_hop_fast(*chord_, end.at, state.target);
    ++end.hops;
  }
  end.at = chord_->nth_successor(end.at, state.steps);
  end.hops += state.steps;
  return end;
}

NodeId SparseRouter::next_hop_live(NodeId at, RouteState& state,
                                   const LivenessView& alive) const {
  switch (state.mode) {
    case RouteState::Mode::kDone:
      return at;
    case RouteState::Mode::kChordRoute: {
      const NodeId nh = chord_next_hop_live(*chord_, at, state, alive);
      if (nh != at) return nh;
      state.mode =
          state.steps > 0 ? RouteState::Mode::kChordSmear : RouteState::Mode::kDone;
      return state.steps > 0 ? next_hop_live(at, state, alive) : at;
    }
    case RouteState::Mode::kChordSmear:
      if (state.steps == 0) {
        state.mode = RouteState::Mode::kDone;
        return at;
      }
      --state.steps;
      if (state.steps == 0) state.mode = RouteState::Mode::kDone;
      return successor_live(*chord_, at, alive);
    case RouteState::Mode::kGrid:
      return grid_hop_live(at, state, rows_, cols_, torus_, alive);
    case RouteState::Mode::kWalk:
      assert(false && "kWalk draws randomness; route it through next_hop");
      return at;
    case RouteState::Mode::kStranded:
      return at;
  }
  return at;
}

NodeId SparseRouter::next_hop(NodeId at, RouteState& state, Rng& rng,
                              const LivenessView& alive) const {
  if (state.mode == RouteState::Mode::kWalk) {
    if (state.steps == 0) {
      state.mode = RouteState::Mode::kDone;
      return at;
    }
    --state.steps;
    if (state.steps == 0) state.mode = RouteState::Mode::kDone;
    return sampler_(at, rng);
  }
  return alive.fn == nullptr ? next_hop_fast(at, state) : next_hop_live(at, state, alive);
}

std::uint32_t SparseRouter::max_route_hops() const noexcept {
  if (chord_ != nullptr) return 2 * chord_->ring_bits() + chord_->smear_width() + 2;
  if (cols_ != 0) return grid_ttl() + 2;  // detours burn at most the TTL
  return walk_len_;
}

std::uint32_t SparseRouter::typical_route_hops() const noexcept {
  // Chord: greedy routing of a random key takes ~(log2 n)/2 expected hops
  // and the smear walk averages S/2 more.  Grids: expected per-dimension
  // distance to a uniform target is dim/3 (dim/4 on a torus).  Walks: the
  // length is fixed.
  if (chord_ != nullptr) return ceil_log2(n_) / 2 + chord_->smear_width() / 2 + 1;
  if (cols_ != 0) return torus_ ? (rows_ + cols_) / 4 : (rows_ + cols_) / 3;
  return walk_len_;
}

}  // namespace drrg
