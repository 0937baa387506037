#pragma once
// Pluggable communication substrate for the simulator.
//
// The paper's model (§2) is the random phone call over the complete graph:
// any node can call any other, and the "sample a partner" primitive is
// uniform over V.  Real gossip runtimes treat peer sampling as a policy
// (libgossip-style), so the engine factors it out:
//
//   * Topology::complete()      -- K_n, the paper's model (default; K_n is
//                                  implicit, no O(n^2) storage);
//   * Topology::of_graph(G)     -- an explicit undirected graph; the
//                                  sampling primitive becomes "uniform
//                                  random neighbor of the caller".
//
// The topology constrains only *random peer sampling*.  Addressed sends to
// nodes learned through sampling or tree construction (a DRR parent, a
// root address distributed in Phase II) model established overlay
// connections and remain point-to-point -- the same convention the paper
// uses when roots reply "directly to the inquiring root" in Algorithm 4.
//
// Storage backends.  Structured families (chord ring, grid/torus) admit two
// representations that sample identically:
//
//   * CSR cache: offsets + flat neighbor array, adjacency sorted ascending
//     per node.  O(n log n) words for a chord ring -- 3.2 GB at n = 16M.
//     Needed whenever a consumer walks real adjacency (the sparse routed
//     pipeline, Local-DRR).
//   * implicit: neighbors computed from the node id on demand.  A chord
//     ring's undirected neighbor *offsets* {s, n-s : s = 1, 2, 4, ...} are
//     the same sorted table for every node, so the j-th smallest neighbor
//     of i is one binary search + a rotation; a lattice's <= 4 neighbors
//     are coordinate arithmetic.  O(log n) words total for the ring, zero
//     for the grid -- this is what makes n = 16M single-machine runs fit.
//
// Both backends enumerate identical sorted neighbor lists, so peer sampling
// (index rng.next_below(deg) into the sorted list) and the double-sweep
// pseudo-diameter are bit-identical across them; make_topology picks the
// backend by size (TopologyBackend::kAuto) unless the spec forces one.
//
// Graphs are held by shared_ptr so Scenario/Topology values copy in O(1)
// and are safe to share read-only across the parallel trial executor.
// The CSR arrays (offsets + flat neighbor storage) are additionally cached
// as raw pointers at construction, so the sample_peer hot path is a single
// offset computation -- no shared_ptr chase, no span materialisation, no
// per-call neighbor list.  The substrate's pseudo-diameter is measured once
// here too; the DRR pipelines read it to scale the Phase III round budget
// on diameter-heavy substrates.

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "support/rng.hpp"
#include "topology/graph.hpp"

namespace drrg::sim {

/// Which storage the structured families materialise.  kAuto picks the CSR
/// cache below kImplicitAutoThreshold nodes (cheap to build, reusable by
/// adjacency-walking consumers) and the implicit backend at or above it
/// (the CSR build's O(n log n) edge storage is the scaling bottleneck).
enum class TopologyBackend : std::uint8_t {
  kAuto = 0,
  kCsr,       ///< force the materialised CSR adjacency
  kImplicit,  ///< force id-arithmetic neighbors (chord-ring / grid only)
};

/// kAuto switches chord-ring and grid/torus to the implicit backend at
/// this size.  Below it both backends exist and are interchangeable.
inline constexpr std::uint32_t kImplicitAutoThreshold = 1u << 17;

class Topology {
 public:
  enum class Storage : std::uint8_t {
    kComplete = 0,   ///< K_n, no storage at all
    kCsr,            ///< explicit Graph, cached CSR views
    kImplicitChord,  ///< chord ring: shared sorted offset table
    kImplicitGrid,   ///< rows x cols lattice: coordinate arithmetic
  };

  /// Implicit complete graph (of whatever size the network has).
  Topology() = default;

  [[nodiscard]] static Topology complete() { return Topology{}; }

  /// Complete graph with its size recorded, so degree() is answerable
  /// without the caller's n.
  [[nodiscard]] static Topology complete_of(std::uint32_t n) {
    Topology t;
    t.n_ = n;
    return t;
  }

  [[nodiscard]] static Topology of_graph(Graph g) {
    Topology t;
    if (!g.is_complete()) {
      t.storage_ = Storage::kCsr;
      t.graph_ = std::make_shared<const Graph>(std::move(g));
      t.offsets_ = t.graph_->csr_offsets().data();
      t.adjacency_ = t.graph_->csr_adjacency().data();
      t.diameter_ = t.graph_->pseudo_diameter();
      t.n_ = t.graph_->size();
    } else {
      t.n_ = g.size();
    }
    return t;
  }

  /// A rows x cols lattice (row-major node ids) with its layout recorded,
  /// so consumers that route by coordinates (the sparse pipeline's
  /// Assumption-2 sampler) need not re-derive the builder's shape.
  [[nodiscard]] static Topology of_grid(std::uint32_t rows, std::uint32_t cols,
                                        bool torus);

  /// Chord ring over n nodes without materialised adjacency: neighbors of
  /// i are (i + d) mod n for the node-independent sorted offset table
  /// d in {s, n-s : s = 1, 2, 4, ..., 2^k < n}.  Same neighbor sets, same
  /// sampling, same pseudo-diameter as of_graph(make_chord_graph(n)).
  [[nodiscard]] static Topology implicit_chord(std::uint32_t n);

  /// rows x cols lattice without materialised adjacency (same edge rules
  /// as make_grid, including torus wraps only on dimensions > 2).
  [[nodiscard]] static Topology implicit_grid(std::uint32_t rows,
                                              std::uint32_t cols, bool torus);

  [[nodiscard]] Storage storage() const noexcept { return storage_; }
  [[nodiscard]] bool is_complete() const noexcept {
    return storage_ == Storage::kComplete;
  }
  [[nodiscard]] bool is_implicit() const noexcept {
    return storage_ == Storage::kImplicitChord ||
           storage_ == Storage::kImplicitGrid;
  }

  /// The explicit graph; nullptr for complete and implicit backends.
  [[nodiscard]] const Graph* graph() const noexcept { return graph_.get(); }

  /// Number of nodes the topology was built for (0 = any, unsized complete).
  [[nodiscard]] std::uint32_t size() const noexcept { return n_; }

  /// Degree of v.  Complete topologies answer n-1 when their size was
  /// recorded (complete_of / make_topology) and hard-abort otherwise --
  /// the historical behavior was a silent nullptr dereference.
  [[nodiscard]] std::uint32_t degree(NodeId v) const noexcept {
    switch (storage_) {
      case Storage::kCsr:
        return static_cast<std::uint32_t>(offsets_[v + 1] - offsets_[v]);
      case Storage::kImplicitChord:
        return chord_degree_;
      case Storage::kImplicitGrid: {
        NodeId scratch[4];
        return grid_neighbors(v, scratch);
      }
      case Storage::kComplete:
        if (n_ == 0) {
          // An unsized complete topology has no answer; aborting beats the
          // historical nullptr dereference (and is testable as a death).
          std::abort();
        }
        return n_ - 1;
    }
    return 0;
  }

  /// Measured (pseudo-)diameter of the substrate: 1 for the complete
  /// topology, the double-sweep BFS bound for explicit and implicit ones.
  /// Cached at construction -- reading it per run costs nothing.
  [[nodiscard]] std::uint32_t diameter() const noexcept { return diameter_; }

  /// Lattice layout when the topology was built with of_grid/implicit_grid
  /// (node id = row * grid_cols() + col); grid_rows() == 0 otherwise.
  [[nodiscard]] bool is_grid() const noexcept { return grid_rows_ != 0; }
  [[nodiscard]] std::uint32_t grid_rows() const noexcept { return grid_rows_; }
  [[nodiscard]] std::uint32_t grid_cols() const noexcept { return grid_cols_; }
  [[nodiscard]] bool grid_torus() const noexcept { return grid_torus_; }

  /// Value-type view of the sampling state for tight loops: a stack-local
  /// sampler lets the compiler keep the hot pointers in registers across
  /// calls that also touch the heap (which would force member reloads).
  /// Samples identically to sample_peer on every backend.
  struct PeerSampler {
    const std::uint64_t* offsets = nullptr;
    const NodeId* adjacency = nullptr;  // CSR backend
    std::uint32_t n = 0;
    const NodeId* chord = nullptr;  // implicit chord: sorted offset table
    std::uint32_t chord_degree = 0;
    std::uint32_t rows = 0;  // implicit grid
    std::uint32_t cols = 0;
    bool torus = false;

    /// Always inlined: the flat executors call it once per message, and
    /// left to its heuristics the compiler stops inlining it into a hot
    /// loop once the translation unit holds a few more callers.
    [[nodiscard, gnu::always_inline]] NodeId operator()(NodeId caller, Rng& rng) const {
      if (adjacency != nullptr) {
        const std::uint64_t begin = offsets[caller];
        const std::uint64_t deg = offsets[caller + 1] - begin;
        if (deg == 0) return caller;
        return adjacency[begin + rng.next_below(deg)];
      }
      if (chord != nullptr) {
        // j-th smallest of {(caller + d) mod n : d in table}: offsets with
        // d >= n - caller wrap below caller and sort first, so the sorted
        // rank is a rotation of the offset table by that split point.
        const auto j = static_cast<std::uint32_t>(rng.next_below(chord_degree));
        const NodeId* lb =
            std::lower_bound(chord, chord + chord_degree, n - caller);
        std::uint32_t k = static_cast<std::uint32_t>(lb - chord) + j;
        if (k >= chord_degree) k -= chord_degree;
        const std::uint64_t id = static_cast<std::uint64_t>(caller) + chord[k];
        return static_cast<NodeId>(id >= n ? id - n : id);
      }
      if (rows != 0) {
        NodeId nb[4];
        const std::uint32_t deg = grid_neighbors_of(rows, cols, torus, caller, nb);
        if (deg == 0) return caller;
        return nb[rng.next_below(deg)];
      }
      return static_cast<NodeId>(rng.next_below(n));
    }
  };

  /// The random phone call primitive: a call target for `caller`, uniform
  /// over all of V on the complete topology (self-samples possible,
  /// historical behavior) and uniform over the sorted neighbor list
  /// otherwise (an isolated node calls itself; the call is a no-op).
  [[nodiscard]] NodeId sample_peer(NodeId caller, std::uint32_t n, Rng& rng) const {
    return sampler(n)(caller, rng);
  }

  [[nodiscard]] PeerSampler sampler(std::uint32_t n) const noexcept {
    PeerSampler s;
    s.offsets = offsets_;
    s.adjacency = adjacency_;
    s.n = n;
    s.chord = chord_;
    s.chord_degree = chord_degree_;
    if (storage_ == Storage::kImplicitGrid) {
      s.rows = grid_rows_;
      s.cols = grid_cols_;
      s.torus = grid_torus_;
    }
    return s;
  }

  /// Sorted neighbors of v written into `out` (capacity >= degree(v)) on
  /// the implicit backends; returns the count.  Matches the CSR adjacency
  /// slice of the equivalent explicit build element-for-element.
  std::uint32_t implicit_neighbors(NodeId v, NodeId* out) const;

 private:
  static std::uint32_t grid_neighbors_of(std::uint32_t rows, std::uint32_t cols,
                                         bool torus, NodeId v, NodeId out[4]);
  [[nodiscard]] std::uint32_t grid_neighbors(NodeId v, NodeId out[4]) const {
    return grid_neighbors_of(grid_rows_, grid_cols_, grid_torus_, v, out);
  }

  Storage storage_ = Storage::kComplete;
  std::shared_ptr<const Graph> graph_;
  // Cached views into *graph_ (stable: the Graph is immutable and shared);
  // null for the complete and implicit topologies.
  const std::uint64_t* offsets_ = nullptr;
  const NodeId* adjacency_ = nullptr;
  // Implicit chord: shared sorted offset table (O(log n) entries).
  std::shared_ptr<const std::vector<NodeId>> chord_table_;
  const NodeId* chord_ = nullptr;
  std::uint32_t chord_degree_ = 0;
  std::uint32_t n_ = 0;
  std::uint32_t diameter_ = 1;
  std::uint32_t grid_rows_ = 0;  // of_grid/implicit_grid: lattice layout
  std::uint32_t grid_cols_ = 0;
  bool grid_torus_ = false;
};

// ---------------------------------------------------------------------------
// Named topology families for the scenario layer (CLI / api::RunSpec).

enum class TopologyKind : std::uint8_t {
  kComplete,       ///< K_n -- the paper's random phone call model
  kChordRing,      ///< successor + finger edges of a Chord ring
  kRandomRegular,  ///< random d-regular (configuration model)
  kGrid2d,         ///< 2D grid, rows x cols with rows*cols == n
};

/// Value-type description of a topology, copyable into RunSpecs.
struct TopologySpec {
  TopologyKind kind = TopologyKind::kComplete;
  std::uint32_t degree = 8;  ///< random-regular only
  bool torus = false;        ///< grid only
  TopologyBackend backend = TopologyBackend::kAuto;

  [[nodiscard]] bool is_complete() const noexcept {
    return kind == TopologyKind::kComplete;
  }
};

[[nodiscard]] std::string_view to_string(TopologyKind kind) noexcept;

/// Parses "complete", "chord-ring", "random-regular", "grid", "torus".
[[nodiscard]] std::optional<TopologySpec> topology_from_name(
    std::string_view name) noexcept;

/// Parses "auto", "csr", "implicit".
[[nodiscard]] std::optional<TopologyBackend> backend_from_name(
    std::string_view name) noexcept;
[[nodiscard]] std::string_view to_string(TopologyBackend backend) noexcept;

/// The rows x cols layout make_topology gives a grid of n nodes: rows is
/// the largest divisor of n that is <= sqrt(n).  rows == 1 (n prime or
/// n < 4) has no 2d shape and make_topology rejects it.
struct GridShape {
  std::uint32_t rows = 0;
  std::uint32_t cols = 0;
};
[[nodiscard]] GridShape grid_shape(std::uint32_t n) noexcept;

/// The storage rule: true when make_topology(spec, n, seed) computes
/// neighbors from ids instead of materialising CSR.  Only chord rings and
/// grids/tori have an implicit backend; they take it when the spec forces
/// kImplicit, or under kAuto at n >= kImplicitAutoThreshold.
[[nodiscard]] bool uses_implicit_backend(const TopologySpec& spec,
                                         std::uint32_t n) noexcept;

/// Materialises a spec for n nodes.  Randomized builders draw from `seed`.
/// Degree is bumped by one when n*degree is odd (the configuration model
/// needs an even degree sum); grids use the largest divisor of n that is
/// <= sqrt(n) as the row count and *reject* a prime n (a 1 x n "grid" is a
/// path with diameter n-1, silently invalidating grid-family results) with
/// std::invalid_argument.  Chord rings and grids pick their storage by
/// uses_implicit_backend.
[[nodiscard]] Topology make_topology(const TopologySpec& spec, std::uint32_t n,
                                     std::uint64_t seed);

}  // namespace drrg::sim
