#pragma once
// Chord overlay (Stoica et al. [25]) -- the sparse P2P substrate used by
// §4's application of DRR-gossip.
//
// n nodes are placed at distinct random identifiers on a 2^m ring.  Each
// node knows its successor and m fingers (finger k = the node owning
// id + 2^k), giving greedy key routing in O(log n) hops whp.
//
// §4 Assumption (2) requires a protocol that reaches a *random node* in
// T = O(log n) rounds and M = O(log n) messages.  The paper cites King et
// al. [10]; we substitute a successor-smearing scheme: route to the owner
// of a uniformly random key (that alone would select nodes proportionally
// to their arc length -- badly non-uniform, some nodes nearly never), then
// walk j more successor steps for j uniform in [0, S), S = Theta(log n).
// The selection probability of a node becomes the *average* of S
// consecutive arcs divided by the ring size; sums of S exponential-ish
// arcs concentrate around S * mean, so every node is selected with
// probability (1 +- O(1/sqrt(S))) / n -- near-uniform in exactly the sense
// the Phase III analysis needs -- at O(log n) hops per draw.  The sampler
// itself is SparseRouter::begin_random (aggregate/routing.hpp), which the
// engine expands hop by hop; this class supplies the ring, the greedy
// routing and the smear width S.

#include <cstdint>
#include <vector>

namespace drrg {

using NodeId = std::uint32_t;

class ChordOverlay {
 public:
  /// Places n nodes at distinct random ids on a ring of 2^ring_bits points.
  /// ring_bits is chosen automatically (>= log2 n + 8) unless forced.
  ChordOverlay(std::uint32_t n, std::uint64_t seed, std::uint32_t ring_bits = 0);

  [[nodiscard]] std::uint32_t size() const noexcept { return n_; }
  [[nodiscard]] std::uint32_t ring_bits() const noexcept { return m_; }
  [[nodiscard]] std::uint64_t ring_size() const noexcept { return std::uint64_t{1} << m_; }

  /// Ring identifier of node v.  Node indices are arbitrary labels, not
  /// ring order: node v's id is the v-th distinct draw of the seeded
  /// stream.
  [[nodiscard]] std::uint64_t id_of(NodeId v) const noexcept { return ids_[v]; }

  /// The node owning `key`: the first node clockwise at or after key.
  /// A key >= ring_size() is first reduced modulo ring_size(), so every
  /// 64-bit key names a ring point.  Expected O(1): the ring index holds
  /// about one id per bucket, and only the key's bucket is scanned.
  [[nodiscard]] NodeId owner_of_key(std::uint64_t key) const noexcept;

  /// Immediate successor of node v on the ring (one flat-array load).
  [[nodiscard]] NodeId successor(NodeId v) const noexcept;

  /// Finger k of node v: owner of (id_of(v) + 2^k) mod 2^m.
  [[nodiscard]] NodeId finger(NodeId v, std::uint32_t k) const noexcept;

  /// Flat row of v's finger table (m_ entries, index by k).  Finger k is
  /// the first node at clockwise distance >= 2^k (v itself when none is),
  /// so the row's distances are non-decreasing in k, and a finger at
  /// distance d fills the row from its first index up to k = floor(log2 d).
  /// Greedy closest-preceding-finger selection toward a key at distance d
  /// therefore starts at k = floor(log2 d) (see SparseRouter::next_hop_fast).
  [[nodiscard]] const NodeId* finger_row(NodeId v) const noexcept {
    return fingers_.data() + static_cast<std::size_t>(v) * m_;
  }

  /// Greedy routing step from v toward key's owner; returns v itself when
  /// v already owns the key.
  [[nodiscard]] NodeId next_hop(NodeId v, std::uint64_t key) const noexcept;

  /// Successor-walk width S of the sampler: max(8, ceil(log2 n)).
  [[nodiscard]] std::uint32_t smear_width() const noexcept;

 private:
  [[nodiscard]] bool in_open_interval(std::uint64_t x, std::uint64_t a,
                                      std::uint64_t b) const noexcept;

  /// Ring position (index into sorted_ids_) of the owner of key < ring_size().
  [[nodiscard]] std::uint32_t owner_pos(std::uint64_t key) const noexcept;

  std::uint32_t n_;
  std::uint32_t m_;
  std::vector<std::uint64_t> ids_;         // id of node v
  std::vector<std::uint64_t> sorted_ids_;  // ids in ring order, + ring_size() sentinel
  std::vector<NodeId> sorted_nodes_;       // node labels in ring order
  std::vector<std::uint32_t> ring_pos_;    // position of node v in sorted order
  std::uint32_t bucket_shift_ = 0;         // key >> bucket_shift_ = its bucket
  std::vector<std::uint32_t> bucket_start_;  // first ring position per bucket, + n
  std::vector<NodeId> succ_;               // successor(v), flat
  std::vector<NodeId> fingers_;            // n_ * m_ finger table
};

}  // namespace drrg
