#include "chord/chord.hpp"

#include <algorithm>
#include <stdexcept>

#include "support/mathutil.hpp"
#include "support/rng.hpp"

namespace drrg {

ChordOverlay::ChordOverlay(std::uint32_t n, std::uint64_t seed, std::uint32_t ring_bits)
    : n_(n) {
  if (n < 2) throw std::invalid_argument("ChordOverlay: need n >= 2");
  m_ = ring_bits != 0 ? ring_bits : std::min<std::uint32_t>(62, ceil_log2(n) + 8);
  if ((std::uint64_t{1} << m_) < n)
    throw std::invalid_argument("ChordOverlay: ring smaller than node count");

  Rng rng{derive_seed(seed, 0xc403dULL)};
  const std::uint64_t ring = std::uint64_t{1} << m_;
  // Distinct-id dedup via a flat open-addressing probe table (load factor
  // <= 0.5): one allocation instead of the O(n) node allocations of a
  // tree/chained set.  The accept/reject decision per draw is pure set
  // membership, so the id sequence is bit-identical to the historical
  // std::unordered_set build.  ~0 is a safe empty marker: ids live in
  // [0, 2^m) with m <= 62.
  constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
  std::size_t cap = 16;
  while (cap < 2 * static_cast<std::size_t>(n)) cap *= 2;
  std::vector<std::uint64_t> used(cap, kEmpty);
  auto insert_new = [&used, cap](std::uint64_t id) {
    std::uint64_t mix = id;
    std::size_t h = static_cast<std::size_t>(splitmix64(mix)) & (cap - 1);
    while (used[h] != kEmpty) {
      if (used[h] == id) return false;
      h = (h + 1) & (cap - 1);
    }
    used[h] = id;
    return true;
  };
  ids_.reserve(n);
  while (ids_.size() < n) {
    const std::uint64_t id = rng.next_below(ring);
    if (insert_new(id)) ids_.push_back(id);
  }

  // Ring index: 2^b buckets (the smallest power of two >= n, so about one
  // id per bucket and at most 2n entries with the end sentinel), bucket j
  // holding the keys [j << shift, (j + 1) << shift).  bucket_start_[j] is
  // the ring position of the first id in bucket j.  The index doubles as
  // the ring sort: a counting pass places each node in its bucket, then
  // each bucket (expected O(1) ids) is sorted by id.  Ids are distinct, so
  // the ring order is the same total order a full comparison sort gives.
  const std::uint32_t bucket_bits = ceil_log2(n);
  const std::uint32_t buckets = std::uint32_t{1} << bucket_bits;
  bucket_shift_ = m_ - bucket_bits;
  bucket_start_.assign(static_cast<std::size_t>(buckets) + 1, 0);
  for (NodeId v = 0; v < n; ++v) ++bucket_start_[ids_[v] >> bucket_shift_];
  for (std::uint32_t j = 1; j < buckets; ++j) bucket_start_[j] += bucket_start_[j - 1];
  bucket_start_[buckets] = n;
  sorted_nodes_.resize(n);
  // Filling each bucket from its end leaves bucket_start_[j] at its start.
  for (NodeId v = n; v-- > 0;) sorted_nodes_[--bucket_start_[ids_[v] >> bucket_shift_]] = v;
  const auto by_id = [this](NodeId a, NodeId b) { return ids_[a] < ids_[b]; };
  for (std::uint32_t j = 0; j < buckets; ++j) {
    std::sort(sorted_nodes_.begin() + bucket_start_[j],
              sorted_nodes_.begin() + bucket_start_[j + 1], by_id);
  }
  sorted_ids_.resize(static_cast<std::size_t>(n) + 1);
  ring_pos_.resize(n);
  for (std::uint32_t p = 0; p < n; ++p) {
    sorted_ids_[p] = ids_[sorted_nodes_[p]];
    ring_pos_[sorted_nodes_[p]] = p;
  }
  sorted_ids_[n] = ring;  // above every key: ends owner_pos's bucket scan

  succ_.resize(n);
  for (std::uint32_t p = 0; p < n; ++p)
    succ_[sorted_nodes_[p]] = sorted_nodes_[(p + 1) % n];

  fingers_.resize(static_cast<std::size_t>(n) * m_);
  for (NodeId v = 0; v < n; ++v) {
    // Finger k is the first node at clockwise distance >= 2^k, v itself
    // (distance 0) when none is.  It starts as the successor (finger 0) and
    // is looked up again only when it falls short of 2^k; otherwise it is
    // also finger k.
    std::uint32_t pos = ring_pos_[succ_[v]];
    std::uint64_t dist = (sorted_ids_[pos] - ids_[v]) & (ring - 1);
    NodeId* row = fingers_.data() + static_cast<std::size_t>(v) * m_;
    for (std::uint32_t k = 0; k < m_; ++k) {
      if (dist < (std::uint64_t{1} << k)) {
        pos = owner_pos((ids_[v] + (std::uint64_t{1} << k)) & (ring - 1));
        dist = (sorted_ids_[pos] - ids_[v]) & (ring - 1);
      }
      row[k] = sorted_nodes_[pos];
    }
  }
}

std::uint32_t ChordOverlay::owner_pos(std::uint64_t key) const noexcept {
  // Every id before the key's bucket is smaller than the key and every id
  // after it larger, so the first id >= key lies in the bucket or is the
  // first id after it.  The scan stops at the sentinel sorted_ids_[n] =
  // ring_size() at the latest, and past the last id the ring wraps to
  // position 0.  A bucket holds about one id, so the first step is taken
  // without a branch; the loop runs only for a fuller bucket.
  std::uint32_t pos = bucket_start_[key >> bucket_shift_];
  pos += sorted_ids_[pos] < key ? 1 : 0;
  while (sorted_ids_[pos] < key) ++pos;
  return pos == n_ ? 0 : pos;
}

NodeId ChordOverlay::owner_of_key(std::uint64_t key) const noexcept {
  return sorted_nodes_[owner_pos(key & (ring_size() - 1))];
}

NodeId ChordOverlay::successor(NodeId v) const noexcept { return succ_[v]; }

NodeId ChordOverlay::finger(NodeId v, std::uint32_t k) const noexcept {
  return fingers_[static_cast<std::size_t>(v) * m_ + k];
}

bool ChordOverlay::in_open_interval(std::uint64_t x, std::uint64_t a,
                                    std::uint64_t b) const noexcept {
  // x in (a, b) clockwise on the ring; empty when a == b.
  if (a < b) return x > a && x < b;
  if (a > b) return x > a || x < b;
  return false;
}

NodeId ChordOverlay::next_hop(NodeId v, std::uint64_t key) const noexcept {
  if (owner_of_key(key) == v) return v;
  // Closest preceding finger of key, else the successor.
  for (std::uint32_t k = m_; k-- > 0;) {
    const NodeId c = finger(v, k);
    if (c != v && in_open_interval(ids_[c], ids_[v], key)) return c;
  }
  return successor(v);
}

std::uint32_t ChordOverlay::smear_width() const noexcept {
  return std::max<std::uint32_t>(8, ceil_log2(n_));
}

}  // namespace drrg
