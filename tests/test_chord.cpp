// Tests of the Chord overlay: identifiers, routing and the smear width.
// The near-uniform sampler that implements §4 Assumption (2) runs through
// SparseRouter::begin_random; test_sparse_properties.cpp tests it.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "chord/chord.hpp"
#include "support/mathutil.hpp"
#include "support/rng.hpp"

namespace drrg {
namespace {

TEST(Chord, DistinctIdentifiers) {
  ChordOverlay c{256, 3};
  std::set<std::uint64_t> ids;
  for (NodeId v = 0; v < c.size(); ++v) ids.insert(c.id_of(v));
  EXPECT_EQ(ids.size(), 256u);
  for (NodeId v = 0; v < c.size(); ++v) EXPECT_LT(c.id_of(v), c.ring_size());
}

TEST(Chord, OwnerOfKeyIsClockwiseSuccessor) {
  ChordOverlay c{64, 4};
  for (NodeId v = 0; v < c.size(); ++v) {
    // The owner of a node's own id is the node itself.
    EXPECT_EQ(c.owner_of_key(c.id_of(v)), v);
    // One past its id belongs to its successor (ids are distinct).
    const std::uint64_t next = (c.id_of(v) + 1) & (c.ring_size() - 1);
    EXPECT_EQ(c.owner_of_key(next), c.successor(v));
  }
}

TEST(Chord, SuccessorCyclesThroughAllNodes) {
  ChordOverlay c{50, 5};
  NodeId v = 0;
  std::set<NodeId> seen;
  for (std::uint32_t i = 0; i < c.size(); ++i) {
    seen.insert(v);
    v = c.successor(v);
  }
  EXPECT_EQ(seen.size(), 50u);
  EXPECT_EQ(v, 0u);  // back to start after n steps
}

TEST(Chord, NthSuccessorMatchesRepeatedSuccessor) {
  // k from 0 to 2n: every wrap-around, including k = n and k = 2n (v
  // itself).  At n = 4096 a spread of start nodes keeps the walk short.
  for (const std::uint32_t n : {2u, 3u, 50u, 4096u}) {
    const ChordOverlay c{n, 8 + n};
    const std::uint32_t stride = n < 64 ? 1 : 409;
    for (NodeId v = 0; v < n; v += stride) {
      NodeId walked = v;
      for (std::uint64_t k = 0; k <= 2 * std::uint64_t{n}; ++k) {
        ASSERT_EQ(c.nth_successor(v, k), walked) << "n=" << n << " v=" << v << " k=" << k;
        walked = c.successor(walked);
      }
    }
  }
}

TEST(Chord, ArcLengthsSumToRing) {
  ChordOverlay c{128, 6};
  std::uint64_t total = 0;
  // successor(v) owns the arc (id_of(v), id_of(successor(v))].
  for (NodeId v = 0; v < c.size(); ++v)
    total += (c.id_of(c.successor(v)) - c.id_of(v)) & (c.ring_size() - 1);
  EXPECT_EQ(total, c.ring_size());
}

TEST(Chord, FingerIsOwnerOfOffset) {
  ChordOverlay c{64, 7};
  for (NodeId v = 0; v < c.size(); v += 7) {
    for (std::uint32_t k = 0; k < c.ring_bits(); k += 3) {
      const std::uint64_t target = (c.id_of(v) + (std::uint64_t{1} << k)) & (c.ring_size() - 1);
      EXPECT_EQ(c.finger(v, k), c.owner_of_key(target));
    }
  }
}

// Reference owners of `keys` (each < ring_size()): one linear scan of the
// sorted ids, taking the keys in increasing order.  The owner is the first
// id >= key, wrapping to the smallest id.  Shares no code with the ring
// index behind owner_of_key and the finger build.
std::vector<NodeId> scan_owners(const ChordOverlay& c, const std::vector<std::uint64_t>& keys) {
  std::vector<std::pair<std::uint64_t, NodeId>> ring;
  for (NodeId v = 0; v < c.size(); ++v) ring.emplace_back(c.id_of(v), v);
  std::sort(ring.begin(), ring.end());
  std::vector<std::size_t> order(keys.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&keys](std::size_t a, std::size_t b) { return keys[a] < keys[b]; });
  std::vector<NodeId> owners(keys.size());
  std::size_t p = 0;
  for (const std::size_t i : order) {
    while (p < ring.size() && ring[p].first < keys[i]) ++p;
    owners[i] = p < ring.size() ? ring[p].second : ring.front().second;
  }
  return owners;
}

// Each ring size shapes the ring index differently: the default
// 2^(ceil(log2 n) + 8) points (about one id per bucket), a ring exactly as
// large as the bucket table (every point an id when n is a power of two),
// and the largest, 2^62 points.
class ChordRingIndex
    : public ::testing::TestWithParam<std::pair<std::uint32_t, std::uint32_t>> {};

TEST_P(ChordRingIndex, OwnerOfKeyMatchesLinearScan) {
  const auto [n, ring_bits] = GetParam();
  const ChordOverlay c{n, 21 + n, ring_bits};
  const std::uint64_t ring = c.ring_size();
  std::vector<std::uint64_t> keys{0, ring - 1};
  std::uint64_t largest = 0;
  for (NodeId v = 0; v < n; ++v) {
    const std::uint64_t id = c.id_of(v);
    largest = std::max(largest, id);
    keys.push_back(id);
    keys.push_back((id + 1) & (ring - 1));
    keys.push_back((id - 1) & (ring - 1));
  }
  // Keys past the largest id wrap around to the smallest.
  for (std::uint64_t gap = ring - 1 - largest, step = 1; gap > 0 && step <= gap; step *= 3)
    keys.push_back(largest + step);
  Rng rng{n * 7 + ring_bits};
  for (int i = 0; i < 1000; ++i) keys.push_back(rng.next_below(ring));

  const std::vector<NodeId> want = scan_owners(c, keys);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(c.owner_of_key(keys[i]), want[i]) << "key " << keys[i];
    // Keys beyond the ring reduce modulo ring_size().
    ASSERT_EQ(c.owner_of_key(keys[i] + ring), want[i]) << "key " << keys[i] << " + ring";
    ASSERT_EQ(c.owner_of_key(keys[i] | ~(ring - 1)), want[i]) << "key " << keys[i] << " | high";
  }
  EXPECT_EQ(c.owner_of_key(~std::uint64_t{0}), c.owner_of_key(ring - 1));
}

TEST_P(ChordRingIndex, EveryFingerMatchesLinearScan) {
  const auto [n, ring_bits] = GetParam();
  const ChordOverlay c{n, 33 + n, ring_bits};
  const std::uint32_t m = c.ring_bits();
  const std::uint64_t ring = c.ring_size();
  std::vector<std::uint64_t> targets;
  targets.reserve(static_cast<std::size_t>(n) * m);
  for (NodeId v = 0; v < n; ++v) {
    for (std::uint32_t k = 0; k < m; ++k)
      targets.push_back((c.id_of(v) + (std::uint64_t{1} << k)) & (ring - 1));
  }
  const std::vector<NodeId> want = scan_owners(c, targets);
  for (NodeId v = 0; v < n; ++v) {
    for (std::uint32_t k = 0; k < m; ++k) {
      const NodeId f = want[static_cast<std::size_t>(v) * m + k];
      ASSERT_EQ(c.finger(v, k), f) << "node " << v << " finger " << k;
      ASSERT_EQ(c.finger_row(v)[k], f);
    }
    ASSERT_EQ(c.finger(v, 0), c.successor(v));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Rings, ChordRingIndex,
    ::testing::Values(std::pair{2u, 0u}, std::pair{2u, 1u}, std::pair{2u, 62u},
                      std::pair{3u, 0u}, std::pair{3u, 2u}, std::pair{3u, 62u},
                      std::pair{50u, 0u}, std::pair{50u, 6u}, std::pair{50u, 62u},
                      std::pair{4096u, 0u}, std::pair{4096u, 12u}, std::pair{4096u, 62u}),
    [](const auto& info) {
      return "n" + std::to_string(info.param.first) + "_bits" +
             (info.param.second == 0 ? std::string{"default"}
                                     : std::to_string(info.param.second));
    });

// Greedy route src -> owner(key) over next_hop, inclusive of both
// endpoints.  2m + 2 hops is a generous hard cap: greedy Chord routing
// halves the clockwise distance per hop, so the walk stops well before it.
std::vector<NodeId> route(const ChordOverlay& c, NodeId src, std::uint64_t key) {
  std::vector<NodeId> path{src};
  NodeId v = src;
  for (std::uint32_t guard = 0; guard < 2 * c.ring_bits() + 2; ++guard) {
    const NodeId nxt = c.next_hop(v, key);
    if (nxt == v) break;
    path.push_back(nxt);
    v = nxt;
  }
  return path;
}

std::uint32_t route_hops(const ChordOverlay& c, NodeId src, std::uint64_t key) {
  return static_cast<std::uint32_t>(route(c, src, key).size() - 1);
}

TEST(Chord, RouteReachesOwner) {
  ChordOverlay c{512, 8};
  Rng rng{99};
  for (int i = 0; i < 500; ++i) {
    const auto src = static_cast<NodeId>(rng.next_below(c.size()));
    const std::uint64_t key = rng.next_below(c.ring_size());
    const auto path = route(c, src, key);
    ASSERT_FALSE(path.empty());
    EXPECT_EQ(path.front(), src);
    EXPECT_EQ(path.back(), c.owner_of_key(key));
  }
}

TEST(Chord, RouteHopsLogarithmic) {
  ChordOverlay c{1024, 9};
  Rng rng{7};
  std::uint32_t max_hops = 0;
  double total = 0.0;
  const int trials = 2000;
  for (int i = 0; i < trials; ++i) {
    const auto src = static_cast<NodeId>(rng.next_below(c.size()));
    const std::uint64_t key = rng.next_below(c.ring_size());
    const std::uint32_t h = route_hops(c, src, key);
    max_hops = std::max(max_hops, h);
    total += h;
  }
  // Greedy Chord: ~ (1/2) log2 n average, <= ~2 log2 n whp.
  EXPECT_LE(total / trials, 1.2 * 10.0);
  EXPECT_LE(max_hops, 2 * 10 + 4);
}

TEST(Chord, RouteFromOwnerIsZeroHops) {
  ChordOverlay c{64, 10};
  const std::uint64_t key = c.id_of(5);
  EXPECT_EQ(route_hops(c, 5, key), 0u);
}

TEST(Chord, SmearWidthLogarithmic) {
  EXPECT_EQ(ChordOverlay(256, 1).smear_width(), 8u);
  EXPECT_EQ(ChordOverlay(1 << 12, 1).smear_width(), 12u);
}

TEST(Chord, DeterministicFromSeed) {
  ChordOverlay a{100, 42}, b{100, 42};
  for (NodeId v = 0; v < 100; ++v) EXPECT_EQ(a.id_of(v), b.id_of(v));
}

TEST(Chord, RejectsTinyNetworks) {
  EXPECT_THROW(ChordOverlay(1, 0), std::invalid_argument);
}

}  // namespace
}  // namespace drrg
