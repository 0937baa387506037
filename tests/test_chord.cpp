// Tests of the Chord overlay: identifiers, routing, and the near-uniform
// sampler that implements §4 Assumption (2).

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "chord/chord.hpp"
#include "support/mathutil.hpp"
#include "support/stats.hpp"

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

TEST(Chord, ArcLengthsSumToRing) {
  ChordOverlay c{128, 6};
  std::uint64_t total = 0;
  for (NodeId v = 0; v < c.size(); ++v) total += c.arc_length(v);
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

TEST(Chord, RouteReachesOwner) {
  ChordOverlay c{512, 8};
  Rng rng{99};
  for (int i = 0; i < 500; ++i) {
    const auto src = static_cast<NodeId>(rng.next_below(c.size()));
    const std::uint64_t key = rng.next_below(c.ring_size());
    const auto path = c.route(src, key);
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
    const std::uint32_t h = c.route_hops(src, key);
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
  EXPECT_EQ(c.route_hops(5, key), 0u);
}

TEST(Chord, SamplerCoversEveryNode) {
  ChordOverlay c{256, 11};
  Rng rng{13};
  std::vector<std::uint64_t> counts(c.size(), 0);
  for (int i = 0; i < 100000; ++i)
    ++counts[c.sample_near_uniform(static_cast<NodeId>(rng.next_below(c.size())), rng)];
  const double expected = 100000.0 / c.size();
  for (NodeId v = 0; v < c.size(); ++v) {
    EXPECT_GT(counts[v], 0u) << "node " << v << " never sampled";
    // Smearing over S arcs keeps every node within a constant factor.
    EXPECT_GT(static_cast<double>(counts[v]), expected / 8.0);
    EXPECT_LT(static_cast<double>(counts[v]), expected * 8.0);
  }
}

TEST(Chord, SamplerHopsLogarithmic) {
  ChordOverlay c{1024, 12};
  Rng rng{17};
  double total = 0.0;
  const int trials = 3000;
  for (int i = 0; i < trials; ++i) {
    std::uint32_t hops = 0;
    (void)c.sample_near_uniform(static_cast<NodeId>(rng.next_below(c.size())), rng, &hops);
    total += hops;
  }
  // Routing ~ (1/2) log n plus the successor walk ~ S/2.
  EXPECT_LE(total / trials, 3.0 * 10.0);
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
