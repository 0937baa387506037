// Million-node scale tests: the implicit topology backends, their
// bit-equivalence to the CSR cache, and the memory/time envelope of
// n = 1M single runs.
//
// The implicit backends (chord offset-table rotation, lattice coordinate
// arithmetic) must be *observationally identical* to the materialised CSR
// adjacency: same degrees, same sorted neighbor lists, same pseudo-
// diameter, same peer-sampling draws, and therefore byte-identical run
// reports with either backend forced.  The 1M smoke runs then pin the
// scaling claim itself: a dense push-sum and an implicit chord-ring DRR
// complete in-process under a peak-RSS budget that a materialised CSR
// build at that size would comfortably break.

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/registry.hpp"
#include "api/report_hash.hpp"
#include "sim/topology.hpp"
#include "support/peak_rss.hpp"
#include "topology/builders.hpp"

namespace drrg {
namespace {

sim::Topology build(sim::TopologyKind kind, sim::TopologyBackend backend,
                    std::uint32_t n, bool torus = false) {
  sim::TopologySpec spec;
  spec.kind = kind;
  spec.backend = backend;
  spec.torus = torus;
  return sim::make_topology(spec, n, 13);
}

void expect_backends_identical(sim::TopologyKind kind, std::uint32_t n,
                               bool torus, const char* name) {
  const sim::Topology csr = build(kind, sim::TopologyBackend::kCsr, n, torus);
  const sim::Topology imp = build(kind, sim::TopologyBackend::kImplicit, n, torus);
  ASSERT_NE(csr.graph(), nullptr) << name;
  ASSERT_EQ(imp.graph(), nullptr) << name;
  ASSERT_TRUE(imp.is_implicit()) << name;
  EXPECT_EQ(imp.diameter(), csr.diameter()) << name;
  EXPECT_EQ(imp.size(), csr.size()) << name;

  std::vector<NodeId> nbrs(n);
  for (NodeId v = 0; v < n; ++v) {
    const auto slice = csr.graph()->neighbors(v);
    ASSERT_EQ(imp.degree(v), slice.size()) << name << " node " << v;
    const std::uint32_t deg = imp.implicit_neighbors(v, nbrs.data());
    ASSERT_EQ(deg, slice.size()) << name << " node " << v;
    for (std::uint32_t j = 0; j < deg; ++j)
      ASSERT_EQ(nbrs[j], slice[j]) << name << " node " << v << " slot " << j;
  }

  // Twin RNG streams must sample the same peers: the implicit rotation is
  // required to index the sorted neighbor list exactly like the CSR slice.
  Rng a{99};
  Rng b{99};
  for (int i = 0; i < 4000; ++i) {
    const NodeId caller = static_cast<NodeId>(i % n);
    ASSERT_EQ(imp.sample_peer(caller, n, a), csr.sample_peer(caller, n, b))
        << name << " caller " << caller;
  }
}

TEST(ImplicitTopology, ChordMatchesCsr) {
  expect_backends_identical(sim::TopologyKind::kChordRing, 256, false, "chord-256");
  expect_backends_identical(sim::TopologyKind::kChordRing, 250, false, "chord-250");
}

TEST(ImplicitTopology, GridAndTorusMatchCsr) {
  expect_backends_identical(sim::TopologyKind::kGrid2d, 256, false, "grid-256");
  expect_backends_identical(sim::TopologyKind::kGrid2d, 256, true, "torus-256");
  expect_backends_identical(sim::TopologyKind::kGrid2d, 240, false, "grid-240");
  expect_backends_identical(sim::TopologyKind::kGrid2d, 240, true, "torus-240");
}

TEST(ImplicitTopology, AutoSwitchesAtThreshold) {
  const std::uint32_t at = sim::kImplicitAutoThreshold;
  EXPECT_FALSE(build(sim::TopologyKind::kChordRing, sim::TopologyBackend::kAuto,
                     at / 2)
                   .is_implicit());
  EXPECT_TRUE(build(sim::TopologyKind::kChordRing, sim::TopologyBackend::kAuto, at)
                  .is_implicit());
  EXPECT_TRUE(build(sim::TopologyKind::kGrid2d, sim::TopologyBackend::kAuto, at)
                  .is_implicit());
}

/// One storage rule: sim::uses_implicit_backend over api::effective_topology
/// (what the CLI's "backend" field prints) names the storage make_topology
/// builds, on both sides of the auto threshold and for both pipelines.
TEST(ImplicitTopology, StorageRuleMatchesMakeTopology) {
  const std::uint32_t at = sim::kImplicitAutoThreshold;
  for (const sim::TopologyKind kind :
       {sim::TopologyKind::kChordRing, sim::TopologyKind::kGrid2d}) {
    for (const sim::TopologyBackend backend :
         {sim::TopologyBackend::kAuto, sim::TopologyBackend::kCsr,
          sim::TopologyBackend::kImplicit}) {
      for (const std::uint32_t n : {1024u, at}) {
        for (const api::Pipeline pipeline : {api::Pipeline::kDense, api::Pipeline::kSparse}) {
          api::RunSpec spec;
          spec.n = n;
          spec.topology.kind = kind;
          spec.topology.backend = backend;
          spec.pipeline = pipeline;
          const sim::TopologySpec topology = api::effective_topology(spec);
          const bool implicit = sim::uses_implicit_backend(topology, n);
          const std::string what = std::string{sim::to_string(kind)} + "/" +
                                   std::string{sim::to_string(backend)} + "/" +
                                   std::string{api::to_string(pipeline)} + " n " +
                                   std::to_string(n);
          if (pipeline == api::Pipeline::kSparse) {
            EXPECT_FALSE(implicit) << what;
          }
          if (!implicit && n >= at) continue;  // a CSR build this large is slow
          EXPECT_EQ(sim::make_topology(topology, n, 13).is_implicit(), implicit) << what;
        }
      }
    }
  }
}

TEST(ImplicitTopology, RandomRegularRejectsImplicit) {
  sim::TopologySpec spec;
  spec.kind = sim::TopologyKind::kRandomRegular;
  spec.backend = sim::TopologyBackend::kImplicit;
  EXPECT_THROW((void)sim::make_topology(spec, 256, 13), std::invalid_argument);
}

/// Whole-run equivalence: a DRR run on every structured family hashes
/// identically with either backend forced.
TEST(ImplicitTopology, RunChecksumsMatchCsr) {
  struct Case {
    sim::TopologyKind kind;
    bool torus;
    const char* name;
  };
  for (const Case c : {Case{sim::TopologyKind::kChordRing, false, "chord"},
                       Case{sim::TopologyKind::kGrid2d, false, "grid"},
                       Case{sim::TopologyKind::kGrid2d, true, "torus"}}) {
    api::RunSpec spec;
    spec.n = 256;
    spec.aggregate = api::Aggregate::kAve;
    spec.seed = 77;
    spec.topology.kind = c.kind;
    spec.topology.torus = c.torus;
    spec.faults.loss_prob = 0.05;
    spec.topology.backend = sim::TopologyBackend::kCsr;
    const api::RunReport csr = api::run("drr", spec);
    spec.topology.backend = sim::TopologyBackend::kImplicit;
    const api::RunReport imp = api::run("drr", spec);
    ASSERT_TRUE(csr.ok() && imp.ok()) << c.name;
    EXPECT_EQ(api::report_checksum(imp), api::report_checksum(csr)) << c.name;
  }
}

/// The sparse pipeline walks real adjacency: requesting the implicit
/// backend there is overridden back to CSR by the scenario layer rather
/// than crashing mid-run.
TEST(ImplicitTopology, SparsePipelineForcesCsr) {
  api::RunSpec spec;
  spec.n = 240;
  spec.aggregate = api::Aggregate::kAve;
  spec.seed = 31;
  spec.topology.kind = sim::TopologyKind::kGrid2d;
  spec.pipeline = api::Pipeline::kSparse;
  const api::RunReport csr_backed = api::run("drr", spec);
  ASSERT_TRUE(csr_backed.ok()) << csr_backed.error;
  spec.topology.backend = sim::TopologyBackend::kImplicit;
  const api::RunReport forced = api::run("drr", spec);
  ASSERT_TRUE(forced.ok()) << forced.error;
  EXPECT_EQ(api::report_checksum(forced), api::report_checksum(csr_backed));
}

// ---------------------------------------------------------------------------
// Satellite: Topology::degree() on complete topologies.

TEST(TopologyDegree, CompleteWithRecordedSizeAnswers) {
  EXPECT_EQ(sim::Topology::complete_of(256).degree(7), 255u);
  sim::TopologySpec spec;  // kComplete
  const sim::Topology t = sim::make_topology(spec, 512, 1);
  EXPECT_EQ(t.degree(0), 511u);
}

TEST(TopologyDegreeDeathTest, UnsizedCompleteAborts) {
  // Historically this dereferenced a null CSR offsets pointer; now it is a
  // diagnosable hard abort.
  EXPECT_DEATH((void)sim::Topology::complete().degree(0), "");
}

// ---------------------------------------------------------------------------
// Satellite: prime-n "grid" rejection.

TEST(GridShape, PrimeAndTinyHaveNoShape) {
  EXPECT_EQ(sim::grid_shape(251).rows, 1u);
  EXPECT_EQ(sim::grid_shape(7).rows, 1u);
  EXPECT_EQ(sim::grid_shape(240).rows, 15u);
  EXPECT_EQ(sim::grid_shape(240).cols, 16u);
  EXPECT_EQ(sim::grid_shape(256).rows, 16u);
}

TEST(GridShape, PrimeGridIsRejectedNotDegenerate) {
  sim::TopologySpec spec;
  spec.kind = sim::TopologyKind::kGrid2d;
  // A 1 x 251 "grid" is a path with diameter 250; building it silently
  // used to invalidate every grid-family result at prime n.
  EXPECT_THROW((void)sim::make_topology(spec, 251, 13), std::invalid_argument);
  EXPECT_THROW((void)sim::make_topology(spec, 3, 13), std::invalid_argument);
  // The api layer surfaces it as a failed report, not a crash.
  api::RunSpec rs;
  rs.n = 251;
  rs.aggregate = api::Aggregate::kAve;
  rs.topology.kind = sim::TopologyKind::kGrid2d;
  const api::RunReport r = api::run("drr", rs);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("grid"), std::string::npos) << r.error;
  // Composite n still builds fine.
  EXPECT_NO_THROW((void)sim::make_topology(spec, 15, 13));
}

// ---------------------------------------------------------------------------
// Tentpole smoke: n = 1M single runs complete in-process under a peak-RSS
// budget.  The budget is far above the measured footprint (~300 MiB for
// the pair) but far below what a materialised 1M-node chord CSR build
// (~20M edges plus construction scratch) plus eager per-node state would
// reach; it exists to catch accidental O(n log n) materialisation.

constexpr std::uint32_t kMillion = 1u << 20;
constexpr std::size_t kRssBudgetMib = 1024;

TEST(MillionNodeSmoke, ImplicitChordTopologyIsChosenAutomatically) {
  const sim::Topology t =
      build(sim::TopologyKind::kChordRing, sim::TopologyBackend::kAuto, kMillion);
  EXPECT_TRUE(t.is_implicit());
  EXPECT_EQ(t.graph(), nullptr);
  EXPECT_EQ(t.size(), kMillion);
  EXPECT_EQ(t.degree(0), 39u);  // 2*log2(n) - 1: {1,2,4,...,2^19} u {n-s}
  EXPECT_GE(t.diameter(), 10u);
}

TEST(MillionNodeSmoke, DensePushSumCompletes) {
  api::RunSpec spec;
  spec.n = kMillion;
  spec.aggregate = api::Aggregate::kAve;
  spec.seed = 1;
  const api::RunReport r = api::run("uniform", spec);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_LT(r.rel_error(), 1e-9);
  // 0 when VmHWM is unreadable (non-Linux): no budget to check then.
  const double rss = support::peak_rss_mib();
  if (rss != 0.0) {
    EXPECT_LT(rss, kRssBudgetMib);
  }
}

TEST(MillionNodeSmoke, ImplicitChordDrrCompletes) {
  api::RunSpec spec;
  spec.n = kMillion;
  spec.aggregate = api::Aggregate::kAve;
  spec.seed = 1;
  spec.topology.kind = sim::TopologyKind::kChordRing;
  const api::RunReport r = api::run("drr", spec);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_TRUE(r.consensus);
  EXPECT_LT(r.rel_error(), 1e-6);
  // O(n log n) messages: c * n * log2(n) with a generous constant.
  const double nlogn = static_cast<double>(kMillion) * 20.0;
  EXPECT_LT(static_cast<double>(r.cost.sent), 8.0 * nlogn);
  // 0 when VmHWM is unreadable (non-Linux): no budget to check then.
  const double rss = support::peak_rss_mib();
  if (rss != 0.0) {
    EXPECT_LT(rss, kRssBudgetMib);
  }
}

}  // namespace
}  // namespace drrg
