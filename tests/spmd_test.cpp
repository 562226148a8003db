// SPMD-vs-centralized equivalence of the ML+RCB baseline: its rank/exchange
// execution must be bit-identical to the retained centralized reference —
// merged events, per-rank event counts, and per-processor traffic — at 1
// worker thread and at 8. The MCML+DT step's executed halo traffic must
// equal the analytic driver on the same decomposition (the MCML+DT
// SPMD-vs-reference suite is tests/distributed_test.cpp).
#include <gtest/gtest.h>

#include "core/distributed_sim.hpp"
#include "core/pipeline.hpp"
#include "mesh/mesh_graphs.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/impact_sim.hpp"

namespace cpart {
namespace {

void expect_events_identical(const std::vector<ContactEvent>& got,
                             const std::vector<ContactEvent>& want,
                             const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].node, want[i].node) << what << " event " << i;
    EXPECT_EQ(got[i].face, want[i].face) << what << " event " << i;
    // EXPECT_EQ on doubles is exact comparison — bit-identity, not
    // tolerance.
    EXPECT_EQ(got[i].distance, want[i].distance) << what << " event " << i;
    EXPECT_EQ(got[i].signed_distance, want[i].signed_distance)
        << what << " event " << i;
    for (int c = 0; c < 3; ++c) {
      EXPECT_EQ(got[i].closest_point[c], want[i].closest_point[c])
          << what << " event " << i;
    }
  }
}

class SpmdTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ImpactSimConfig sc;
    sc.plate_cells_xy = 16;
    sc.plate_cells_z = 2;
    sc.proj_cells_diameter = 6;
    sc.proj_cells_z = 6;
    sc.num_snapshots = 60;
    sim_ = std::make_unique<ImpactSim>(sc);
    snap0_ = sim_->snapshot(0);
    body_.resize(static_cast<std::size_t>(snap0_.mesh.num_nodes()));
    for (std::size_t i = 0; i < body_.size(); ++i) {
      body_[i] = static_cast<int>(sim_->node_body()[i]);
    }
  }

  void TearDown() override {
    // Other test binaries assume the default pool; restore it.
    ThreadPool::set_global_threads(0);
  }

  MlRcbPipelineConfig rcb_config(idx_t k) const {
    MlRcbPipelineConfig c;
    c.decomposition.k = k;
    c.search.search_margin = 0.12;
    c.search.contact_tolerance = 0.08;
    return c;
  }

  // The RCB update is stateful, so the SPMD and reference flavors each
  // drive their own identically-seeded instance through the sequence.
  void check_mlrcb_pipeline(idx_t k) {
    MlRcbPipeline spmd(snap0_.mesh, snap0_.surface, rcb_config(k));
    MlRcbPipeline oracle(snap0_.mesh, snap0_.surface, rcb_config(k));
    for (idx_t s : {idx_t{10}, idx_t{20}, idx_t{29}}) {
      const auto snap = sim_->snapshot(s);
      const MlRcbStepReport ref =
          oracle.run_step_reference(snap.mesh, snap.surface, body_);
      const MlRcbStepReport got = spmd.run_step(snap.mesh, snap.surface, body_);
      expect_events_identical(got.events, ref.events, "mlrcb");
      EXPECT_EQ(got.events_per_processor, ref.events_per_processor);
      EXPECT_EQ(got.contact_events, ref.contact_events);
      EXPECT_EQ(got.penetrating_events, ref.penetrating_events);
      EXPECT_EQ(got.upd_comm, ref.upd_comm) << "s=" << s;
      EXPECT_EQ(got.fe_exchange, ref.fe_exchange) << "s=" << s;
      EXPECT_EQ(got.coupling_exchange, ref.coupling_exchange) << "s=" << s;
      EXPECT_EQ(got.search_exchange, ref.search_exchange) << "s=" << s;
      EXPECT_EQ(got.coupling_payload_bytes,
                got.coupling_exchange.total_units() *
                    wire_bytes(ContactPointMsg{}));
      EXPECT_EQ(got.box_allgather_bytes, static_cast<wgt_t>(k) * (k - 1) *
                                             wire_bytes(SubdomainBoxMsg{}));
      EXPECT_TRUE(got.health.clean()) << got.health.summary();
      EXPECT_EQ(got.health.deliveries, 2);
    }
  }

  std::unique_ptr<ImpactSim> sim_;
  ImpactSim::Snapshot snap0_;
  std::vector<int> body_;
};

TEST_F(SpmdTest, MlRcbPipelineMatchesReferenceSingleThread) {
  ThreadPool::set_global_threads(1);
  check_mlrcb_pipeline(4);
}

TEST_F(SpmdTest, MlRcbPipelineMatchesReferenceEightThreads) {
  ThreadPool::set_global_threads(8);
  check_mlrcb_pipeline(4);
  check_mlrcb_pipeline(7);
}

TEST_F(SpmdTest, SpmdTrafficMatchesAnalyticDrivers) {
  // The executed exchange must agree with the analytic traffic generators
  // run on the same decomposition — the third leg of the cross-validation
  // (SPMD == centralized == analytic).
  ThreadPool::set_global_threads(8);
  const idx_t k = 5;
  DistributedSimConfig config;
  config.decomposition.k = k;
  config.search.search_margin = 0.12;
  config.search.contact_tolerance = 0.08;
  DistributedSim dsim(*sim_, config);
  // Snapshot 45 is past the first eroded elements. The rank states track
  // the element closure over the immutable topology (erosion is a per-step
  // predicate, not a connectivity change), so the analytic halo runs on the
  // nodal graph of the initial mesh.
  const idx_t s = 45;
  ASSERT_LT(sim_->snapshot(s).mesh.num_elements(),
            dsim.topology().mesh().num_elements());
  const DistributedStepReport r = dsim.run_step(s);
  const CsrGraph graph = nodal_graph(dsim.topology().mesh());
  EXPECT_EQ(r.fe_exchange, fe_halo_traffic(graph, dsim.ownership_map(), k));
}

TEST_F(SpmdTest, SingleRankMovesNoBytes) {
  ThreadPool::set_global_threads(8);
  MlRcbPipeline spmd(snap0_.mesh, snap0_.surface, rcb_config(1));
  MlRcbPipeline oracle(snap0_.mesh, snap0_.surface, rcb_config(1));
  const auto snap = sim_->snapshot(29);
  const MlRcbStepReport r = spmd.run_step(snap.mesh, snap.surface, body_);
  EXPECT_EQ(r.halo_payload_bytes, 0);
  EXPECT_EQ(r.face_payload_bytes, 0);
  EXPECT_EQ(r.coupling_payload_bytes, 0);
  EXPECT_EQ(r.box_allgather_bytes, 0);
  EXPECT_EQ(r.fe_exchange.total_units(), 0);
  EXPECT_EQ(r.coupling_exchange.total_units(), 0);
  EXPECT_EQ(r.search_exchange.total_units(), 0);
  const MlRcbStepReport ref =
      oracle.run_step_reference(snap.mesh, snap.surface, body_);
  expect_events_identical(r.events, ref.events, "k=1");
}

TEST_F(SpmdTest, ForeignSnapshotIsRejected) {
  // Snapshots must come from the sequence the pipeline was built on: node
  // ids are the partition's frame of reference, so a mesh of a different
  // simulation (different node count) must be rejected up front instead of
  // silently mis-partitioning.
  ThreadPool::set_global_threads(4);
  ImpactSimConfig other_config;
  other_config.plate_cells_xy = 8;
  other_config.plate_cells_z = 2;
  other_config.proj_cells_diameter = 4;
  other_config.proj_cells_z = 4;
  other_config.num_snapshots = 10;
  ImpactSim other(other_config);
  const auto foreign = other.snapshot(3);
  std::vector<int> foreign_body(
      static_cast<std::size_t>(foreign.mesh.num_nodes()), 0);

  MlRcbPipeline mlrcb(snap0_.mesh, snap0_.surface, rcb_config(3));
  EXPECT_THROW(mlrcb.run_step(foreign.mesh, foreign.surface, foreign_body),
               InputError);
  EXPECT_THROW(
      mlrcb.run_step_reference(foreign.mesh, foreign.surface, foreign_body),
      InputError);
}

TEST_F(SpmdTest, GrowingElementCountIsRejected) {
  // Elements only erode across a valid sequence. A pipeline built on a
  // late (eroded) snapshot must reject an earlier snapshot with more
  // elements — that is a sequence driven backwards or a foreign mesh.
  ThreadPool::set_global_threads(4);
  const auto late = sim_->snapshot(45);
  ASSERT_LT(late.mesh.num_elements(), snap0_.mesh.num_elements());
  MlRcbPipeline mlrcb(late.mesh, late.surface, rcb_config(3));
  EXPECT_THROW(mlrcb.run_step(snap0_.mesh, snap0_.surface, body_),
               InputError);
}

}  // namespace
}  // namespace cpart
