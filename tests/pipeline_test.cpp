// End-to-end tests of the parallel contact step: the MCML+DT step driven by
// DistributedSim and the ML+RCB baseline pipeline, including the exactness
// property — the distributed search finds exactly the events a serial
// search finds (no contact is lost to the decomposition).
#include <gtest/gtest.h>

#include "core/distributed_sim.hpp"
#include "core/pipeline.hpp"
#include "sim/impact_sim.hpp"

namespace cpart {
namespace {

class PipelineTest : public ::testing::Test {
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

  DistributedSimConfig config(idx_t k) const {
    DistributedSimConfig c;
    c.decomposition.k = k;
    c.search.search_margin = 0.12;
    c.search.contact_tolerance = 0.08;
    return c;
  }

  std::vector<ContactEvent> serial_events(const ImpactSim::Snapshot& snap) {
    LocalSearchOptions serial_opts;
    serial_opts.tolerance = 0.08;
    serial_opts.body_of_node = body_;
    return local_contact_search(snap.mesh, snap.surface, serial_opts);
  }

  std::unique_ptr<ImpactSim> sim_;
  ImpactSim::Snapshot snap0_;
  std::vector<int> body_;
};

TEST_F(PipelineTest, RejectsMarginSmallerThanTolerance) {
  DistributedSimConfig c = config(4);
  c.search.search_margin = 0.01;
  EXPECT_THROW(DistributedSim(*sim_, c), InputError);
}

TEST_F(PipelineTest, DistributedSearchMatchesSerial) {
  // The crucial end-to-end property: for any k, the union of per-processor
  // searches equals the serial search — the descriptor filter shipped every
  // element everywhere it was needed.
  const idx_t s = 29;  // impact on the upper plate region
  const auto serial = serial_events(sim_->snapshot(s));
  ASSERT_GT(serial.size(), 0u) << "scenario produced no contacts to verify";

  for (idx_t k : {idx_t{2}, idx_t{5}, idx_t{9}}) {
    DistributedSim dsim(*sim_, config(k));
    const DistributedStepReport report = dsim.run_step(s);
    ASSERT_EQ(report.events.size(), serial.size()) << "k=" << k;
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(report.events[i].node, serial[i].node) << "k=" << k;
      EXPECT_DOUBLE_EQ(report.events[i].distance, serial[i].distance)
          << "k=" << k;
    }
  }
}

TEST_F(PipelineTest, ReportBookkeepingConsistent) {
  DistributedSim dsim(*sim_, config(6));
  const DistributedStepReport r = dsim.run_step(29);
  // Per-processor counts sum to the total.
  idx_t sum = 0;
  for (idx_t c : r.events_per_processor) sum += c;
  EXPECT_EQ(sum, r.contact_events);
  EXPECT_LE(r.penetrating_events, r.contact_events);
  // Broadcast cost scales with (k - 1) serialized trees.
  EXPECT_GT(r.descriptor_broadcast_bytes, 0);
  EXPECT_EQ(r.descriptor_broadcast_bytes % 5, 0);  // divisible by k-1 = 5
  // Traffic snapshots carry k processors each.
  EXPECT_EQ(r.fe_exchange.num_processors(), 6);
  EXPECT_EQ(r.search_exchange.num_processors(), 6);
  EXPECT_GT(r.fe_exchange.total_units(), 0);
}

TEST_F(PipelineTest, QuietSnapshotHasNoEvents) {
  // Snapshot 0: the projectile hovers above the plate beyond tolerance.
  DistributedSim dsim(*sim_, config(4));
  const DistributedStepReport r = dsim.run_step(0);
  EXPECT_EQ(r.contact_events, 0);
  EXPECT_GT(r.fe_exchange.total_units(), 0);  // halo exchange still happens
}

TEST_F(PipelineTest, MlRcbPipelineMatchesSerialToo) {
  // The baseline's bounding-box filter is also conservative: its
  // distributed search must reproduce the serial events as well. Note the
  // ML+RCB local search runs in the *RCB* decomposition of contact nodes.
  const auto serial = serial_events(sim_->snapshot(29));
  ASSERT_GT(serial.size(), 0u);

  MlRcbPipelineConfig config;
  config.decomposition.k = 5;
  config.search.search_margin = 0.12;
  config.search.contact_tolerance = 0.08;
  MlRcbPipeline pipeline(snap0_.mesh, snap0_.surface, config);
  // Advance through the snapshots in order (the RCB update is stateful).
  MlRcbStepReport report;
  for (idx_t s : {idx_t{10}, idx_t{20}, idx_t{29}}) {
    const auto si = sim_->snapshot(s);
    report = pipeline.run_step(si.mesh, si.surface, body_);
  }
  ASSERT_EQ(report.events.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(report.events[i].node, serial[i].node);
    EXPECT_DOUBLE_EQ(report.events[i].distance, serial[i].distance);
  }
  // Coupling traffic exists and UpdComm was reported after the first step.
  EXPECT_GT(report.coupling_exchange.total_units(), 0);
}

TEST_F(PipelineTest, MlRcbCouplingIsEvenUnits) {
  const auto snap = sim_->snapshot(20);
  MlRcbPipelineConfig config;
  config.decomposition.k = 4;
  config.search.search_margin = 0.12;
  config.search.contact_tolerance = 0.08;
  MlRcbPipeline pipeline(snap0_.mesh, snap0_.surface, config);
  const MlRcbStepReport r = pipeline.run_step(snap.mesh, snap.surface, body_);
  // One unit each way per mismatched point: total units are even.
  EXPECT_EQ(r.coupling_exchange.total_units() % 2, 0);
}

TEST_F(PipelineTest, SingleProcessorDegenerates) {
  const idx_t s = 29;
  DistributedSim dsim(*sim_, config(1));
  const DistributedStepReport r = dsim.run_step(s);
  EXPECT_EQ(r.fe_exchange.total_units(), 0);
  EXPECT_EQ(r.search_exchange.total_units(), 0);
  EXPECT_EQ(r.descriptor_broadcast_bytes, 0);  // nobody to broadcast to
  EXPECT_EQ(r.events.size(), serial_events(sim_->snapshot(s)).size());
}

}  // namespace
}  // namespace cpart
