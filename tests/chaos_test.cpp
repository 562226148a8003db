// Chaos tests for the fault-injected exchange transport: every fault kind
// must be detected by the cell framing/checksum, retries must recover from
// transient corruption with bit-identical results, exhausted budgets must
// degrade to the centralized reference path instead of crashing, and the
// health counters must match the injected schedule exactly. The soaks drive
// both SPMD steps: DistributedSim (MCML+DT) and MlRcbPipeline.
//
// The soak seed can be swept from CI via the CPART_CHAOS_SEED environment
// variable (default 1); the fault schedule is a pure function of the seed,
// so every failure reproduces locally with the same value.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/distributed_sim.hpp"
#include "core/pipeline.hpp"
#include "parallel/thread_pool.hpp"
#include "runtime/async_executor.hpp"
#include "runtime/exchange.hpp"
#include "runtime/fault_injector.hpp"
#include "sim/impact_sim.hpp"

namespace cpart {
namespace {

std::uint64_t chaos_seed() {
  const char* env = std::getenv("CPART_CHAOS_SEED");
  if (env == nullptr || *env == '\0') return 1;
  return static_cast<std::uint64_t>(std::strtoull(env, nullptr, 10));
}

void expect_events_identical(const std::vector<ContactEvent>& got,
                             const std::vector<ContactEvent>& want,
                             const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].node, want[i].node) << what << " event " << i;
    EXPECT_EQ(got[i].face, want[i].face) << what << " event " << i;
    // Exact double comparison — bit-identity, not tolerance.
    EXPECT_EQ(got[i].distance, want[i].distance) << what << " event " << i;
    EXPECT_EQ(got[i].signed_distance, want[i].signed_distance)
        << what << " event " << i;
  }
}

/// A FaultConfig that fires on every cell with exactly one kind.
FaultConfig only_kind(FaultKind kind, std::uint64_t seed = 3) {
  FaultConfig fc;
  fc.seed = seed;
  fc.cell_fault_probability = 1.0;
  fc.kind_weights = {};
  fc.kind_weights[static_cast<std::size_t>(static_cast<int>(kind))] = 1.0;
  return fc;
}

/// Delivers `reads` through a one-phase AsyncExecutor run with an empty
/// body. The caller posts before the run, so the group is born closed; it
/// is one superstep, and throws TransportError when it exhausts the budget.
void deliver_group(Exchange& ex, ChannelMask reads) {
  const AsyncPhase phase{.body = [](idx_t) {}, .reads = reads};
  AsyncExecutor(ex.num_ranks()).run({&phase, 1}, ex);
}

std::vector<HaloNodeMsg> halo_inbox_payload(idx_t base) {
  std::vector<HaloNodeMsg> items;
  for (idx_t i = 0; i < 3; ++i) {
    items.push_back({base + i, Vec3{0.5 * static_cast<real_t>(i),
                                    1.25, -2.0 * static_cast<real_t>(base)}});
  }
  return items;
}

// ---------------------------------------------------------------------------
// Injection + detection unit tests
// ---------------------------------------------------------------------------

TEST(FaultInjector, ScheduleIsDeterministic) {
  const FaultConfig fc{.seed = 42, .cell_fault_probability = 0.5};
  FaultInjector a(fc);
  FaultInjector b(fc);
  for (std::uint64_t step = 0; step < 32; ++step) {
    std::vector<HaloNodeMsg> wa = halo_inbox_payload(7);
    std::vector<HaloNodeMsg> wb = halo_inbox_payload(7);
    const bool fa = a.maybe_corrupt(ChannelId::kHalo, step, 0, 0, 1, wa);
    const bool fb = b.maybe_corrupt(ChannelId::kHalo, step, 0, 0, 1, wb);
    EXPECT_EQ(fa, fb) << "superstep " << step;
    ASSERT_EQ(wa.size(), wb.size());
    for (std::size_t i = 0; i < wa.size(); ++i) {
      EXPECT_EQ(wire_hash(wa[i]), wire_hash(wb[i]));
    }
  }
  EXPECT_EQ(a.stats(), b.stats());
  EXPECT_GT(a.stats().faults_injected, 0);
  EXPECT_LT(a.stats().faults_injected, 32);  // p=0.5 must also skip some
}

TEST(Exchange, EveryFaultKindIsDetectedAndClassified) {
  for (int kind = 0; kind < kNumFaultKinds; ++kind) {
    FaultInjector injector(only_kind(static_cast<FaultKind>(kind)));
    Exchange ex(3);
    ex.set_fault_injector(&injector);
    ex.set_retry_policy({.max_attempts = 1});
    for (const HaloNodeMsg& m : halo_inbox_payload(0)) ex.halo().send(0, 1, m);
    for (const HaloNodeMsg& m : halo_inbox_payload(9)) ex.halo().send(2, 1, m);
    EXPECT_THROW(deliver_group(ex, channel_bit(ChannelId::kHalo)),
                 TransportError)
        << fault_kind_name(static_cast<FaultKind>(kind));
    const PipelineHealth h = ex.take_health();
    EXPECT_EQ(h.corrupt_cells, injector.stats().faults_injected);
    EXPECT_EQ(h.corrupt_cells,
              h.checksum_failures + h.count_mismatches);
    EXPECT_EQ(h.exhausted_deliveries, 1);
    EXPECT_EQ(h.channel(ChannelId::kHalo).corrupt_cells, h.corrupt_cells);
    switch (static_cast<FaultKind>(kind)) {
      case FaultKind::kDrop:
      case FaultKind::kDuplicate:
      case FaultKind::kTruncate:
        EXPECT_EQ(h.count_mismatches, h.corrupt_cells)
            << fault_kind_name(static_cast<FaultKind>(kind));
        break;
      case FaultKind::kBitFlip:
      case FaultKind::kReorder:
        EXPECT_EQ(h.checksum_failures, h.corrupt_cells)
            << fault_kind_name(static_cast<FaultKind>(kind));
        break;
    }
    // The exhausted delivery aborted the step: inboxes are empty and the
    // next (fault-free) delivery starts clean.
    EXPECT_TRUE(ex.halo().inbox(1).empty());
    ex.set_fault_injector(nullptr);
    for (const HaloNodeMsg& m : halo_inbox_payload(0)) ex.halo().send(0, 1, m);
    deliver_group(ex, channel_bit(ChannelId::kHalo));
    EXPECT_EQ(ex.halo().inbox(1).size(), 3u);
    EXPECT_TRUE(ex.take_health().clean());
  }
}

TEST(Exchange, PayloadTruncationOnDescriptorWireIsDetected) {
  FaultInjector injector(only_kind(FaultKind::kTruncate));
  Exchange ex(2);
  ex.set_fault_injector(&injector);
  ex.set_retry_policy({.max_attempts = 1});
  ex.descriptors().send(0, 1, DescriptorTreeMsg{"cparttree 1\n0 -1\n"});
  EXPECT_THROW(deliver_group(ex, channel_bit(ChannelId::kDescriptors)),
               TransportError);
  const PipelineHealth h = ex.take_health();
  // A variable-length message truncates its own payload: same message
  // count, different bytes -> checksum failure, not framing.
  EXPECT_EQ(h.checksum_failures, 1);
  EXPECT_EQ(h.count_mismatches, 0);
  EXPECT_EQ(h.channel(ChannelId::kDescriptors).checksum_failures, 1);
}

TEST(Exchange, RetryRedeliversPristinePayloadWithinBudget) {
  FaultConfig fc;
  fc.seed = chaos_seed();
  // Each retry re-decides independently, so the budget must cover the
  // geometric tail: p^attempts * supersteps must be negligible for every
  // seed (0.3^12 * 64 ~ 3e-5).
  fc.cell_fault_probability = 0.3;
  FaultInjector injector(fc);
  Exchange ex(2);
  ex.set_fault_injector(&injector);
  ex.set_retry_policy({.max_attempts = 12, .backoff_base_ms = 0.25});
  const std::vector<HaloNodeMsg> payload = halo_inbox_payload(100);
  wgt_t supersteps_with_faults = 0;
  for (int step = 0; step < 64; ++step) {
    const wgt_t before = injector.stats().faults_injected;
    for (const HaloNodeMsg& m : payload) ex.halo().send(0, 1, m);
    // Must never throw at this budget.
    deliver_group(ex, channel_bit(ChannelId::kHalo));
    if (injector.stats().faults_injected > before) ++supersteps_with_faults;
    // Whatever the schedule did, the inbox is the pristine outbox.
    const auto& in = ex.halo().inbox(1);
    ASSERT_EQ(in.size(), payload.size());
    for (std::size_t i = 0; i < in.size(); ++i) {
      EXPECT_EQ(wire_hash(in[i]), wire_hash(payload[i]));
    }
  }
  EXPECT_GT(supersteps_with_faults, 0) << "schedule injected nothing";
  const PipelineHealth h = ex.take_health();
  EXPECT_EQ(h.corrupt_cells, injector.stats().faults_injected);
  EXPECT_GT(h.retries, 0);
  EXPECT_GT(h.backoff_ms, 0.0);  // recorded even without sleeping
  EXPECT_EQ(h.deliveries, 64);
  EXPECT_EQ(h.exhausted_deliveries, 0);
  EXPECT_EQ(h.degraded_steps, 0);
}

TEST(Exchange, SelfSendsAreNeverFaulted) {
  FaultInjector injector(only_kind(FaultKind::kBitFlip));
  Exchange ex(2);
  ex.set_fault_injector(&injector);
  ex.set_retry_policy({.max_attempts = 1});
  ex.halo().send(0, 0, HaloNodeMsg{1, {}});  // dropped as local data
  deliver_group(ex, channel_bit(ChannelId::kHalo));
  EXPECT_EQ(injector.stats().faults_injected, 0);
  EXPECT_TRUE(ex.take_health().clean());
}

// ---------------------------------------------------------------------------
// Pipeline degradation
// ---------------------------------------------------------------------------

class ChaosPipelineTest : public ::testing::Test {
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

  void TearDown() override { ThreadPool::set_global_threads(0); }

  DistributedSimConfig dt_config(idx_t k, idx_t repartition_period) const {
    DistributedSimConfig c;
    c.decomposition.k = k;
    c.search.search_margin = 0.12;
    c.search.contact_tolerance = 0.08;
    c.repartition_period = repartition_period;
    return c;
  }

  MlRcbPipelineConfig rcb_config(idx_t k) const {
    MlRcbPipelineConfig c;
    c.decomposition.k = k;
    c.search.search_margin = 0.12;
    c.search.contact_tolerance = 0.08;
    return c;
  }

  std::unique_ptr<ImpactSim> sim_;
  ImpactSim::Snapshot snap0_;
  std::vector<int> body_;
};

TEST_F(ChaosPipelineTest, MlRcbDegradedStepMatchesOracleAndKeepsRcbState) {
  ThreadPool::set_global_threads(4);
  MlRcbPipeline faulty(snap0_.mesh, snap0_.surface, rcb_config(4));
  MlRcbPipeline oracle(snap0_.mesh, snap0_.surface, rcb_config(4));
  FaultInjector injector(
      FaultConfig{.seed = 6, .cell_fault_probability = 1.0});

  // Steps 10 and 20 degrade; step 29 runs fault-free. The stateful RCB
  // advance must happen exactly once per step either way, so the faulty
  // instance stays in lockstep with the oracle across the whole sequence.
  for (idx_t s : {idx_t{10}, idx_t{20}, idx_t{29}}) {
    const bool inject = s != 29;
    faulty.exchange().set_fault_injector(inject ? &injector : nullptr);
    faulty.exchange().set_retry_policy({.max_attempts = 2});
    const auto snap = sim_->snapshot(s);
    const MlRcbStepReport ref =
        oracle.run_step_reference(snap.mesh, snap.surface, body_);
    const MlRcbStepReport got =
        faulty.run_step(snap.mesh, snap.surface, body_);
    EXPECT_EQ(got.health.degraded(), inject) << "s=" << s;
    expect_events_identical(got.events, ref.events,
                            "mlrcb s=" + std::to_string(s));
    EXPECT_EQ(got.events_per_processor, ref.events_per_processor);
    EXPECT_EQ(got.upd_comm, ref.upd_comm) << "s=" << s;
  }
}

// ---------------------------------------------------------------------------
// Headline soak: bit-identity under a randomized-but-seeded schedule
// ---------------------------------------------------------------------------

TEST_F(ChaosPipelineTest, SoakFiftyStepsBitIdenticalAtOneAndEightThreads) {
  constexpr idx_t kSteps = 50;
  const idx_t k = 6;

  // Fault-free baseline events per step (fixed partition).
  ThreadPool::set_global_threads(8);
  std::vector<std::vector<ContactEvent>> baseline;
  {
    DistributedSim dsim(*sim_, dt_config(k, 0));
    for (idx_t s = 0; s < kSteps; ++s) {
      DistributedStepReport r = dsim.run_step(s);
      ASSERT_TRUE(r.health.clean()) << "baseline s=" << s;
      baseline.push_back(std::move(r.events));
    }
  }

  FaultConfig fc;
  fc.seed = chaos_seed();
  fc.cell_fault_probability = 0.08;
  // 0.08^8 ~ 2e-9 per cell chain: no seed can plausibly exhaust the budget.
  RetryPolicy retry{.max_attempts = 8, .backoff_base_ms = 0.1};

  PipelineHealth health_at_1;
  FaultInjector::Stats stats_at_1;
  for (unsigned threads : {1u, 8u}) {
    ThreadPool::set_global_threads(threads);
    DistributedSim dsim(*sim_, dt_config(k, 0));
    FaultInjector injector(fc);
    dsim.exchange().set_fault_injector(&injector);
    dsim.exchange().set_retry_policy(retry);

    PipelineHealth total;
    for (idx_t s = 0; s < kSteps; ++s) {
      const DistributedStepReport r = dsim.run_step(s);
      total += r.health;
      // The headline invariant: within the retry budget, contact events are
      // bit-identical to the fault-free run.
      expect_events_identical(r.events, baseline[static_cast<std::size_t>(s)],
                              "threads=" + std::to_string(threads) +
                                  " s=" + std::to_string(s));
    }

    // Every injected fault was detected, nothing was detected that was not
    // injected, and no step needed the degraded path.
    EXPECT_EQ(total.corrupt_cells, injector.stats().faults_injected);
    EXPECT_GT(injector.stats().faults_injected, 0) << "schedule was empty";
    EXPECT_GT(total.retries, 0);
    EXPECT_EQ(total.exhausted_deliveries, 0);
    EXPECT_EQ(total.degraded_steps, 0);
    EXPECT_EQ(total.wire_parse_failures, 0);
    EXPECT_EQ(total.deliveries, wgt_t{4} * kSteps);

    if (threads == 1) {
      health_at_1 = total;
      stats_at_1 = injector.stats();
    } else {
      // Counter-based decisions: the schedule and therefore the entire
      // health history is thread-count independent.
      EXPECT_EQ(total, health_at_1);
      EXPECT_EQ(injector.stats(), stats_at_1);
    }
  }
}

// The dependency-driven executor lets ranks finish phases out of global
// order (a rank may be searching while another is still shipping). This
// soak pins down both halves of the contract across three fixed seeds,
// with a repartition + live migration every third step:
//   * fault-free, the fully-async schedule is bit-identical to itself at 1
//     and 8 threads and to the fault-free baseline (no barrier anywhere);
//   * with an injector armed, validation gates on phase completion, so the
//     fault schedule, detection counters, and retry accounting are
//     bit-identical across thread counts — and the events still match the
//     fault-free run. Readiness-stall counters are timing-dependent by
//     nature and deliberately excluded from PipelineHealth equality.
TEST_F(ChaosPipelineTest, AsyncOutOfOrderSoakKeepsFaultScheduleAndBitIdentity) {
  constexpr idx_t kSteps = 12;
  constexpr idx_t kPeriod = 3;
  const idx_t k = 6;

  ThreadPool::set_global_threads(8);
  std::vector<DistributedStepReport> baseline;
  wgt_t baseline_deliveries = 0;
  {
    DistributedSim dsim(*sim_, dt_config(k, kPeriod));
    for (idx_t s = 0; s < kSteps; ++s) {
      DistributedStepReport r = dsim.run_step(s);
      ASSERT_TRUE(r.health.clean()) << "baseline s=" << s;
      baseline_deliveries += r.health.deliveries;
      baseline.push_back(std::move(r));
    }
  }
  // Four deliveries per step plus the migration superstep on the three
  // repartition steps.
  ASSERT_EQ(baseline_deliveries, wgt_t{4} * kSteps + (kSteps - 1) / kPeriod);

  for (const std::uint64_t seed :
       {chaos_seed(), std::uint64_t{20260805}, std::uint64_t{987654321}}) {
    FaultConfig fc;
    fc.seed = seed;
    fc.cell_fault_probability = 0.08;
    const RetryPolicy retry{.max_attempts = 8, .backoff_base_ms = 0.1};

    PipelineHealth health_at_1;
    FaultInjector::Stats stats_at_1;
    for (unsigned threads : {1u, 8u}) {
      ThreadPool::set_global_threads(threads);
      DistributedSim dsim(*sim_, dt_config(k, kPeriod));
      FaultInjector injector(fc);
      dsim.exchange().set_fault_injector(&injector);
      dsim.exchange().set_retry_policy(retry);

      PipelineHealth total;
      for (idx_t s = 0; s < kSteps; ++s) {
        const DistributedStepReport r = dsim.run_step(s);
        total += r.health;
        const DistributedStepReport& want =
            baseline[static_cast<std::size_t>(s)];
        const std::string what = "seed=" + std::to_string(seed) +
                                 " threads=" + std::to_string(threads) +
                                 " s=" + std::to_string(s);
        expect_events_identical(r.events, want.events, what);
        EXPECT_EQ(r.ownership_hash, want.ownership_hash) << what;
        EXPECT_EQ(r.repart_moved_nodes, want.repart_moved_nodes) << what;
      }
      EXPECT_EQ(total.corrupt_cells, injector.stats().faults_injected)
          << "seed=" << seed;
      EXPECT_GT(injector.stats().faults_injected, 0) << "seed=" << seed;
      EXPECT_EQ(total.degraded_steps, 0) << "seed=" << seed;
      EXPECT_EQ(total.deliveries, baseline_deliveries) << "seed=" << seed;
      if (threads == 1) {
        health_at_1 = total;
        stats_at_1 = injector.stats();
      } else {
        EXPECT_EQ(total, health_at_1) << "seed=" << seed;
        EXPECT_EQ(injector.stats(), stats_at_1) << "seed=" << seed;
      }
    }
  }
}

TEST_F(ChaosPipelineTest, MlRcbSoakUnderFaultsMatchesFaultFreeTwin) {
  constexpr idx_t kSteps = 15;
  ThreadPool::set_global_threads(8);
  MlRcbPipeline faulty(snap0_.mesh, snap0_.surface, rcb_config(4));
  MlRcbPipeline clean(snap0_.mesh, snap0_.surface, rcb_config(4));
  FaultConfig fc;
  fc.seed = chaos_seed() + 17;
  fc.cell_fault_probability = 0.08;
  FaultInjector injector(fc);
  faulty.exchange().set_fault_injector(&injector);
  faulty.exchange().set_retry_policy({.max_attempts = 8});

  PipelineHealth total;
  for (idx_t s = 0; s < kSteps; ++s) {
    const auto snap = sim_->snapshot(s);
    const MlRcbStepReport want = clean.run_step(snap.mesh, snap.surface, body_);
    const MlRcbStepReport got = faulty.run_step(snap.mesh, snap.surface, body_);
    total += got.health;
    expect_events_identical(got.events, want.events,
                            "mlrcb soak s=" + std::to_string(s));
    EXPECT_EQ(got.upd_comm, want.upd_comm) << "s=" << s;
    EXPECT_EQ(got.coupling_exchange, want.coupling_exchange) << "s=" << s;
  }
  EXPECT_EQ(total.corrupt_cells, injector.stats().faults_injected);
  EXPECT_GT(injector.stats().faults_injected, 0);
  EXPECT_EQ(total.degraded_steps, 0);
  EXPECT_EQ(total.exhausted_deliveries, 0);
}

}  // namespace
}  // namespace cpart
