// End-to-end contact/impact partitioning experiment (paper Section 5).
//
// Runs both algorithms over the full snapshot sequence of the impact
// simulation and accounts the paper's metrics per snapshot:
//   FEComm   — total communication volume of the mesh partition
//   NTNodes  — descriptor-tree size (MCML+DT)
//   NRemote  — surface elements shipped for global search
//   M2MComm  — FE <-> contact decomposition transfer (ML+RCB)
//   UpdComm  — incremental-RCB redistribution (ML+RCB)
// Averages over the sequence reproduce Table 1; the per-snapshot series
// drive the time-series figures and the ablations.
#pragma once

#include <iosfwd>
#include <vector>

#include "core/mcml_dt.hpp"
#include "core/ml_rcb.hpp"
#include "parallel/worker_pool.hpp"
#include "runtime/exchange.hpp"
#include "runtime/fault_injector.hpp"
#include "runtime/health.hpp"
#include "sim/impact_sim.hpp"

namespace cpart {

enum class UpdatePolicy {
  /// Keep the mesh partition fixed; rebuild only the descriptors each
  /// snapshot (the strategy used in the paper's evaluation).
  kFixedPartition,
  /// Repartition (multi-constraint repartitioning + tree-friendly
  /// adjustment) every `repartition_period` snapshots; descriptors rebuilt
  /// every snapshot. Period 1 = paper's "first approach"; larger periods =
  /// the hybrid approach (Section 4.3).
  kPeriodicRepartition,
};

struct ExperimentConfig {
  ImpactSimConfig sim{};
  idx_t k = 25;
  double epsilon = 0.10;
  wgt_t contact_edge_weight = 5;
  std::uint64_t seed = 1;
  /// Contact-search tolerance: surface-element boxes are inflated by this
  /// fraction of the mean plate cell size before filtering.
  double margin_cell_fraction = 0.5;
  UpdatePolicy policy = UpdatePolicy::kFixedPartition;
  idx_t repartition_period = 10;  // used by kPeriodicRepartition
  /// Ablation switches.
  bool tree_friendly = true;
  double gap_alpha = 0.0;
  /// Use the geometry-aware multi-constraint initial partition (Section 6
  /// future-work direction) instead of multilevel graph partitioning.
  bool geometric_init = false;
  /// Process only every `stride`-th snapshot (1 = all). Lets quick checks
  /// subsample the sequence without changing the simulated trajectory.
  idx_t snapshot_stride = 1;
  /// Opt-in probe of the rank-owned DistributedSim: drives the live
  /// migration protocol over the same snapshots (repartitioning every
  /// `repartition_period` steps under kPeriodicRepartition, never under
  /// kFixedPartition) and aggregates its transport health and migration
  /// accounting into the result. Shares the fault/retry knobs below.
  bool distributed_probe = false;
  /// Fault schedule for the probe (cell_fault_probability == 0 -> clean
  /// transport) and its retry budget.
  FaultConfig fault{};
  RetryPolicy retry{};
};

/// Per-snapshot metric record.
struct SnapshotMetrics {
  idx_t step = 0;
  idx_t contact_nodes = 0;
  idx_t surface_faces = 0;
  // MCML+DT
  wgt_t dt_fe_comm = 0;
  wgt_t dt_tree_nodes = 0;
  wgt_t dt_remote = 0;
  wgt_t dt_repart_moved = 0;
  double dt_imbalance_fe = 0;
  double dt_imbalance_contact = 0;
  // ML+RCB
  wgt_t rcb_fe_comm = 0;
  wgt_t rcb_m2m = 0;
  wgt_t rcb_upd = 0;
  wgt_t rcb_remote = 0;
  double rcb_imbalance_fe = 0;
  double rcb_imbalance_contact = 0;
};

struct AlgorithmAverages {
  double fe_comm = 0;
  double tree_nodes = 0;  // MCML+DT only
  double remote = 0;
  double m2m = 0;   // ML+RCB only
  double upd = 0;   // ML+RCB only
  double repart_moved = 0;  // repartition policies only
  double imbalance_fe = 0;
  double imbalance_contact = 0;
  /// Mean per-step communication including decomposition-coupling costs:
  /// FEComm + 2*M2MComm + UpdComm (+ repartition movement). The quantity
  /// behind the paper's "72% / 29% more communication" claim.
  double total_step_comm = 0;
};

struct ExperimentResult {
  idx_t k = 0;
  idx_t snapshots = 0;
  std::vector<SnapshotMetrics> series;
  AlgorithmAverages mcml_dt;
  AlgorithmAverages ml_rcb;
  /// Aggregates of the DistributedSim probe; all zero when
  /// ExperimentConfig::distributed_probe is off.
  PipelineHealth distributed_health;
  idx_t distributed_probe_steps = 0;
  idx_t distributed_migration_steps = 0;
  wgt_t distributed_moved_nodes = 0;
  wgt_t distributed_moved_elements = 0;
  wgt_t distributed_migration_bytes = 0;
  /// Shared-scheduler activity over this experiment: the global pool's
  /// counters as a delta from experiment start (items_executed,
  /// gang_slots_executed), with the instantaneous gauges (worker counts,
  /// queue depths, registered arenas) sampled at the end.
  SchedulerStats scheduler;
};

/// Runs the full experiment. When `progress` is non-null, one line per
/// snapshot is written to it.
ExperimentResult run_contact_experiment(const ExperimentConfig& config,
                                        std::ostream* progress = nullptr);

}  // namespace cpart
