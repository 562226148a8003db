// Rank-owned distributed contact simulation with live element migration —
// the SPMD driver of the MCML+DT step (paper Sections 2 and 4).
//
// No central snapshot enters the step path. Each rank holds a
// SubdomainState — the authoritative positions and contact-hit accumulators
// of exactly the nodes it owns, plus a ghost layer (the element closure of
// its owned nodes) refreshed by halo exchange — and derives everything else
// locally against the immutable MeshTopology:
//   A. kinematics + halo — each rank advances its owned nodes with the
//      closed-form ImpactSim kinematics and posts boundary positions to the
//      ranks tracking them (the halo carries the *authoritative* values;
//      receivers never recompute ghosts);
//   B. local surface extraction — each rank scans its tracked elements,
//      keeps live boundary faces in the contact zone, marks its owned
//      contact nodes, and emits a FaceRecord for every face it is the
//      majority owner of; owned contact points stream to rank 0;
//   C. descriptor induction — the driver (on behalf of rank 0) induces this
//      step's subdomain descriptors from the gathered contact points —
//      parallel subtree induction on the whole pool, warm-started from last
//      step's recycled tree storage — and broadcasts the encoded tree
//      (plus, on migration steps, one delta-coded blob of the changed
//      labels of the new repartition);
//   D. global search — every rank parses its descriptor copy and ships each
//      owned face record to the candidate ranks the tree names;
//   E. local search — owned contact nodes vs owned + received records;
//      events charge the per-node hit accumulators. On migration steps each
//      rank then computes its outgoing set from the new labels and ships
//      node state (position + hits) and element records over the exchange's
//      migration channels;
//   F. migration commit — receivers splice the migrated state, validate
//      element records against the immutable topology, and every rank
//      rebuilds its ownership views from the new labels.
//
// Supersteps A+B and D+E+F each run as one dependency-driven
// AsyncExecutor::run: each phase declares the channels it reads, and a rank
// enters its next phase the moment its own inbox cells commit — B waits
// only on its halo neighbors' rows, and the descriptor/label broadcast
// group is born closed so its per-rank wire validations spread across the
// workers while D proceeds. The contact-point gather is the bodiless third
// phase of the first run: it commits rank 0's column from ranks 1..k-1 and
// the run returns, so the driver can induce the tree on the calling thread
// (C). The migration commit F consumes the migration channels as the last
// phase of the second run. Each consumed channel group is one superstep
// and one delivery in PipelineHealth: 4 per step, or 5 with migration.
//
// The pre-refactor shape survives as run_step_reference(): one centralized
// body computing the same step on gathered global state, with all traffic
// modeled analytically. It is the bit-identity oracle — events, traffic
// matrices, payload bytes, ownership maps, and hit accumulators must match
// the SPMD path exactly at any thread count, including across a
// repartition-with-migration step. Both flavors read and write the same
// rank states, so a single instance can interleave them, and the degraded
// path (transport retry exhaustion under fault injection) completes the
// step by running the reference body on the start-of-step state.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/mcml_dt.hpp"
#include "core/pipeline.hpp"
#include "mesh/mesh_topology.hpp"
#include "partition/partitioner.hpp"
#include "runtime/async_executor.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/exchange.hpp"
#include "runtime/subdomain_state.hpp"
#include "sim/impact_sim.hpp"

namespace cpart {

struct DistributedSimConfig {
  McmlDtConfig decomposition{};
  SearchConfig search{};
  /// Repartition (and migrate state) every `period` steps; 0 disables. The
  /// first eligible step is step index `period` (never the first step run).
  idx_t repartition_period = 0;
  /// Repartitioning knobs; `k` is overridden with decomposition.k and
  /// `seed` is offset by the snapshot index so every migration step draws
  /// an independent (but reproducible) refinement sequence.
  RepartitionOptions repartition{};
  /// Durable checkpoint cadence: commit a checkpoint after every `period`
  /// completed steps (plus a baseline before the first step); 0 disables
  /// checkpointing, in which case a detected rank death degrades the step
  /// to the centralized reference body instead of restore+replay. Requires
  /// checkpoint_dir when > 0.
  idx_t checkpoint_period = 0;
  /// Directory holding the checkpoint blobs and manifest (created on first
  /// use; see CheckpointStore).
  std::string checkpoint_dir;
  /// Commit budget/backoff for checkpoint writes. An exhausted budget never
  /// destroys the previous checkpoint (keep-last-good): the sim counts a
  /// checkpoint_write_failure and continues unprotected until the next
  /// period boundary.
  RetryPolicy checkpoint_retry{};
  /// Watchdog deadline handed to the async runs whenever a hang is injected
  /// this step; see AsyncRunOptions::watchdog_deadline_ms.
  double watchdog_deadline_ms = 250.0;
};

struct DistributedStepReport {
  idx_t step = 0;
  bool migrated = false;  // this step ran the repartition+migration protocol
  StepTraffic fe_exchange;         // halo (superstep A)
  StepTraffic coupling_exchange;   // contact-point gather to rank 0 (B)
  StepTraffic search_exchange;     // face shipping (D)
  StepTraffic migration_exchange;  // node+element migration (E, if migrated)
  wgt_t descriptor_tree_nodes = 0;
  wgt_t descriptor_broadcast_bytes = 0;
  wgt_t label_broadcast_bytes = 0;  // repartition label updates (C)
  wgt_t halo_payload_bytes = 0;
  wgt_t coupling_payload_bytes = 0;
  wgt_t face_payload_bytes = 0;
  /// Satellite migration accounting: what the repartition actually moved.
  wgt_t migration_payload_bytes = 0;
  idx_t repart_moved_nodes = 0;
  idx_t repart_moved_elements = 0;
  /// True when a hierarchical repartition escalated past the group level:
  /// some rank group breached cross_group_threshold and one global
  /// repartition ran instead of the group-local ones. Always false with the
  /// hierarchy disabled.
  bool repart_cross_group = false;
  idx_t contact_events = 0;
  idx_t penetrating_events = 0;
  std::vector<ContactEvent> events;  // merged, sorted by (node, distance)
  std::vector<idx_t> events_per_processor;
  /// FNV-1a over the end-of-step ownership map and the owner-authoritative
  /// contact-hit accumulators — the cheap cross-flavor state oracle.
  std::uint64_t ownership_hash = 0;
  /// Rank-death recovery accounting: `recovered` is set when at least one
  /// death was detected and repaired while producing this report, and
  /// `replayed_steps` counts previously completed steps re-executed from
  /// the restored checkpoint. checkpoint_ms covers encoding + durable
  /// commit; recovery_ms covers restore + replay (the step's MTTR share).
  bool recovered = false;
  idx_t replayed_steps = 0;
  double checkpoint_ms = 0;
  double recovery_ms = 0;
  PipelineHealth health;
};

class DistributedSim {
 public:
  /// Decomposes the snapshot-0 mesh with MCML+DT and splits the result into
  /// per-rank SubdomainStates. `sim` must outlive the DistributedSim.
  DistributedSim(const ImpactSim& sim, const DistributedSimConfig& config);

  idx_t k() const { return config_.decomposition.k; }
  const DistributedSimConfig& config() const { return config_; }
  const MeshTopology& topology() const { return topo_; }
  const std::vector<SubdomainState>& states() const { return states_; }

  /// Number of rank groups (1 when the hierarchy is disabled). Rank r is a
  /// part id, so group g owns the contiguous rank range
  /// [parts_begin(g, k, groups), parts_begin(g+1, k, groups)).
  idx_t groups() const { return partitioner_.groups(); }
  /// Group id of each rank under that contiguous assignment.
  std::vector<idx_t> rank_groups() const {
    return partitioner_.group_of_parts();
  }

  /// Executes snapshot step `s` SPMD (k rank programs on the global
  /// ThreadPool). Steps must be run in the order the instance is driven —
  /// the migration cadence counts steps run, not snapshot indices. Degrades
  /// to the reference body on transport/rank failure, with
  /// health.degraded_steps == 1 on the report.
  ///
  /// Rank-death tolerance: with checkpoint_period > 0 the sim keeps a
  /// durable checkpoint (runtime/checkpoint.hpp) and, when the injected
  /// death/hang schedule kills a rank mid-step, restores every rank from
  /// the last checkpoint and deterministically replays the lost steps —
  /// the returned report (and all later ones) is bit-identical to a
  /// fault-free run. Replay cannot re-fire the original fault: the
  /// injector keys rank faults on the per-step incarnation, which the sim
  /// bumps on every re-execution.
  DistributedStepReport run_step(idx_t s);

  /// The centralized oracle: gathers the rank states, computes the same
  /// step (including repartition + migration accounting) in one body, and
  /// scatters the result back into the rank states. Bit-identical to
  /// run_step at any thread count.
  DistributedStepReport run_step_reference(idx_t s);

  /// The exchange the SPMD supersteps run over — for fault injection and
  /// retry-policy tuning by tests/benches.
  Exchange& exchange() { return exchange_; }

  /// Routes checkpoint I/O through `shim` (fault injection: short writes,
  /// ENOSPC, read bit-flips — see FaultyFileShim). Must be called before
  /// the first run_step; `shim` must outlive the sim.
  void set_checkpoint_shim(FileShim& shim) { checkpoint_shim_ = &shim; }

  /// Suspends the session: commits a durable checkpoint at the current
  /// step (a zero-replay restore point) and releases the per-rank states —
  /// the dominant resident cost, so a suspended sim keeps only topology
  /// and configuration in memory. Requires checkpoint_dir; must be called
  /// between steps. False (with everything still resident and runnable)
  /// when the commit exhausts its retry budget — keep-last-good means a
  /// failed suspend never loses state. Idempotent. `backoff_ms_accum`,
  /// when given, accumulates the commit's retry backoff.
  bool suspend(double* backoff_ms_accum = nullptr);

  /// Resumes a suspended session: restores every rank from the suspend
  /// checkpoint through exactly the rank-death recovery path (rebuild rank
  /// states, scatter checkpointed ownership/positions/hits, roll the step
  /// and superstep cursors) — so a resumed run is bit-identical to one
  /// that never suspended. False (still suspended) when the checkpoint
  /// cannot be loaded or fails validation. Idempotent.
  bool resume();

  bool suspended() const { return suspended_; }

  /// Bytes held by the per-rank states right now (0 while suspended) —
  /// what a service's resident-bytes budget meters.
  std::size_t resident_bytes() const;

  /// Admission-control estimate of resident_bytes() for a not-yet-built
  /// sim: the k-replicated dense arrays dominate, so the model is
  /// k * (num_nodes * (owner + position + hits + masks) + num_elements).
  static std::size_t estimate_resident_bytes(idx_t num_nodes,
                                             idx_t num_elements, idx_t k);

  /// The replicated ownership map, validated identical across all ranks.
  std::vector<idx_t> ownership_map() const;

  /// The owner-authoritative per-node contact-hit accumulators.
  std::vector<wgt_t> gather_contact_hits() const;

 private:
  bool is_migration_step() const {
    return config_.repartition_period > 0 && steps_run_ > 0 &&
           steps_run_ % config_.repartition_period == 0;
  }

  /// One attempt at snapshot step `s`: the SPMD path with the degraded
  /// reference fallback — exactly the pre-recovery run_step body, minus the
  /// step-counter bump. Throws RankDeathError when a rank dies (injected
  /// death or watchdog-declared hang); every other failure completes the
  /// step degraded as before.
  void run_step_attempt(idx_t s, DistributedStepReport& report);

  /// The SPMD supersteps; throws on transport/parse/rank failure.
  void run_step_spmd(idx_t s, bool migrate, DistributedStepReport& report);

  /// FNV-1a over the immutable run parameters a checkpoint must have been
  /// written under to be restorable into this instance.
  std::uint64_t config_hash() const;

  /// The durable state as of now: ownership labels, owner-authoritative
  /// positions and hit accumulators, the step counter, and the exchange
  /// superstep cursor (so replayed deliveries key the exact transport
  /// fault schedule).
  CheckpointData make_checkpoint_data() const;

  /// Restores every rank from the last durable checkpoint: scatters the
  /// checkpointed state, rolls back steps_run_ and the exchange superstep
  /// cursor, and rewinds the replay cursor to the start of step_history_.
  /// False when no usable checkpoint exists (checkpointing disabled, or
  /// the store has no loadable manifest).
  bool restore_from_checkpoint();

  /// The centralized step body over explicit global state (owner + hits are
  /// read and updated in place). Shared by run_step_reference and the
  /// degraded path of run_step.
  void run_reference_body(idx_t s, bool migrate, std::vector<idx_t>& owner,
                          std::vector<wgt_t>& hits,
                          DistributedStepReport& report) const;

  /// Computes this step's repartition from the current labels and the
  /// contact mask (identical call on both flavors: same graph, same seed).
  /// Hierarchical configurations repartition group-locally by default and
  /// escalate cross-group only on threshold breach (*cross_group reports
  /// which). Runs on the driver thread — kway refinement dispatches pool
  /// work, so it must never run inside a rank program.
  std::vector<idx_t> compute_repartition(idx_t s, std::span<const idx_t> owner,
                                         std::span<const char> is_contact,
                                         bool* cross_group) const;

  /// Copies `owner`/`hits` into every rank state and rebuilds the views —
  /// how the reference body's results (and the degraded recovery) re-enter
  /// the rank-owned representation.
  void scatter_global_state(std::span<const idx_t> owner,
                            std::span<const wgt_t> hits);

  std::uint64_t ownership_hash(std::span<const idx_t> owner,
                               std::span<const wgt_t> hits) const;

  const ImpactSim* sim_;
  DistributedSimConfig config_;
  Partitioner partitioner_;  // the unified repartition entry (owns hierarchy)
  MeshTopology topo_;
  std::vector<int> body_of_node_;  // same-body search exclusion
  std::vector<SubdomainState> states_;
  Exchange exchange_;
  // The step's multi-phase runs are dependency-driven; single supersteps
  // whose cross-rank data already moved (scatter, restore, resume) are plain
  // ThreadPool::parallel_tasks dispatches.
  AsyncExecutor async_;
  idx_t steps_run_ = 0;
  // Driver scratch.
  TreeInduceWorkspace induce_ws_;  // warm storage across per-step inductions
  // halo_providers_[dst]: ranks that post halo nodes to dst this step — the
  // inverse of the rank states' halo send lists, rebuilt per step (views
  // change on migration).
  std::vector<std::vector<idx_t>> halo_providers_;
  // gather_providers_[dst]: ranks 1..k-1 for rank 0, none for the rest —
  // the contact-point gather's fixed topology.
  std::vector<std::vector<idx_t>> gather_providers_;
  std::vector<char> contact_mask_;
  std::vector<idx_t> start_owner_;   // start-of-step recovery snapshot
  std::vector<wgt_t> start_hits_;
  // Rank-death tolerance (see run_step). step_history_ records the snapshot
  // ids of every step since the last durable checkpoint; replay_pos_ is its
  // completed prefix, rewound to 0 by a restore. step_attempts_ counts
  // executions per logical step — the incarnation the injector keys rank
  // faults on, so a replayed step never re-fires its kill.
  FileShim* checkpoint_shim_ = &FileShim::real();
  std::unique_ptr<CheckpointStore> store_;  // created lazily by run_step
  std::vector<idx_t> step_history_;
  std::size_t replay_pos_ = 0;
  std::vector<idx_t> step_attempts_;
  // This attempt's injected rank faults (sized k while an injector with a
  // rank-fault schedule is armed; consulted by run_step_spmd).
  std::vector<char> death_mask_;
  std::vector<char> hang_mask_;
  bool any_death_ = false;
  bool any_hang_ = false;
  bool suspended_ = false;  // see suspend()/resume()
};

}  // namespace cpart
