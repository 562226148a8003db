// Shared pieces of the SPMD contact steps, plus the ML+RCB baseline step.
//
// The MCML+DT step (paper Sections 2 and 4) runs SPMD in DistributedSim
// (core/distributed_sim.hpp); its centralized oracle is
// DistributedSim::run_step_reference. This header keeps what both SPMD
// drivers share — the search knobs, the snapshot-identity check, and the
// degrade-on-transport-failure wrapper — and the ML+RCB baseline pipeline:
// k concurrent rank programs over typed exchange channels
// (runtime/exchange.hpp) running the FE halo, the mesh-to-mesh coupling,
// element shipping under the RCB bounding-box filter, and local search in
// the RCB decomposition. Its per-rank events are merged deterministically
// (rank order, then sorted by (node, distance)) — bit-identical to the
// retained centralized run_step_reference().
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "contact/local_search.hpp"
#include "core/ml_rcb.hpp"
#include "mesh/mesh_graphs.hpp"
#include "mesh/subdomain.hpp"
#include "parallel/thread_pool.hpp"
#include "runtime/async_executor.hpp"
#include "runtime/exchange.hpp"
#include "runtime/health.hpp"
#include "runtime/rank.hpp"
#include "runtime/virtual_cluster.hpp"
#include "tree/tree_io.hpp"

namespace cpart {

/// Validates that (mesh, surface) plausibly continues the snapshot sequence
/// a pipeline was constructed on: identical node count (node ids are stable
/// across a simulation sequence), same element type, element count no larger
/// than at construction (elements only erode, never appear), and contact
/// arrays indexed by this mesh's nodes. Throws InputError naming `who` on
/// any mismatch — a snapshot from a different simulation must be rejected,
/// not silently re-balanced against.
void validate_snapshot_identity(const Mesh& mesh, const Surface& surface,
                                ElementType type0, idx_t num_nodes0,
                                idx_t max_elements, const char* who);

/// Runs an SPMD step body, degrading on exactly the failure classes the
/// robustness layer owns: transport retry exhaustion (TransportError),
/// rejected descriptor wires (TreeParseError), and failing rank programs
/// (ParallelGroupError). Anything else (config errors, logic bugs) still
/// propagates — degrading would mask it. On failure, `health` receives the
/// step's counters (plus what the transport could not record itself) with
/// degraded_steps == 1, and the exchange is reset for the fallback. Shared
/// by every pipeline built on the rank/exchange runtime.
template <typename Spmd>
bool try_spmd_step(Exchange& exchange, PipelineHealth& health, Spmd&& spmd) {
  wgt_t parse_failures = 0;
  wgt_t failed_ranks = 0;
  try {
    spmd();
    return true;
  } catch (const TransportError&) {
    // Retry/exhaustion counters were recorded by the exchange itself.
  } catch (const TreeParseError&) {
    // One rank program rejected a descriptor wire off the transport.
    parse_failures = 1;
    failed_ranks = 1;
  } catch (const ParallelGroupError& e) {
    failed_ranks = to_idx(e.failures().size());
  }
  health = exchange.take_health();
  health.wire_parse_failures += parse_failures;
  health.failed_ranks += failed_ranks;
  ++health.degraded_steps;
  exchange.abort_step();
  return false;
}

/// Contact-search knobs shared by both SPMD drivers (DistributedSim and
/// MlRcbPipeline).
struct SearchConfig {
  /// Global-search inflation of surface-element boxes. Must be at least the
  /// local tolerance for the pipeline to be exact (checked by validate()).
  real_t search_margin = 0.1;
  /// Local-search proximity tolerance.
  real_t contact_tolerance = 0.1;
  /// Report every face within tolerance (false) or only the closest per
  /// node (true).
  bool closest_only = true;

  /// Throws InputError unless search_margin >= contact_tolerance (`who`
  /// prefixes the message).
  void validate(const char* who) const;

  /// The LocalSearchOptions these knobs describe.
  LocalSearchOptions local_options(std::span<const int> body_of_node) const;
};

// ---------------------------------------------------------------------------
// The same end-to-end step for the ML+RCB baseline.
// ---------------------------------------------------------------------------

struct MlRcbPipelineConfig {
  MlRcbConfig decomposition{};
  SearchConfig search{};
};

struct MlRcbStepReport {
  StepTraffic fe_exchange;
  StepTraffic coupling_exchange;  // mesh-to-mesh, both directions
  StepTraffic search_exchange;
  wgt_t upd_comm = 0;  // incremental-RCB redistribution this step
  /// Measured payload bytes the exchange actually carried (SPMD path only;
  /// the reference path models units, not bytes, and leaves these 0).
  wgt_t halo_payload_bytes = 0;
  wgt_t face_payload_bytes = 0;
  wgt_t coupling_payload_bytes = 0;
  wgt_t box_allgather_bytes = 0;  // RCB subdomain-box allgather
  idx_t contact_events = 0;
  idx_t penetrating_events = 0;
  std::vector<ContactEvent> events;
  std::vector<idx_t> events_per_processor;
  /// Transport detection/recovery counters of this step. clean() on a
  /// healthy step; degraded() when the step fell back to the centralized
  /// phases. run_step_reference leaves it default (no transport ran).
  PipelineHealth health;
};

/// ML+RCB's step: FE halo on the graph decomposition, transfer of contact
/// data to the RCB decomposition and back (2x M2MComm), element shipping
/// under the bounding-box filter, local search in the RCB decomposition.
/// Equally exact: the per-processor searches reproduce the serial result
/// (the subdomain boxes are conservative).
class MlRcbPipeline {
 public:
  MlRcbPipeline(const Mesh& mesh0, const Surface& surface0,
                const MlRcbPipelineConfig& config);

  idx_t k() const { return config_.decomposition.k; }
  const MlRcbPartitioner& partitioner() const { return partitioner_; }

  /// Advances the incremental RCB and executes the step SPMD. Must be
  /// called in snapshot order (the RCB update is stateful). Degrades to the
  /// centralized phases on transport/rank failure (TransportError, a
  /// failing rank program) — the RCB advance runs once either way.
  MlRcbStepReport run_step(const Mesh& mesh, const Surface& surface,
                           std::span<const int> body_of_node = {});

  /// The pre-refactor centralized step (also advances the RCB — drive a
  /// given pipeline instance through exactly one of run_step /
  /// run_step_reference; the equivalence tests compare two identically
  /// seeded instances).
  MlRcbStepReport run_step_reference(const Mesh& mesh, const Surface& surface,
                                     std::span<const int> body_of_node = {});

  /// The Exchange this pipeline's supersteps run over — exposed so tests
  /// can arm fault injection and tune the retry policy.
  Exchange& exchange() { return exchange_; }

 private:
  /// Shared stateful preamble of both step flavors: RCB advance + UpdComm
  /// bookkeeping.
  void advance_partition(const Mesh& mesh, const Surface& surface,
                         MlRcbStepReport& report);

  /// The SPMD supersteps after advance_partition; throws on failure.
  void run_step_spmd(const Mesh& mesh, const Surface& surface,
                     std::span<const int> body_of_node,
                     MlRcbStepReport& report);

  /// The centralized phases after advance_partition (shared by
  /// run_step_reference and the degraded path of run_step, which must not
  /// advance the stateful RCB a second time).
  void run_reference_phases(const Mesh& mesh, const Surface& surface,
                            std::span<const int> body_of_node,
                            MlRcbStepReport& report) const;

  MlRcbPipelineConfig config_;
  MlRcbPartitioner partitioner_;
  // Snapshot-sequence identity captured at construction (see
  // validate_snapshot_identity).
  ElementType element_type0_;
  idx_t num_nodes0_ = 0;
  idx_t num_elements0_ = 0;
  bool first_step_ = true;
  // SPMD state, reused across steps.
  NodalGraphCache graph_cache_;
  std::uint64_t halo_version_ = 0;
  std::vector<SubdomainView> views_;
  std::vector<Rank> ranks_;
  Exchange exchange_;
  AsyncExecutor executor_;
  std::vector<idx_t> fe_labels_;  // per-step gather scratch
  std::vector<idx_t> rcb_node_labels_;
  std::vector<idx_t> face_owner_;
};

}  // namespace cpart
