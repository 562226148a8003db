#include "core/experiment.hpp"

#include <optional>
#include <ostream>

#include "contact/search_metrics.hpp"
#include "core/distributed_sim.hpp"
#include "graph/graph_metrics.hpp"
#include "mesh/mesh_graphs.hpp"
#include "parallel/thread_pool.hpp"
#include "runtime/step_pipeline.hpp"
#include "util/timer.hpp"

namespace cpart {

namespace {

/// Imbalance of a labeling restricted to a subset: max count / mean count.
double subset_imbalance(std::span<const idx_t> labels, idx_t k) {
  if (labels.empty()) return 1.0;
  std::vector<wgt_t> counts(static_cast<std::size_t>(k), 0);
  for (idx_t l : labels) ++counts[static_cast<std::size_t>(l)];
  wgt_t maxc = 0;
  for (wgt_t c : counts) maxc = std::max(maxc, c);
  return static_cast<double>(maxc) * static_cast<double>(k) /
         static_cast<double>(labels.size());
}

/// Labels of the contact nodes under a per-node labeling.
std::vector<idx_t> gather_contact_labels(const Surface& surface,
                                         std::span<const idx_t> node_labels) {
  std::vector<idx_t> out;
  out.reserve(surface.contact_nodes.size());
  for (idx_t id : surface.contact_nodes) {
    out.push_back(node_labels[static_cast<std::size_t>(id)]);
  }
  return out;
}

}  // namespace

ExperimentResult run_contact_experiment(const ExperimentConfig& config,
                                        std::ostream* progress) {
  require(config.k >= 1, "run_contact_experiment: k must be >= 1");
  require(config.snapshot_stride >= 1,
          "run_contact_experiment: stride must be >= 1");
  // Baseline for the scheduler-activity delta reported in the result.
  const SchedulerStats sched_start = ThreadPool::global().scheduler_stats();
  const ImpactSim sim(config.sim);

  // Contact tolerance from the plate cell size (geometry-scale aware).
  const real_t cell =
      config.sim.plate_width / static_cast<real_t>(config.sim.plate_cells_xy);
  const real_t margin = static_cast<real_t>(config.margin_cell_fraction) * cell;

  // --- Build both partitioners on snapshot 0. ------------------------------
  // The pipeline owns the cross-snapshot state (snapshot workspace, warm
  // descriptor-induction orders, search scratch); every product is
  // bit-identical to cold recomputation.
  StepPipeline pipeline(sim);
  const ImpactSim::Snapshot& snap0 = pipeline.advance(0);

  McmlDtConfig dt_config;
  dt_config.k = config.k;
  dt_config.epsilon = config.epsilon;
  dt_config.contact_edge_weight = config.contact_edge_weight;
  dt_config.tree_friendly = config.tree_friendly;
  dt_config.initial = config.geometric_init ? InitialPartitioner::kGeometric
                                            : InitialPartitioner::kMultilevelGraph;
  dt_config.partitioner.seed = config.seed;
  dt_config.descriptor.gap_alpha = config.gap_alpha;
  McmlDtPartitioner mcml(snap0.mesh, snap0.surface, dt_config);

  MlRcbConfig rcb_config;
  rcb_config.k = config.k;
  rcb_config.epsilon = config.epsilon;
  rcb_config.partitioner.seed = config.seed + 1;
  MlRcbPartitioner mlrcb(snap0.mesh, snap0.surface, rcb_config);

  // Optional rank-owned DistributedSim probe: the live-migration protocol
  // over the same snapshots, with the same fault schedule/retry budget.
  std::optional<FaultInjector> dist_injector;
  std::optional<DistributedSim> dist_probe;
  if (config.distributed_probe) {
    DistributedSimConfig dconfig;
    dconfig.decomposition = dt_config;
    dconfig.search.search_margin = margin;
    dconfig.search.contact_tolerance = margin;
    dconfig.repartition_period =
        config.policy == UpdatePolicy::kPeriodicRepartition
            ? config.repartition_period
            : 0;
    dconfig.repartition.epsilon = config.epsilon;
    dconfig.repartition.seed = config.seed;
    dist_probe.emplace(sim, dconfig);
    dist_probe->exchange().set_retry_policy(config.retry);
    if (config.fault.cell_fault_probability > 0) {
      dist_injector.emplace(config.fault);
      dist_probe->exchange().set_fault_injector(&*dist_injector);
    }
  }

  ExperimentResult result;
  result.k = config.k;

  std::vector<idx_t> prev_dt_partition = mcml.node_partition();

  // The nodal graph only changes when erosion removes elements, so cache it
  // across snapshots instead of rebuilding every step.
  NodalGraphCache graph_cache;

  for (idx_t s = 0; s < sim.num_snapshots(); s += config.snapshot_stride) {
    const ImpactSim::Snapshot& snap =
        (s == 0) ? pipeline.current() : pipeline.advance(s);
    const CsrGraph& graph = graph_cache.get(snap.mesh);

    SnapshotMetrics m;
    m.step = s;
    m.contact_nodes = snap.surface.num_contact_nodes();
    m.surface_faces = snap.surface.num_faces();

    // --- MCML+DT --------------------------------------------------------
    if (s > 0 && config.policy == UpdatePolicy::kPeriodicRepartition &&
        config.repartition_period > 0 &&
        (s / config.snapshot_stride) % config.repartition_period == 0) {
      // Repartition the evolved two-phase graph anchored to the current
      // partition, then reapply the tree-friendly adjustment.
      const CsrGraph two_phase = build_two_phase_graph(
          snap.mesh, snap.surface.is_contact_node, config.contact_edge_weight);
      RepartitionOptions ro;
      ro.k = config.k;
      ro.epsilon = config.epsilon;
      ro.seed = config.seed + static_cast<std::uint64_t>(s);
      std::vector<idx_t> new_part =
          repartition_graph(two_phase, mcml.node_partition(), ro);
      wgt_t moved = 0;
      for (std::size_t v = 0; v < new_part.size(); ++v) {
        if (new_part[v] != prev_dt_partition[v]) ++moved;
      }
      m.dt_repart_moved = moved;
      mcml.set_node_partition(std::move(new_part));
      prev_dt_partition = mcml.node_partition();
    }

    m.dt_fe_comm = total_comm_volume(graph, mcml.node_partition());
    const SubdomainDescriptors& descriptors = pipeline.build_descriptors(mcml);
    m.dt_tree_nodes = descriptors.num_tree_nodes();
    m.dt_remote = pipeline.search(mcml, margin).remote_sends;
    {
      const std::vector<idx_t> contact_labels =
          gather_contact_labels(snap.surface, mcml.node_partition());
      m.dt_imbalance_fe = load_imbalance(graph, mcml.node_partition(), config.k);
      m.dt_imbalance_contact = subset_imbalance(contact_labels, config.k);
    }

    // --- ML+RCB ----------------------------------------------------------
    m.rcb_fe_comm = total_comm_volume(graph, mlrcb.node_partition());
    if (s > 0) {
      m.rcb_upd = mlrcb.update_contact_partition(snap.mesh, snap.surface);
    }
    {
      const std::vector<idx_t> fe_labels =
          gather_contact_labels(snap.surface, mlrcb.node_partition());
      m.rcb_m2m = m2m_comm(fe_labels, mlrcb.contact_labels(), config.k).mismatched;
      m.rcb_imbalance_fe =
          load_imbalance(graph, mlrcb.node_partition(), config.k);
      m.rcb_imbalance_contact = subset_imbalance(mlrcb.contact_labels(), config.k);
    }
    {
      // The contact phase runs in the RCB decomposition: owners follow the
      // per-node RCB labels.
      std::vector<idx_t> rcb_node_labels(
          static_cast<std::size_t>(snap.mesh.num_nodes()), 0);
      const auto& ids = mlrcb.contact_ids();
      const auto& labels = mlrcb.contact_labels();
      for (std::size_t i = 0; i < ids.size(); ++i) {
        rcb_node_labels[static_cast<std::size_t>(ids[i])] = labels[i];
      }
      const std::vector<idx_t> owners =
          face_owners(snap.surface, rcb_node_labels, config.k);
      const BBoxFilter filter = mlrcb.make_bbox_filter(snap.mesh);
      m.rcb_remote =
          global_search_bbox(snap.mesh, snap.surface, owners, filter, margin)
              .remote_sends;
    }

    if (dist_probe) {
      const DistributedStepReport dr = dist_probe->run_step(s);
      result.distributed_health += dr.health;
      ++result.distributed_probe_steps;
      result.distributed_migration_steps += dr.migrated ? 1 : 0;
      result.distributed_moved_nodes += dr.repart_moved_nodes;
      result.distributed_moved_elements += dr.repart_moved_elements;
      result.distributed_migration_bytes += dr.migration_payload_bytes;
    }

    result.series.push_back(m);
    if (progress != nullptr) {
      *progress << "snapshot " << s << ": contact_nodes=" << m.contact_nodes
                << " dt{fe=" << m.dt_fe_comm << " nt=" << m.dt_tree_nodes
                << " rem=" << m.dt_remote << "} rcb{fe=" << m.rcb_fe_comm
                << " m2m=" << m.rcb_m2m << " upd=" << m.rcb_upd
                << " rem=" << m.rcb_remote << "}\n";
    }
  }

  // --- Averages. -----------------------------------------------------------
  result.snapshots = to_idx(result.series.size());
  const double ns = static_cast<double>(result.snapshots);
  for (const SnapshotMetrics& m : result.series) {
    result.mcml_dt.fe_comm += static_cast<double>(m.dt_fe_comm) / ns;
    result.mcml_dt.tree_nodes += static_cast<double>(m.dt_tree_nodes) / ns;
    result.mcml_dt.remote += static_cast<double>(m.dt_remote) / ns;
    result.mcml_dt.repart_moved += static_cast<double>(m.dt_repart_moved) / ns;
    result.mcml_dt.imbalance_fe += m.dt_imbalance_fe / ns;
    result.mcml_dt.imbalance_contact += m.dt_imbalance_contact / ns;
    result.ml_rcb.fe_comm += static_cast<double>(m.rcb_fe_comm) / ns;
    result.ml_rcb.m2m += static_cast<double>(m.rcb_m2m) / ns;
    result.ml_rcb.upd += static_cast<double>(m.rcb_upd) / ns;
    result.ml_rcb.remote += static_cast<double>(m.rcb_remote) / ns;
    result.ml_rcb.imbalance_fe += m.rcb_imbalance_fe / ns;
    result.ml_rcb.imbalance_contact += m.rcb_imbalance_contact / ns;
  }
  // Coupling-inclusive per-step communication (Section 5.2's comparison):
  // ML+RCB ships surface-node data to the contact decomposition and back
  // (2x M2MComm) plus the incremental-RCB redistribution; MCML+DT has no
  // coupling cost (one decomposition), only repartition movement if that
  // policy is active.
  result.mcml_dt.total_step_comm =
      result.mcml_dt.fe_comm + result.mcml_dt.repart_moved;
  result.ml_rcb.total_step_comm = result.ml_rcb.fe_comm +
                                  2.0 * result.ml_rcb.m2m + result.ml_rcb.upd;
  result.scheduler = ThreadPool::global().scheduler_stats();
  result.scheduler.items_executed -= sched_start.items_executed;
  result.scheduler.gang_slots_executed -= sched_start.gang_slots_executed;
  if (dist_probe && progress != nullptr) {
    *progress << "distributed probe over " << result.distributed_probe_steps
              << " steps: " << result.distributed_migration_steps
              << " migration steps moved " << result.distributed_moved_nodes
              << " nodes / " << result.distributed_moved_elements
              << " elements (" << result.distributed_migration_bytes
              << " bytes); " << result.distributed_health.summary() << "\n";
  }
  return result;
}

}  // namespace cpart
