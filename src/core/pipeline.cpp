#include "core/pipeline.hpp"

#include <algorithm>
#include <array>

#include "contact/global_search.hpp"
#include "contact/search_metrics.hpp"
#include "parallel/thread_pool.hpp"

namespace cpart {

void SearchConfig::validate(const char* who) const {
  require(search_margin >= contact_tolerance,
          std::string(who) +
              ": search_margin must cover contact_tolerance, or remote "
              "contacts could be missed");
}

LocalSearchOptions SearchConfig::local_options(
    std::span<const int> body_of_node) const {
  LocalSearchOptions local;
  local.tolerance = contact_tolerance;
  local.body_of_node = body_of_node;
  local.closest_only = closest_only;
  return local;
}

namespace {

bool event_order(const ContactEvent& a, const ContactEvent& b) {
  if (a.node != b.node) return a.node < b.node;
  return a.distance < b.distance;
}

/// The face shipment payload: ids plus the coordinates the receiver's
/// search needs.
FaceShipMsg make_face_msg(const Mesh& mesh, const SurfaceFace& face, idx_t f) {
  FaceShipMsg m;
  m.face = f;
  m.element = face.element;
  m.num_nodes = static_cast<std::int32_t>(face.nodes.size());
  for (std::size_t i = 0; i < face.nodes.size() && i < m.nodes.size(); ++i) {
    m.nodes[i] = face.nodes[i];
    m.coords[i] = mesh.node(face.nodes[i]);
  }
  return m;
}

/// Deterministic merge: per-rank events concatenated in rank order, then
/// one global sort by (node, distance) — the identical input sequence and
/// comparison the centralized implementation sorts, hence bit-identical
/// output.
void merge_rank_events(const std::vector<Rank>& ranks,
                       MlRcbStepReport& report) {
  report.events_per_processor.assign(ranks.size(), 0);
  report.events.clear();
  for (std::size_t q = 0; q < ranks.size(); ++q) {
    report.events_per_processor[q] = to_idx(ranks[q].events.size());
    report.events.insert(report.events.end(), ranks[q].events.begin(),
                         ranks[q].events.end());
  }
  std::sort(report.events.begin(), report.events.end(), event_order);
  report.contact_events = to_idx(report.events.size());
  report.penetrating_events = 0;
  for (const ContactEvent& e : report.events) {
    if (e.signed_distance < 0) ++report.penetrating_events;
  }
}

}  // namespace

void validate_snapshot_identity(const Mesh& mesh, const Surface& surface,
                                ElementType type0, idx_t num_nodes0,
                                idx_t max_elements, const char* who) {
  const std::string w(who);
  require(mesh.element_type() == type0,
          w + ": snapshot element type differs from the construction mesh");
  require(mesh.num_nodes() == num_nodes0,
          w + ": snapshot node count differs from the construction mesh "
              "(node ids must be stable across the sequence)");
  require(mesh.num_elements() <= max_elements,
          w + ": snapshot has more elements than the construction mesh "
              "(elements can only erode within one sequence)");
  require(to_idx(surface.is_contact_node.size()) == mesh.num_nodes(),
          w + ": surface contact arrays are not indexed by this mesh's "
              "nodes");
}

// ---------------------------------------------------------------------------
// ML+RCB baseline pipeline
// ---------------------------------------------------------------------------

MlRcbPipeline::MlRcbPipeline(const Mesh& mesh0, const Surface& surface0,
                             const MlRcbPipelineConfig& config)
    : config_(config),
      partitioner_(mesh0, surface0, config.decomposition),
      element_type0_(mesh0.element_type()),
      num_nodes0_(mesh0.num_nodes()),
      num_elements0_(mesh0.num_elements()),
      exchange_(config.decomposition.k),
      executor_(config.decomposition.k) {
  config_.search.validate("MlRcbPipeline");
  ranks_.resize(static_cast<std::size_t>(k()));
  for (idx_t r = 0; r < k(); ++r) {
    ranks_[static_cast<std::size_t>(r)].id = r;
  }
}

void MlRcbPipeline::advance_partition(const Mesh& mesh, const Surface& surface,
                                      MlRcbStepReport& report) {
  // A snapshot from a different simulation would silently re-balance the
  // incremental RCB against foreign geometry — reject it up front instead.
  validate_snapshot_identity(mesh, surface, element_type0_, num_nodes0_,
                             num_elements0_, "MlRcbPipeline");
  // Advance the incremental RCB (UpdComm). The first step may legitimately
  // be a later snapshot of the same sequence than the construction one, so
  // its movement is a catch-up, not charged as UpdComm.
  const wgt_t moved = partitioner_.update_contact_partition(mesh, surface);
  if (first_step_) {
    first_step_ = false;
  } else {
    report.upd_comm = moved;
  }
}

MlRcbStepReport MlRcbPipeline::run_step(const Mesh& mesh,
                                        const Surface& surface,
                                        std::span<const int> body_of_node) {
  MlRcbStepReport report;
  // The stateful RCB advance runs exactly once per step, before the part
  // that can fail — the degraded path below must not re-run it.
  advance_partition(mesh, surface, report);

  PipelineHealth health;
  const bool ok = try_spmd_step(exchange_, health, [&] {
    run_step_spmd(mesh, surface, body_of_node, report);
  });
  if (ok) {
    report.health = exchange_.take_health();
    return report;
  }
  MlRcbStepReport degraded;
  degraded.upd_comm = report.upd_comm;
  run_reference_phases(mesh, surface, body_of_node, degraded);
  degraded.health = health;
  return degraded;
}

void MlRcbPipeline::run_step_spmd(const Mesh& mesh, const Surface& surface,
                                  std::span<const int> body_of_node,
                                  MlRcbStepReport& report) {
  const idx_t num_parts = k();
  const CsrGraph& graph = graph_cache_.get(mesh);
  const std::vector<idx_t>& fe_part = partitioner_.node_partition();

  // FE labels of the current contact nodes (index-aligned with
  // partitioner_.contact_ids()/contact_labels()).
  fe_labels_.clear();
  fe_labels_.reserve(surface.contact_nodes.size());
  for (idx_t id : surface.contact_nodes) {
    fe_labels_.push_back(fe_part[static_cast<std::size_t>(id)]);
  }
  const std::vector<idx_t>& cids = partitioner_.contact_ids();
  const std::vector<idx_t>& clabels = partitioner_.contact_labels();
  const M2MResult m2m = m2m_comm(fe_labels_, clabels, num_parts);

  // Ownership in the RCB decomposition: per-node labels -> face owners.
  rcb_node_labels_.assign(static_cast<std::size_t>(mesh.num_nodes()), 0);
  for (std::size_t i = 0; i < cids.size(); ++i) {
    rcb_node_labels_[static_cast<std::size_t>(cids[i])] = clabels[i];
  }
  face_owners_into(surface, rcb_node_labels_, num_parts, face_owner_);
  build_subdomain_views(cids, clabels, face_owner_, num_parts, views_);
  if (halo_version_ != graph_cache_.version()) {
    build_halo_sends(graph, fe_part, num_parts, views_);
    halo_version_ = graph_cache_.version();
  }

  // One shared filter: BBoxFilter queries are pure (no mutable scratch), so
  // unlike the descriptor copies all ranks can read the same instance.
  const BBoxFilter filter = partitioner_.make_bbox_filter(mesh);

  // --- Phases 1-3 in one dependency-driven run. Phase 1 posts halo nodes,
  // forward coupling, and the subdomain-box allgather; phase 2 consumes all
  // three (delivery #1), returns the coupling points and ships elements;
  // phase 3 consumes the return coupling and shipped faces (delivery #2).
  // A rank enters each phase once its own inbox cells commit. ---------------
  const auto post_phase = [&](idx_t r) {
    Rank& rank = ranks_[static_cast<std::size_t>(r)];
    rank.begin_step();
    for (const HaloSend& hs : views_[static_cast<std::size_t>(r)].halo_sends) {
      exchange_.halo().send(r, hs.dst,
                            HaloNodeMsg{hs.node, mesh.node(hs.node)});
    }
    // Forward coupling: this FE rank ships each of its contact points
    // whose (relabelled) RCB owner is elsewhere.
    for (std::size_t i = 0; i < fe_labels_.size(); ++i) {
      if (fe_labels_[i] != r) continue;
      const idx_t contact_as_fe =
          m2m.relabel[static_cast<std::size_t>(clabels[i])];
      if (contact_as_fe == r) continue;
      exchange_.coupling_forward().send(
          r, contact_as_fe, ContactPointMsg{cids[i], mesh.node(cids[i])});
    }
    // RCB subdomain-box allgather (bytes only — the centralized step
    // reports no traffic for it either).
    exchange_.boxes().broadcast(r, SubdomainBoxMsg{r, filter.box(r)});
  };
  const auto ship_phase = [&](idx_t r) {
    Rank& rank = ranks_[static_cast<std::size_t>(r)];
    // Return trip: each received contact point goes back to its source
    // after the search (the "twice the M2MComm value" of Section 5.2).
    const auto& coupling_in = exchange_.coupling_forward().inbox(r);
    for (const SourceRange& sr :
         exchange_.coupling_forward().inbox_sources(r)) {
      for (idx_t i = sr.begin; i < sr.end; ++i) {
        exchange_.coupling_return().send(
            r, sr.from, coupling_in[static_cast<std::size_t>(i)]);
      }
    }
    const auto& ghosts_in = exchange_.halo().inbox(r);
    rank.ghosts.assign(ghosts_in.begin(), ghosts_in.end());
    for (idx_t f : views_[static_cast<std::size_t>(r)].owned_faces) {
      const SurfaceFace& face = surface.faces[static_cast<std::size_t>(f)];
      const BBox box = face_bbox(mesh, face, config_.search.search_margin);
      rank.query_parts.clear();
      filter.query_box(box, rank.query_parts);
      for (idx_t q : rank.query_parts) {
        if (q == r) continue;
        exchange_.faces().send(r, q, make_face_msg(mesh, face, f));
      }
    }
  };
  const LocalSearchOptions local = config_.search.local_options(body_of_node);
  const auto search_phase = [&](idx_t r) {
    Rank& rank = ranks_[static_cast<std::size_t>(r)];
    const SubdomainView& view = views_[static_cast<std::size_t>(r)];
    rank.merge_faces(view.owned_faces, exchange_.faces().inbox(r));
    if (view.contact_nodes.empty() || rank.local_faces.empty()) return;
    local_contact_search_subset_into(mesh, surface, view.contact_nodes,
                                     rank.local_faces, local,
                                     rank.search_scratch, rank.events);
  };
  const ChannelMask post_mask = channel_bit(ChannelId::kHalo) |
                                channel_bit(ChannelId::kCouplingForward) |
                                channel_bit(ChannelId::kBoxes);
  const ChannelMask ship_mask = channel_bit(ChannelId::kCouplingReturn) |
                                channel_bit(ChannelId::kFaces);
  const std::array<AsyncPhase, 3> phases = {
      AsyncPhase{.body = post_phase, .writes = post_mask},
      AsyncPhase{.body = ship_phase, .reads = post_mask, .writes = ship_mask},
      AsyncPhase{.body = search_phase, .reads = ship_mask},
  };
  executor_.run(phases, exchange_);
  report.fe_exchange = exchange_.take_fe_traffic();
  report.halo_payload_bytes = exchange_.take_halo_bytes();
  report.search_exchange = exchange_.take_search_traffic();
  report.coupling_exchange = exchange_.take_coupling_traffic();
  report.face_payload_bytes = exchange_.take_face_bytes();
  report.coupling_payload_bytes = exchange_.take_coupling_bytes();
  report.box_allgather_bytes = exchange_.take_box_bytes();

  merge_rank_events(ranks_, report);
}

MlRcbStepReport MlRcbPipeline::run_step_reference(
    const Mesh& mesh, const Surface& surface,
    std::span<const int> body_of_node) {
  MlRcbStepReport report;
  advance_partition(mesh, surface, report);
  run_reference_phases(mesh, surface, body_of_node, report);
  return report;
}

void MlRcbPipeline::run_reference_phases(const Mesh& mesh,
                                         const Surface& surface,
                                         std::span<const int> body_of_node,
                                         MlRcbStepReport& report) const {
  const idx_t num_parts = k();

  // FE halo exchange in the graph decomposition.
  const CsrGraph graph = nodal_graph(mesh);
  report.fe_exchange =
      fe_halo_traffic(graph, partitioner_.node_partition(), num_parts);

  // Coupling: surface-node data to the contact decomposition and back.
  std::vector<idx_t> fe_labels;
  fe_labels.reserve(surface.contact_nodes.size());
  for (idx_t id : surface.contact_nodes) {
    fe_labels.push_back(
        partitioner_.node_partition()[static_cast<std::size_t>(id)]);
  }
  const M2MResult m2m =
      m2m_comm(fe_labels, partitioner_.contact_labels(), num_parts);
  report.coupling_exchange = m2m_traffic(
      fe_labels, partitioner_.contact_labels(), m2m.relabel, num_parts);

  // Global search in the RCB decomposition: subdomain bounding boxes.
  std::vector<idx_t> rcb_node_labels(
      static_cast<std::size_t>(mesh.num_nodes()), 0);
  for (std::size_t i = 0; i < partitioner_.contact_ids().size(); ++i) {
    rcb_node_labels[static_cast<std::size_t>(partitioner_.contact_ids()[i])] =
        partitioner_.contact_labels()[i];
  }
  const std::vector<idx_t> owners =
      face_owners(surface, rcb_node_labels, num_parts);
  const BBoxFilter filter = partitioner_.make_bbox_filter(mesh);
  VirtualCluster cluster(num_parts);
  std::vector<std::vector<idx_t>> faces_on(static_cast<std::size_t>(num_parts));
  {
    std::vector<idx_t> parts;
    for (idx_t f = 0; f < surface.num_faces(); ++f) {
      const idx_t home = owners[static_cast<std::size_t>(f)];
      faces_on[static_cast<std::size_t>(home)].push_back(f);
      parts.clear();
      const BBox box = face_bbox(mesh, surface.faces[static_cast<std::size_t>(f)],
                                 config_.search.search_margin);
      filter.query_box(box, parts);
      for (idx_t q : parts) {
        if (q == home) continue;
        cluster.send(home, q, 1);
        faces_on[static_cast<std::size_t>(q)].push_back(f);
      }
    }
  }
  report.search_exchange = cluster.finish();

  // Local search in the RCB decomposition.
  std::vector<std::vector<idx_t>> nodes_on(static_cast<std::size_t>(num_parts));
  for (std::size_t i = 0; i < partitioner_.contact_ids().size(); ++i) {
    nodes_on[static_cast<std::size_t>(partitioner_.contact_labels()[i])]
        .push_back(partitioner_.contact_ids()[i]);
  }
  const LocalSearchOptions local = config_.search.local_options(body_of_node);
  report.events_per_processor.assign(static_cast<std::size_t>(num_parts), 0);
  for (idx_t q = 0; q < num_parts; ++q) {
    if (nodes_on[static_cast<std::size_t>(q)].empty() ||
        faces_on[static_cast<std::size_t>(q)].empty()) {
      continue;
    }
    const auto local_events = local_contact_search_subset(
        mesh, surface, nodes_on[static_cast<std::size_t>(q)],
        faces_on[static_cast<std::size_t>(q)], local);
    report.events_per_processor[static_cast<std::size_t>(q)] =
        to_idx(local_events.size());
    report.events.insert(report.events.end(), local_events.begin(),
                         local_events.end());
  }
  std::sort(report.events.begin(), report.events.end(), event_order);
  report.contact_events = to_idx(report.events.size());
  for (const ContactEvent& e : report.events) {
    if (e.signed_distance < 0) ++report.penetrating_events;
  }
}

}  // namespace cpart
