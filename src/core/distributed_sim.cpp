#include "core/distributed_sim.hpp"

#include <algorithm>
#include <array>
#include <utility>

#include "parallel/thread_pool.hpp"
#include "runtime/label_codec.hpp"
#include "tree/tree_io.hpp"
#include "util/timer.hpp"

namespace cpart {

namespace {

/// Scans the live boundary faces of element `e` at nose height `nose` and
/// calls fn(lf, ids, nf) for every face that passes the contact-zone
/// designation. This is THE kept-face predicate of the distributed step —
/// both flavors call it per element, so erosion, boundary, centroid, and
/// zone arithmetic are identical by construction (the centroid follows
/// ImpactSim::snapshot exactly: sum in face-node order, then (1/n) *).
template <typename Fn>
void scan_element_faces(const ImpactSim& sim, const MeshTopology& topo,
                        idx_t e, real_t nose, std::span<const Vec3> positions,
                        Fn&& fn) {
  if (sim.element_eroded(e, nose)) return;
  const int fpe = topo.faces_per_element();
  std::array<idx_t, 4> ids;
  for (int lf = 0; lf < fpe; ++lf) {
    const idx_t nb = topo.face_neighbor(e, lf);
    if (nb != kInvalidIndex && !sim.element_eroded(nb, nose)) continue;
    const int nf = topo.face_nodes(e, lf, ids);
    Vec3 c{};
    for (int i = 0; i < nf; ++i) {
      c = c + positions[static_cast<std::size_t>(ids[i])];
    }
    c = (1.0 / static_cast<real_t>(nf)) * c;
    if (!sim.face_in_contact_zone(ids[0], c)) continue;
    fn(lf, ids, nf);
  }
}

bool event_order(const ContactEvent& a, const ContactEvent& b) {
  if (a.node != b.node) return a.node < b.node;
  return a.distance < b.distance;
}

void finalize_events(DistributedStepReport& report) {
  std::sort(report.events.begin(), report.events.end(), event_order);
  report.contact_events = to_idx(report.events.size());
  report.penetrating_events = 0;
  for (const ContactEvent& e : report.events) {
    if (e.signed_distance < 0) ++report.penetrating_events;
  }
}

FaceRecord record_from_msg(const FaceShipMsg& m) {
  FaceRecord rec;
  rec.key = m.face;
  rec.num_nodes = m.num_nodes;
  rec.nodes = m.nodes;
  rec.coords = m.coords;
  return rec;
}

/// Repartitioning runs through the same facade the initial decomposition
/// uses, with the same hierarchy — k is the rank count and the groups are
/// contiguous rank ranges.
PartitionerConfig repartitioner_config(const DistributedSimConfig& config) {
  PartitionerConfig pc;
  pc.options = config.decomposition.partitioner;
  pc.options.k = config.decomposition.k;
  pc.options.epsilon = config.decomposition.epsilon;
  pc.hierarchy = config.decomposition.hierarchy;
  return pc;
}

}  // namespace

DistributedSim::DistributedSim(const ImpactSim& sim,
                               const DistributedSimConfig& config)
    : sim_(&sim),
      config_(config),
      partitioner_(repartitioner_config(config)),
      topo_(sim.initial_mesh()),
      exchange_(config.decomposition.k),
      async_(config.decomposition.k) {
  config_.search.validate("DistributedSim");
  require(config_.repartition_period >= 0,
          "DistributedSim: repartition_period must be >= 0");

  body_of_node_.reserve(sim.node_body().size());
  for (Body b : sim.node_body()) body_of_node_.push_back(static_cast<int>(b));

  // Initial decomposition: the paper's MCML+DT partition of the snapshot-0
  // mesh becomes the initial ownership map. The partitioner is not kept —
  // afterwards the labels live in (and only in) the rank states.
  const ImpactSim::Snapshot snap0 = sim.snapshot(0);
  McmlDtPartitioner partitioner(snap0.mesh, snap0.surface,
                                config_.decomposition);
  states_.resize(static_cast<std::size_t>(k()));
  for (idx_t r = 0; r < k(); ++r) {
    states_[static_cast<std::size_t>(r)].init(topo_, r,
                                              partitioner.node_partition(),
                                              k());
  }
  gather_providers_.assign(static_cast<std::size_t>(k()), {});
  for (idx_t r = 1; r < k(); ++r) gather_providers_[0].push_back(r);
}

std::vector<idx_t> DistributedSim::compute_repartition(
    idx_t s, std::span<const idx_t> owner, std::span<const char> is_contact,
    bool* cross_group) const {
  // The repartition graph is built over the immutable topology (eroded
  // elements included) — the same substrate the ownership machinery runs
  // on, so the protocol never needs a compacted central mesh.
  const CsrGraph g =
      build_two_phase_graph(sim_->initial_mesh(), is_contact,
                            config_.decomposition.contact_edge_weight);
  RepartitionOptions ro = config_.repartition;
  ro.seed = config_.repartition.seed + static_cast<std::uint64_t>(s);
  return partitioner_.repartition(g, owner, ro, cross_group);
}

DistributedStepReport DistributedSim::run_step(idx_t s) {
  require(!suspended_, "DistributedSim::run_step: sim is suspended");
  PipelineHealth recovery_health;
  double checkpoint_ms = 0;
  double recovery_ms = 0;
  idx_t replayed = 0;
  bool recovered = false;

  // Lazy store init plus a baseline checkpoint before the first step, so a
  // restore is always possible — a death before the first period boundary
  // replays from the initial decomposition.
  if (config_.checkpoint_period > 0 && store_ == nullptr) {
    require(!config_.checkpoint_dir.empty(),
            "DistributedSim: checkpoint_period > 0 requires checkpoint_dir");
    store_ = std::make_unique<CheckpointStore>(config_.checkpoint_dir,
                                               *checkpoint_shim_);
    Timer baseline_timer;
    if (store_->write(make_checkpoint_data(), config_.checkpoint_retry,
                      &recovery_health.backoff_ms)) {
      ++recovery_health.checkpoints_written;
    } else {
      ++recovery_health.checkpoint_write_failures;
    }
    checkpoint_ms += baseline_timer.milliseconds();
  }

  step_history_.push_back(s);

  DistributedStepReport report;
  for (;;) {
    try {
      // Run every uncompleted history entry. On the fault-free path that is
      // exactly the one step just pushed; after a restore the cursor is
      // rewound and all but the last entry are replays — re-executions of
      // steps lost to the rollback, bit-identical to their first run, whose
      // reports are discarded (the caller already has them; replay exists
      // to rebuild state).
      while (replay_pos_ < step_history_.size()) {
        const bool is_replay = replay_pos_ + 1 < step_history_.size();
        Timer attempt_timer;
        report = DistributedStepReport{};
        run_step_attempt(step_history_[replay_pos_], report);
        ++steps_run_;
        ++replay_pos_;
        if (is_replay) {
          ++replayed;
          ++recovery_health.replay_steps;
          recovery_health += report.health;
          recovery_ms += attempt_timer.milliseconds();
        }
      }
      break;
    } catch (const RankDeathError& death) {
      Timer restore_timer;
      exchange_.abort_step();
      // Drain the dead attempt's transport counters so they do not leak
      // into the next attempt's report; they stay in the recovery tally —
      // those deliveries did happen.
      recovery_health += exchange_.take_health();
      recovery_health.rank_deaths += static_cast<wgt_t>(death.ranks().size());
      recovery_health.failed_ranks += static_cast<wgt_t>(death.ranks().size());
      recovered = true;
      if (restore_from_checkpoint()) {
        ++recovery_health.recoveries;
      } else {
        // No durable checkpoint (checkpointing disabled, or the store is
        // unreadable): complete this step degraded from the start-of-step
        // snapshot and continue unprotected — the same fallback the
        // transport-exhaustion path uses.
        report = DistributedStepReport{};
        std::vector<idx_t> owner = start_owner_;
        std::vector<wgt_t> hits = start_hits_;
        run_reference_body(step_history_[replay_pos_], is_migration_step(),
                           owner, hits, report);
        scatter_global_state(owner, hits);
        ++recovery_health.degraded_steps;
        ++steps_run_;
        ++replay_pos_;
      }
      recovery_ms += restore_timer.milliseconds();
    }
  }

  // Period boundary: commit a fresh checkpoint. A failed commit never
  // destroys the previous one (keep-last-good) — the history keeps
  // accumulating so a later death still replays from the last durable
  // state.
  if (store_ != nullptr && config_.checkpoint_period > 0 &&
      steps_run_ % config_.checkpoint_period == 0) {
    Timer commit_timer;
    if (store_->write(make_checkpoint_data(), config_.checkpoint_retry,
                      &recovery_health.backoff_ms)) {
      ++recovery_health.checkpoints_written;
      step_history_.clear();
      replay_pos_ = 0;
    } else {
      ++recovery_health.checkpoint_write_failures;
    }
    checkpoint_ms += commit_timer.milliseconds();
  }

  report.recovered = recovered;
  report.replayed_steps = replayed;
  report.checkpoint_ms = checkpoint_ms;
  report.recovery_ms = recovery_ms;
  report.health += recovery_health;
  return report;
}

void DistributedSim::run_step_attempt(idx_t s, DistributedStepReport& report) {
  const bool migrate = is_migration_step();
  const idx_t nn = topo_.num_nodes();

  // This execution's injected rank faults, decided up front as a pure
  // function of (seed, logical step, rank, incarnation). The incarnation is
  // the execution count of the logical step, so a replayed step draws kNone
  // and recovery always makes progress.
  any_death_ = false;
  any_hang_ = false;
  FaultInjector* injector = exchange_.fault_injector();
  if (injector != nullptr) {
    const auto step_id = static_cast<std::size_t>(steps_run_);
    if (step_attempts_.size() <= step_id) {
      step_attempts_.resize(step_id + 1, 0);
    }
    const idx_t incarnation = step_attempts_[step_id]++;
    death_mask_.assign(static_cast<std::size_t>(k()), 0);
    hang_mask_.assign(static_cast<std::size_t>(k()), 0);
    for (idx_t r = 0; r < k(); ++r) {
      const RankFaultKind kind =
          injector->rank_fault(steps_run_, r, incarnation);
      if (kind == RankFaultKind::kNone) continue;
      injector->record_rank_fault(kind);
      if (kind == RankFaultKind::kDeath) {
        death_mask_[static_cast<std::size_t>(r)] = 1;
        any_death_ = true;
      } else {
        hang_mask_[static_cast<std::size_t>(r)] = 1;
        any_hang_ = true;
      }
    }
  }

  // Start-of-step recovery snapshot: if the transport gives up mid-step the
  // reference body reruns the whole step from here (positions need no
  // recovery — they are recomputed closed-form and re-haloed every step).
  start_owner_ = states_[0].node_owner;
  start_hits_.resize(static_cast<std::size_t>(nn));
  for (idx_t v = 0; v < nn; ++v) {
    const auto sv = static_cast<std::size_t>(v);
    start_hits_[sv] =
        states_[static_cast<std::size_t>(start_owner_[sv])].contact_hits[sv];
  }

  PipelineHealth health;
  const bool ok = try_spmd_step(exchange_, health, [&] {
    run_step_spmd(s, migrate, report);
  });
  if (ok) {
    report.health = exchange_.take_health();
  } else {
    report = DistributedStepReport{};
    std::vector<idx_t> owner = start_owner_;
    std::vector<wgt_t> hits = start_hits_;
    run_reference_body(s, migrate, owner, hits, report);
    scatter_global_state(owner, hits);
    report.health = health;
  }
}

DistributedStepReport DistributedSim::run_step_reference(idx_t s) {
  const bool migrate = is_migration_step();
  const idx_t nn = topo_.num_nodes();
  std::vector<idx_t> owner = states_[0].node_owner;
  std::vector<wgt_t> hits(static_cast<std::size_t>(nn));
  for (idx_t v = 0; v < nn; ++v) {
    const auto sv = static_cast<std::size_t>(v);
    hits[sv] = states_[static_cast<std::size_t>(owner[sv])].contact_hits[sv];
  }
  DistributedStepReport report;
  run_reference_body(s, migrate, owner, hits, report);
  scatter_global_state(owner, hits);
  ++steps_run_;
  return report;
}

void DistributedSim::run_step_spmd(idx_t s, bool migrate,
                                   DistributedStepReport& report) {
  const idx_t np = k();
  const idx_t nn = topo_.num_nodes();
  const real_t nose = sim_->nose_z(s);
  report.step = s;
  report.migrated = migrate;

  // Recycle last step's descriptor tree into the induction workspace while
  // the descriptors are still alive — superstep A's begin_step drops them.
  if (states_[0].descriptors.has_value()) {
    induce_ws_.recycle(states_[0].descriptors->release_tree());
  }

  // Neighbor topology of this step's halo: dst waits on just these source
  // rows instead of all k (the send lists change across migrations, so the
  // inverse is rebuilt per step).
  halo_providers_.assign(static_cast<std::size_t>(np), {});
  for (idx_t r = 0; r < np; ++r) {
    for (const HaloSend& hs : states_[static_cast<std::size_t>(r)].halo_sends) {
      halo_providers_[static_cast<std::size_t>(hs.dst)].push_back(r);
    }
  }
  for (std::vector<idx_t>& list : halo_providers_) {
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
  }

  // --- Supersteps A+B in one dependency-driven run: owned kinematics +
  // halo post, then — per rank, as soon as its own halo neighbors' rows
  // commit (delivery #1) — ghost intake, local surface extraction, and the
  // contact-point post to rank 0. The third phase has no body: it is the
  // gather (delivery #2), which commits rank 0's column once ranks 1..k-1
  // closed their rows; every other rank reads nothing and passes through.
  // ---------------------------------------------------------------------------
  const auto phase_a = [&](idx_t r) {
    if (any_death_ && death_mask_[static_cast<std::size_t>(r)]) {
      // The injected death: the rank vanishes at step entry, before any of
      // its sends. RankDeathError is not degradable — it unwinds through
      // try_spmd_step into the recovery loop of run_step.
      throw RankDeathError({r});
    }
    SubdomainState& st = states_[static_cast<std::size_t>(r)];
    st.begin_step();
    for (idx_t v : st.owned_nodes) {
      st.positions[static_cast<std::size_t>(v)] = sim_->displaced(v, nose);
    }
    for (const HaloSend& hs : st.halo_sends) {
      exchange_.halo().send(
          r, hs.dst,
          HaloNodeMsg{hs.node,
                      st.positions[static_cast<std::size_t>(hs.node)]});
    }
  };
  const auto phase_b = [&](idx_t r) {
    SubdomainState& st = states_[static_cast<std::size_t>(r)];
    for (const HaloNodeMsg& m : exchange_.halo().inbox(r)) {
      st.positions[static_cast<std::size_t>(m.node)] = m.position;
    }
    for (idx_t e : st.tracked_elements) {
      scan_element_faces(
          *sim_, topo_, e, nose, st.positions,
          [&](int lf, const std::array<idx_t, 4>& ids, int nf) {
            for (int i = 0; i < nf; ++i) {
              const auto v = static_cast<std::size_t>(ids[i]);
              if (st.node_owner[v] == r && !st.node_mask[v]) {
                st.node_mask[v] = 1;
                st.contact_nodes.push_back(ids[i]);
              }
            }
            const idx_t home = majority_owner(
                {ids.data(), static_cast<std::size_t>(nf)}, st.node_owner);
            if (home != r) return;
            FaceRecord rec;
            rec.key = topo_.face_key(e, lf);
            rec.num_nodes = nf;
            for (int i = 0; i < nf; ++i) {
              rec.nodes[i] = ids[i];
              rec.coords[i] = st.positions[static_cast<std::size_t>(ids[i])];
            }
            st.owned_records.push_back(rec);
          });
    }
    std::sort(st.contact_nodes.begin(), st.contact_nodes.end());
    for (idx_t v : st.contact_nodes) {
      st.node_mask[static_cast<std::size_t>(v)] = 0;
    }
    for (idx_t v : st.contact_nodes) {
      exchange_.coupling_forward().send(
          r, 0, ContactPointMsg{v, st.positions[static_cast<std::size_t>(v)]});
    }
  };
  const std::array<AsyncPhase, 3> kinematics_phases = {
      AsyncPhase{.body = phase_a, .writes = channel_bit(ChannelId::kHalo)},
      AsyncPhase{.body = phase_b,
                 .reads = channel_bit(ChannelId::kHalo),
                 .writes = channel_bit(ChannelId::kCouplingForward),
                 .providers = &halo_providers_},
      AsyncPhase{.body = [](idx_t) {},
                 .reads = channel_bit(ChannelId::kCouplingForward),
                 .providers = &gather_providers_},
  };
  // Injected hangs arm the executor's watchdog so a rank that never
  // publishes is declared dead instead of deadlocking the run.
  AsyncRunOptions fault_options;
  if (any_hang_) {
    fault_options.watchdog_deadline_ms = config_.watchdog_deadline_ms;
    fault_options.hung = hang_mask_;
  }
  async_.run(kinematics_phases, exchange_, fault_options);  // #1 and #2
  report.fe_exchange = exchange_.take_fe_traffic();
  report.halo_payload_bytes = exchange_.take_halo_bytes();
  report.coupling_exchange = exchange_.take_coupling_traffic();
  report.coupling_payload_bytes = exchange_.take_coupling_bytes();

  // On migration steps the driver computes the new labels here, between the
  // contact gather and the descriptor superstep: kway refinement dispatches
  // ThreadPool work, which a rank program must never do (nested dispatch
  // deadlocks the pool). The wire protocol stays rank-level — rank 0
  // broadcasts the changed labels, each rank computes its own outgoing set.
  std::vector<idx_t> new_part;
  if (migrate) {
    contact_mask_.assign(static_cast<std::size_t>(nn), 0);
    for (const SubdomainState& st : states_) {
      for (idx_t v : st.contact_nodes) {
        contact_mask_[static_cast<std::size_t>(v)] = 1;
      }
    }
    new_part = compute_repartition(s, states_[0].node_owner, contact_mask_,
                                   &report.repart_cross_group);
  }

  // --- Driver section (was superstep C): rank 0's induction runs on the
  // calling thread so it can fan subtrees out across the whole ThreadPool
  // (dopts.parallel — a rank program must never dispatch pool work), warmed
  // by the recycled storage of last step's tree. The broadcast payloads are
  // the binary codecs: tree_to_binary for the descriptor tree, one
  // delta-coded label blob per step instead of one message per changed
  // node. -------------------------------------------------------------------
  {
    SubdomainState& st = states_[0];
    std::vector<std::pair<idx_t, Vec3>> pts;
    pts.reserve(st.contact_nodes.size() +
                exchange_.coupling_forward().inbox(0).size());
    for (idx_t v : st.contact_nodes) {
      pts.emplace_back(v, st.positions[static_cast<std::size_t>(v)]);
    }
    for (const ContactPointMsg& m : exchange_.coupling_forward().inbox(0)) {
      pts.emplace_back(m.node, m.position);
    }
    // Each node has exactly one owner, so ids are unique and the sort is a
    // total order — the global ascending contact-id order of the oracle.
    std::sort(pts.begin(), pts.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    std::vector<Vec3> points;
    std::vector<idx_t> labels;
    points.reserve(pts.size());
    labels.reserve(pts.size());
    for (const auto& [id, p] : pts) {
      points.push_back(p);
      labels.push_back(st.node_owner[static_cast<std::size_t>(id)]);
    }
    DescriptorOptions dopts = config_.decomposition.descriptor;
    dopts.dim = topo_.mesh().dim();
    dopts.parallel = true;
    st.descriptors.emplace(points, labels, np, dopts, &induce_ws_);
    exchange_.descriptors().broadcast(
        0, DescriptorTreeMsg{tree_to_binary(st.descriptors->tree())});
    if (migrate) {
      for (idx_t v = 0; v < nn; ++v) {
        const auto sv = static_cast<std::size_t>(v);
        if (new_part[sv] == st.node_owner[sv]) continue;
        st.pending_labels.emplace_back(v, new_part[sv]);
      }
      if (!st.pending_labels.empty()) {
        exchange_.labels().broadcast(
            0, LabelBatchMsg{encode_label_updates(st.pending_labels)});
      }
    }
  }
  report.descriptor_tree_nodes = states_[0].descriptors->num_tree_nodes();

  // --- Supersteps D+E(+F) in one dependency-driven run. The broadcast
  // group (descriptors + labels, delivery #3) is born closed — posted by
  // the driver above — so each rank's wire validation and decode start
  // immediately and the former serial section spreads across the workers.
  // E follows per rank as its faces cells commit (delivery #4); on
  // migration steps F consumes the migration channels (delivery #5) and
  // commits the handover. ---------------------------------------------------
  const LocalSearchOptions local = config_.search.local_options(body_of_node_);
  const int dim = topo_.mesh().dim();
  const auto phase_d = [&](idx_t r) {
    SubdomainState& st = states_[static_cast<std::size_t>(r)];
    if (r != 0) {
      const auto& in = exchange_.descriptors().inbox(r);
      require(in.size() == 1, "DistributedSim: descriptor broadcast lost");
      st.descriptors.emplace(decode_tree(in.front().wire), np);
      const auto& lin = exchange_.labels().inbox(r);
      if (!lin.empty()) {
        require(lin.size() == 1, "DistributedSim: label broadcast lost");
        st.pending_labels = decode_label_updates(lin.front().blob);
      }
    }
    for (const FaceRecord& rec : st.owned_records) {
      BBox box;
      for (int i = 0; i < rec.num_nodes; ++i) box.expand(rec.coords[i]);
      box.inflate(config_.search.search_margin);
      st.query_parts.clear();
      st.descriptors->query_box(box, st.query_parts);
      for (idx_t q : st.query_parts) {
        if (q == r) continue;
        FaceShipMsg m;
        m.face = rec.key;
        m.element = rec.key / static_cast<idx_t>(topo_.faces_per_element());
        m.num_nodes = rec.num_nodes;
        m.nodes = rec.nodes;
        m.coords = rec.coords;
        exchange_.faces().send(r, q, m);
      }
    }
  };
  const auto phase_e = [&](idx_t r) {
    SubdomainState& st = states_[static_cast<std::size_t>(r)];
    st.local_records.assign(st.owned_records.begin(), st.owned_records.end());
    for (const FaceShipMsg& m : exchange_.faces().inbox(r)) {
      st.local_records.push_back(record_from_msg(m));
    }
    // Face keys are globally unique (one home rank derives each face), so
    // sorting by key reproduces the oracle's global ascending-key order.
    std::sort(st.local_records.begin(), st.local_records.end(),
              [](const FaceRecord& a, const FaceRecord& b) {
                return a.key < b.key;
              });
    if (!st.contact_nodes.empty() && !st.local_records.empty()) {
      local_contact_search_records_into(st.contact_nodes, st.positions, dim,
                                        st.local_records, local,
                                        st.search_scratch, st.events);
    }
    for (const ContactEvent& ev : st.events) {
      ++st.contact_hits[static_cast<std::size_t>(ev.node)];
    }
    if (!migrate) return;
    // Node migration: this rank ships the authoritative state of every
    // owned node the new labels take away — including this step's hits.
    for (const auto& [v, o] : st.pending_labels) {
      const auto sv = static_cast<std::size_t>(v);
      if (st.node_owner[sv] != r || o == r) continue;
      exchange_.migrate_nodes().send(
          r, o, NodeMigrateMsg{v, st.positions[sv], st.contact_hits[sv]});
      ++st.moved_nodes_out;
    }
    // Element migration: owned elements whose majority owner changes under
    // the new labels are re-homed with their connectivity record.
    st.owner_scratch.assign(st.node_owner.begin(), st.node_owner.end());
    for (const auto& [v, o] : st.pending_labels) {
      st.owner_scratch[static_cast<std::size_t>(v)] = o;
    }
    for (idx_t e : st.owned_elements) {
      const auto elem = topo_.mesh().element(e);
      const idx_t new_home = majority_owner(elem, st.owner_scratch);
      if (new_home == r) continue;
      ElementMigrateMsg m;
      m.element = e;
      m.num_nodes = static_cast<std::int32_t>(elem.size());
      for (std::size_t i = 0; i < elem.size(); ++i) m.nodes[i] = elem[i];
      exchange_.migrate_elements().send(r, new_home, m);
      ++st.moved_elements_out;
    }
  };
  // --- Phase F (migration steps only): migration commit — apply labels,
  // splice migrated state, validate element records, rebuild ownership
  // views. ------------------------------------------------------------------
  const auto phase_f = [&](idx_t r) {
    SubdomainState& st = states_[static_cast<std::size_t>(r)];
    // Zero migrated-away accumulators while node_owner is still the old
    // map, so stale owned state cannot leak past the handover.
    for (const auto& [v, o] : st.pending_labels) {
      const auto sv = static_cast<std::size_t>(v);
      if (st.node_owner[sv] == r && o != r) st.contact_hits[sv] = 0;
    }
    std::swap(st.node_owner, st.owner_scratch);
    for (const NodeMigrateMsg& m : exchange_.migrate_nodes().inbox(r)) {
      require(m.node >= 0 && m.node < nn,
              "DistributedSim: migrated node id out of range");
      const auto sv = static_cast<std::size_t>(m.node);
      require(st.node_owner[sv] == r,
              "DistributedSim: node migrated to a rank that does not own it");
      st.positions[sv] = m.position;
      st.contact_hits[sv] = m.contact_hits;
    }
    for (const ElementMigrateMsg& m : exchange_.migrate_elements().inbox(r)) {
      require(m.element >= 0 && m.element < topo_.num_elements(),
              "DistributedSim: migrated element id out of range");
      const auto elem = topo_.mesh().element(m.element);
      require(static_cast<std::size_t>(m.num_nodes) == elem.size(),
              "DistributedSim: migrated element arity mismatch");
      for (std::size_t i = 0; i < elem.size(); ++i) {
        require(m.nodes[i] == elem[i],
                "DistributedSim: migrated element connectivity mismatch");
      }
      require(majority_owner(elem, st.node_owner) == r,
              "DistributedSim: element re-homed to the wrong rank");
    }
    st.rebuild_views(topo_, np);
  };

  const ChannelMask broadcast_mask = channel_bit(ChannelId::kDescriptors) |
                                     channel_bit(ChannelId::kLabels);
  const ChannelMask migrate_mask = channel_bit(ChannelId::kMigrateNodes) |
                                   channel_bit(ChannelId::kMigrateElements);
  std::vector<AsyncPhase> search_phases;
  search_phases.push_back(AsyncPhase{.body = phase_d,
                                     .reads = broadcast_mask,
                                     .writes = channel_bit(ChannelId::kFaces)});
  search_phases.push_back(
      AsyncPhase{.body = phase_e,
                 .reads = channel_bit(ChannelId::kFaces),
                 .writes = migrate ? migrate_mask : ChannelMask{0}});
  if (migrate) {
    search_phases.push_back(AsyncPhase{.body = phase_f,
                                       .reads = migrate_mask});
  }
  // deliveries #3, #4 (+ #5) inside (unreachable with a hang armed — the
  // first run already unwound — but the options are step-scoped)
  async_.run(search_phases, exchange_, fault_options);
  report.descriptor_broadcast_bytes = exchange_.take_descriptor_bytes();
  report.label_broadcast_bytes = exchange_.take_label_bytes();
  report.search_exchange = exchange_.take_search_traffic();
  report.face_payload_bytes = exchange_.take_face_bytes();

  if (migrate) {
    report.migration_exchange = exchange_.take_migration_traffic();
    report.migration_payload_bytes = exchange_.take_migration_bytes();
    for (const SubdomainState& st : states_) {
      report.repart_moved_nodes += st.moved_nodes_out;
      report.repart_moved_elements += st.moved_elements_out;
    }
  }

  // Deterministic merge: rank order, then one global (node, distance) sort.
  report.events_per_processor.assign(static_cast<std::size_t>(np), 0);
  report.events.clear();
  for (idx_t q = 0; q < np; ++q) {
    const SubdomainState& st = states_[static_cast<std::size_t>(q)];
    report.events_per_processor[static_cast<std::size_t>(q)] =
        to_idx(st.events.size());
    report.events.insert(report.events.end(), st.events.begin(),
                         st.events.end());
  }
  finalize_events(report);

  const std::vector<idx_t>& owner = states_[0].node_owner;
  std::vector<wgt_t> hits(static_cast<std::size_t>(nn));
  for (idx_t v = 0; v < nn; ++v) {
    const auto sv = static_cast<std::size_t>(v);
    hits[sv] = states_[static_cast<std::size_t>(owner[sv])].contact_hits[sv];
  }
  report.ownership_hash = ownership_hash(owner, hits);
}

void DistributedSim::run_reference_body(idx_t s, bool migrate,
                                        std::vector<idx_t>& owner,
                                        std::vector<wgt_t>& hits,
                                        DistributedStepReport& report) const {
  const idx_t np = k();
  const idx_t nn = topo_.num_nodes();
  const idx_t ne = topo_.num_elements();
  const real_t nose = sim_->nose_z(s);
  report.step = s;
  report.migrated = migrate;

  // Kinematics for every node — the centralized body holds the whole state.
  std::vector<Vec3> positions(static_cast<std::size_t>(nn));
  for (idx_t v = 0; v < nn; ++v) {
    positions[static_cast<std::size_t>(v)] = sim_->displaced(v, nose);
  }

  // FE halo: one unit per (owned node, tracker rank) pair — the identical
  // enumeration the rank states post from (shared collect_tracker_ranks).
  {
    VirtualCluster fe(np);
    std::vector<char> seen(static_cast<std::size_t>(np), 0);
    std::vector<idx_t> trackers;
    const wgt_t msg_bytes = wire_bytes(HaloNodeMsg{});
    for (idx_t v = 0; v < nn; ++v) {
      collect_tracker_ranks(topo_, owner, v, seen, trackers);
      for (idx_t q : trackers) {
        fe.send(owner[static_cast<std::size_t>(v)], q, 1);
        report.halo_payload_bytes += msg_bytes;
      }
    }
    report.fe_exchange = fe.finish();
  }

  // Global surface extraction + contact designation (same per-element scan
  // as the rank programs, over all elements in ascending order).
  struct HomedRecord {
    FaceRecord rec;
    idx_t home = kInvalidIndex;
  };
  std::vector<HomedRecord> records;
  std::vector<char> is_contact(static_cast<std::size_t>(nn), 0);
  for (idx_t e = 0; e < ne; ++e) {
    scan_element_faces(
        *sim_, topo_, e, nose, positions,
        [&](int lf, const std::array<idx_t, 4>& ids, int nf) {
          for (int i = 0; i < nf; ++i) {
            is_contact[static_cast<std::size_t>(ids[i])] = 1;
          }
          HomedRecord hr;
          hr.home = majority_owner(
              {ids.data(), static_cast<std::size_t>(nf)}, owner);
          hr.rec.key = topo_.face_key(e, lf);
          hr.rec.num_nodes = nf;
          for (int i = 0; i < nf; ++i) {
            hr.rec.nodes[i] = ids[i];
            hr.rec.coords[i] = positions[static_cast<std::size_t>(ids[i])];
          }
          records.push_back(hr);
        });
  }
  std::vector<idx_t> contact_ids;
  for (idx_t v = 0; v < nn; ++v) {
    if (is_contact[static_cast<std::size_t>(v)]) contact_ids.push_back(v);
  }

  // Contact-point gather to rank 0.
  {
    VirtualCluster coupling(np);
    const wgt_t msg_bytes = wire_bytes(ContactPointMsg{});
    for (idx_t v : contact_ids) {
      if (owner[static_cast<std::size_t>(v)] == 0) continue;
      coupling.send(owner[static_cast<std::size_t>(v)], 0, 1);
      report.coupling_payload_bytes += msg_bytes;
    }
    report.coupling_exchange = coupling.finish();
  }

  // Descriptor induction from the gathered points (labels are the current,
  // pre-migration owners, exactly as rank 0 induces them).
  std::vector<Vec3> points;
  std::vector<idx_t> labels;
  points.reserve(contact_ids.size());
  labels.reserve(contact_ids.size());
  for (idx_t v : contact_ids) {
    points.push_back(positions[static_cast<std::size_t>(v)]);
    labels.push_back(owner[static_cast<std::size_t>(v)]);
  }
  DescriptorOptions dopts = config_.decomposition.descriptor;
  dopts.dim = topo_.mesh().dim();
  dopts.parallel = true;
  const SubdomainDescriptors descriptors(points, labels, np, dopts);
  report.descriptor_tree_nodes = descriptors.num_tree_nodes();
  report.descriptor_broadcast_bytes =
      static_cast<wgt_t>(tree_to_binary(descriptors.tree()).size()) *
      std::max<wgt_t>(0, np - 1);

  // Repartition: computed here (where the SPMD driver computes it, from the
  // same labels and contact mask) but APPLIED only after the search — the
  // rank protocol commits ownership at superstep F.
  std::vector<idx_t> new_part;
  std::vector<idx_t> changed;
  if (migrate) {
    new_part =
        compute_repartition(s, owner, is_contact, &report.repart_cross_group);
    for (idx_t v = 0; v < nn; ++v) {
      if (new_part[static_cast<std::size_t>(v)] !=
          owner[static_cast<std::size_t>(v)]) {
        changed.push_back(v);
      }
    }
    if (!changed.empty()) {
      std::vector<LabelUpdate> updates;
      updates.reserve(changed.size());
      for (idx_t v : changed) {
        updates.emplace_back(v, new_part[static_cast<std::size_t>(v)]);
      }
      report.label_broadcast_bytes =
          static_cast<wgt_t>(encode_label_updates(updates).size()) *
          std::max<wgt_t>(0, np - 1);
    }
  }

  // Global search + element shipping under the descriptor filter.
  std::vector<std::vector<FaceRecord>> faces_on(
      static_cast<std::size_t>(np));
  {
    VirtualCluster search(np);
    std::vector<idx_t> parts;
    for (const HomedRecord& hr : records) {
      faces_on[static_cast<std::size_t>(hr.home)].push_back(hr.rec);
      BBox box;
      for (int i = 0; i < hr.rec.num_nodes; ++i) box.expand(hr.rec.coords[i]);
      box.inflate(config_.search.search_margin);
      parts.clear();
      descriptors.query_box(box, parts);
      FaceShipMsg probe;
      probe.num_nodes = hr.rec.num_nodes;
      for (idx_t q : parts) {
        if (q == hr.home) continue;
        search.send(hr.home, q, 1);
        report.face_payload_bytes += wire_bytes(probe);
        faces_on[static_cast<std::size_t>(q)].push_back(hr.rec);
      }
    }
    report.search_exchange = search.finish();
  }

  // Per-rank local search (serial) + hit accounting.
  std::vector<std::vector<idx_t>> nodes_on(static_cast<std::size_t>(np));
  for (idx_t v : contact_ids) {
    nodes_on[static_cast<std::size_t>(owner[static_cast<std::size_t>(v)])]
        .push_back(v);
  }
  const LocalSearchOptions local = config_.search.local_options(body_of_node_);
  const int dim = topo_.mesh().dim();
  report.events_per_processor.assign(static_cast<std::size_t>(np), 0);
  SubsetSearchScratch scratch;
  std::vector<ContactEvent> rank_events;
  for (idx_t q = 0; q < np; ++q) {
    const auto sq = static_cast<std::size_t>(q);
    rank_events.clear();
    if (!nodes_on[sq].empty() && !faces_on[sq].empty()) {
      local_contact_search_records_into(nodes_on[sq], positions, dim,
                                        faces_on[sq], local, scratch,
                                        rank_events);
    }
    report.events_per_processor[sq] = to_idx(rank_events.size());
    report.events.insert(report.events.end(), rank_events.begin(),
                         rank_events.end());
    for (const ContactEvent& ev : rank_events) {
      ++hits[static_cast<std::size_t>(ev.node)];
    }
  }
  finalize_events(report);

  // Migration accounting + ownership commit. Moving a node's state between
  // owners is a no-op on the global arrays, so only owner changes apply.
  if (migrate) {
    VirtualCluster migration(np);
    const wgt_t node_bytes = wire_bytes(NodeMigrateMsg{});
    for (idx_t v : changed) {
      migration.send(owner[static_cast<std::size_t>(v)],
                     new_part[static_cast<std::size_t>(v)], 1);
      report.migration_payload_bytes += node_bytes;
    }
    report.repart_moved_nodes = to_idx(changed.size());
    for (idx_t e = 0; e < ne; ++e) {
      const auto elem = topo_.mesh().element(e);
      const idx_t old_home = majority_owner(elem, owner);
      const idx_t new_home = majority_owner(elem, new_part);
      if (old_home == new_home) continue;
      migration.send(old_home, new_home, 1);
      ElementMigrateMsg probe;
      probe.num_nodes = static_cast<std::int32_t>(elem.size());
      report.migration_payload_bytes += wire_bytes(probe);
      ++report.repart_moved_elements;
    }
    report.migration_exchange = migration.finish();
    for (idx_t v : changed) {
      owner[static_cast<std::size_t>(v)] =
          new_part[static_cast<std::size_t>(v)];
    }
  }

  report.ownership_hash = ownership_hash(owner, hits);
}

void DistributedSim::scatter_global_state(std::span<const idx_t> owner,
                                          std::span<const wgt_t> hits) {
  ThreadPool::global().parallel_tasks(k(), [&](idx_t r) {
    SubdomainState& st = states_[static_cast<std::size_t>(r)];
    st.node_owner.assign(owner.begin(), owner.end());
    st.contact_hits.assign(hits.begin(), hits.end());
    st.rebuild_views(topo_, k());
  });
}

std::uint64_t DistributedSim::config_hash() const {
  std::uint64_t h = kFnvOffsetBasis;
  h = fnv1a_value(h, k());
  h = fnv1a_value(h, config_.repartition_period);
  h = fnv1a_value(h, config_.repartition.seed);
  h = fnv1a_value(h, topo_.num_nodes());
  h = fnv1a_value(h, topo_.num_elements());
  return h;
}

CheckpointData DistributedSim::make_checkpoint_data() const {
  const idx_t nn = topo_.num_nodes();
  CheckpointData ck;
  ck.config_hash = config_hash();
  ck.step = steps_run_;
  ck.superstep = exchange_.next_superstep();
  ck.k = k();
  ck.node_owner = states_[0].node_owner;
  ck.positions.resize(static_cast<std::size_t>(nn));
  ck.contact_hits.resize(static_cast<std::size_t>(nn));
  for (idx_t v = 0; v < nn; ++v) {
    const auto sv = static_cast<std::size_t>(v);
    const SubdomainState& st =
        states_[static_cast<std::size_t>(ck.node_owner[sv])];
    ck.positions[sv] = st.positions[sv];
    ck.contact_hits[sv] = st.contact_hits[sv];
  }
  return ck;
}

bool DistributedSim::restore_from_checkpoint() {
  if (store_ == nullptr) return false;
  const std::optional<CheckpointData> ck = store_->load();
  if (!ck.has_value()) return false;
  if (ck->config_hash != config_hash() || ck->k != k() ||
      to_idx(ck->node_owner.size()) != topo_.num_nodes()) {
    // A decodable checkpoint from some other run shares the directory —
    // unusable for this instance; treat as no checkpoint at all.
    return false;
  }
  ThreadPool::global().parallel_tasks(k(), [&](idx_t r) {
    SubdomainState& st = states_[static_cast<std::size_t>(r)];
    st.node_owner = ck->node_owner;
    st.positions = ck->positions;
    st.contact_hits = ck->contact_hits;
    st.rebuild_views(topo_, k());
  });
  // Roll the cursors back: the step counter drives the migration cadence
  // and the rank-fault schedule; the exchange superstep cursor keys the
  // transport fault schedule, so the replayed deliveries re-draw exactly
  // the decisions of the original run.
  steps_run_ = ck->step;
  exchange_.set_next_superstep(ck->superstep);
  replay_pos_ = 0;
  return true;
}

bool DistributedSim::suspend(double* backoff_ms_accum) {
  if (suspended_) return true;
  require(!config_.checkpoint_dir.empty(),
          "DistributedSim::suspend: requires checkpoint_dir");
  if (store_ == nullptr) {
    store_ = std::make_unique<CheckpointStore>(config_.checkpoint_dir,
                                               *checkpoint_shim_);
  }
  double scratch = 0;
  if (!store_->write(
          make_checkpoint_data(), config_.checkpoint_retry,
          backoff_ms_accum != nullptr ? backoff_ms_accum : &scratch)) {
    // Keep-last-good: the previous checkpoint (if any) survives and the
    // rank states stay resident, so the sim remains runnable as if the
    // suspend was never asked for.
    return false;
  }
  // The checkpoint now IS the session. Drop the per-rank states — the
  // dominant resident cost — and the replay history: the commit above is
  // a zero-replay restore point, so resume never re-executes a step the
  // caller already saw.
  states_.clear();
  states_.shrink_to_fit();
  step_history_.clear();
  replay_pos_ = 0;
  suspended_ = true;
  return true;
}

bool DistributedSim::resume() {
  if (!suspended_) return true;
  const std::optional<CheckpointData> ck = store_->load();
  if (!ck.has_value() || ck->config_hash != config_hash() || ck->k != k() ||
      to_idx(ck->node_owner.size()) != topo_.num_nodes()) {
    return false;  // unusable blob: stay suspended, state intact on disk
  }
  // Rebuild the rank states from scratch (suspend released them), then
  // overwrite the authoritative per-node state with the checkpoint — the
  // same scatter the rank-death recovery performs, minus replay (the
  // suspend commit was taken at the current step).
  states_.resize(static_cast<std::size_t>(k()));
  ThreadPool::global().parallel_tasks(k(), [&](idx_t r) {
    SubdomainState& st = states_[static_cast<std::size_t>(r)];
    st.init(topo_, r, ck->node_owner, k());
    st.positions = ck->positions;
    st.contact_hits = ck->contact_hits;
  });
  steps_run_ = ck->step;
  exchange_.set_next_superstep(ck->superstep);
  replay_pos_ = 0;
  suspended_ = false;
  return true;
}

std::size_t DistributedSim::resident_bytes() const {
  std::size_t total = 0;
  for (const SubdomainState& st : states_) {
    total += st.node_owner.capacity() * sizeof(idx_t);
    total += st.owned_nodes.capacity() * sizeof(idx_t);
    total += st.owned_elements.capacity() * sizeof(idx_t);
    total += st.tracked_elements.capacity() * sizeof(idx_t);
    total += st.halo_sends.capacity() * sizeof(HaloSend);
    total += st.positions.capacity() * sizeof(Vec3);
    total += st.contact_hits.capacity() * sizeof(wgt_t);
    total += st.node_mask.capacity() * sizeof(char);
    total += st.elem_mask.capacity() * sizeof(char);
    total += st.rank_seen.capacity() * sizeof(char);
    total += st.touched.capacity() * sizeof(idx_t);
  }
  return total;
}

std::size_t DistributedSim::estimate_resident_bytes(idx_t num_nodes,
                                                    idx_t num_elements,
                                                    idx_t k) {
  // Per rank, the full-mesh dense arrays dominate: node_owner, positions,
  // contact_hits, and the two per-node/per-element masks. The ownership
  // views (owned/tracked lists, halo sends) sum to roughly one more
  // node-sized array across all ranks, which the mask terms absorb.
  const auto nn = static_cast<std::size_t>(num_nodes);
  const auto ne = static_cast<std::size_t>(num_elements);
  return static_cast<std::size_t>(k) *
         (nn * (sizeof(idx_t) + sizeof(Vec3) + sizeof(wgt_t) + 2) + ne);
}

std::uint64_t DistributedSim::ownership_hash(
    std::span<const idx_t> owner, std::span<const wgt_t> hits) const {
  std::uint64_t h = kFnvOffsetBasis;
  for (idx_t o : owner) h = fnv1a_value(h, o);
  for (wgt_t w : hits) h = fnv1a_value(h, w);
  return h;
}

std::vector<idx_t> DistributedSim::ownership_map() const {
  for (const SubdomainState& st : states_) {
    require(st.node_owner == states_[0].node_owner,
            "DistributedSim: ownership replicas diverged");
  }
  return states_[0].node_owner;
}

std::vector<wgt_t> DistributedSim::gather_contact_hits() const {
  const std::vector<idx_t>& owner = states_[0].node_owner;
  std::vector<wgt_t> hits(owner.size());
  for (std::size_t v = 0; v < owner.size(); ++v) {
    hits[v] = states_[static_cast<std::size_t>(owner[v])].contact_hits[v];
  }
  return hits;
}

}  // namespace cpart
