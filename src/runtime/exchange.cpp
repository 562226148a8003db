#include "runtime/exchange.hpp"

#include <sstream>

namespace cpart {

Exchange::Exchange(idx_t k)
    : k_(k),
      fe_cluster_(k),
      search_cluster_(k),
      coupling_cluster_(k),
      migration_cluster_(k) {
  descriptors_.resize(k);
  halo_.resize(k);
  faces_.resize(k);
  coupling_forward_.resize(k);
  coupling_return_.resize(k);
  boxes_.resize(k);
  labels_.resize(k);
  migrate_nodes_.resize(k);
  migrate_elements_.resize(k);
}

void Exchange::set_retry_policy(const RetryPolicy& policy) {
  require(policy.max_attempts >= 1,
          "Exchange: retry policy needs at least one attempt");
  require(policy.backoff_base_ms >= 0,
          "Exchange: backoff base must be non-negative");
  retry_ = policy;
}

bool Exchange::async_validate_cell(ChannelId id, std::uint64_t superstep,
                                   idx_t attempt, idx_t from, idx_t to,
                                   PipelineHealth& health) {
  switch (id) {
    case ChannelId::kDescriptors:
      return descriptors_.attempt_deliver_cell(injector_, id, superstep,
                                               attempt, from, to, health);
    case ChannelId::kHalo:
      return halo_.attempt_deliver_cell(injector_, id, superstep, attempt,
                                        from, to, health);
    case ChannelId::kFaces:
      return faces_.attempt_deliver_cell(injector_, id, superstep, attempt,
                                         from, to, health);
    case ChannelId::kCouplingForward:
      return coupling_forward_.attempt_deliver_cell(injector_, id, superstep,
                                                    attempt, from, to, health);
    case ChannelId::kCouplingReturn:
      return coupling_return_.attempt_deliver_cell(injector_, id, superstep,
                                                   attempt, from, to, health);
    case ChannelId::kBoxes:
      return boxes_.attempt_deliver_cell(injector_, id, superstep, attempt,
                                         from, to, health);
    case ChannelId::kLabels:
      return labels_.attempt_deliver_cell(injector_, id, superstep, attempt,
                                          from, to, health);
    case ChannelId::kMigrateNodes:
      return migrate_nodes_.attempt_deliver_cell(injector_, id, superstep,
                                                 attempt, from, to, health);
    case ChannelId::kMigrateElements:
      return migrate_elements_.attempt_deliver_cell(injector_, id, superstep,
                                                    attempt, from, to, health);
  }
  require(false, "Exchange::async_validate_cell: unknown channel");
  return false;
}

void Exchange::async_commit_dst(ChannelId id, idx_t to, wgt_t& bytes) {
  switch (id) {
    case ChannelId::kDescriptors:
      bytes += descriptors_.commit_dst(to, nullptr);
      return;
    case ChannelId::kHalo:
      bytes += halo_.commit_dst(to, &fe_cluster_);
      return;
    case ChannelId::kFaces:
      bytes += faces_.commit_dst(to, &search_cluster_);
      return;
    // Forward and return share one cluster finished once per step, so a
    // rank pair exchanging coupling data in both directions counts on the
    // combined matrix exactly as m2m_traffic counts it. Node and element
    // migrations share another: the redistribution matrix counts every
    // record a rank pair exchanged.
    case ChannelId::kCouplingForward:
      bytes += coupling_forward_.commit_dst(to, &coupling_cluster_);
      return;
    case ChannelId::kCouplingReturn:
      bytes += coupling_return_.commit_dst(to, &coupling_cluster_);
      return;
    case ChannelId::kBoxes:
      bytes += boxes_.commit_dst(to, nullptr);
      return;
    case ChannelId::kLabels:
      bytes += labels_.commit_dst(to, nullptr);
      return;
    case ChannelId::kMigrateNodes:
      bytes += migrate_nodes_.commit_dst(to, &migration_cluster_);
      return;
    case ChannelId::kMigrateElements:
      bytes += migrate_elements_.commit_dst(to, &migration_cluster_);
      return;
  }
  require(false, "Exchange::async_commit_dst: unknown channel");
}

void Exchange::async_fold_group(const AsyncGroupAccounting& acc) {
  ++superstep_;
  ++health_.deliveries;
  health_.delivery_attempts += acc.passes;
  for (idx_t pass = 0; pass + 1 < acc.passes; ++pass) {
    ++health_.retries;
    health_.backoff_ms += retry_.backoff_for(pass);
  }
  if (acc.exhausted) ++health_.exhausted_deliveries;
  for (const PipelineHealth& scratch : acc.dst_health) health_ += scratch;
  for (const auto& per_channel : acc.dst_bytes) {
    descriptor_bytes_ +=
        per_channel[static_cast<std::size_t>(ChannelId::kDescriptors)];
    halo_bytes_ += per_channel[static_cast<std::size_t>(ChannelId::kHalo)];
    face_bytes_ += per_channel[static_cast<std::size_t>(ChannelId::kFaces)];
    coupling_bytes_ +=
        per_channel[static_cast<std::size_t>(ChannelId::kCouplingForward)] +
        per_channel[static_cast<std::size_t>(ChannelId::kCouplingReturn)];
    box_bytes_ += per_channel[static_cast<std::size_t>(ChannelId::kBoxes)];
    label_bytes_ += per_channel[static_cast<std::size_t>(ChannelId::kLabels)];
    migration_bytes_ +=
        per_channel[static_cast<std::size_t>(ChannelId::kMigrateNodes)] +
        per_channel[static_cast<std::size_t>(ChannelId::kMigrateElements)];
  }
}

TransportError Exchange::exhausted_error(std::uint64_t superstep,
                                         idx_t attempts, idx_t corrupt_cells) {
  std::ostringstream os;
  os << "Exchange: superstep " << superstep << " still has " << corrupt_cells
     << " corrupt cell(s) after " << attempts << " delivery attempt(s)";
  return TransportError(os.str(), superstep, attempts, corrupt_cells);
}

void Exchange::abort_step() {
  descriptors_.abort();
  halo_.abort();
  faces_.abort();
  coupling_forward_.abort();
  coupling_return_.abort();
  boxes_.abort();
  labels_.abort();
  migrate_nodes_.abort();
  migrate_elements_.abort();
  fe_cluster_.finish();
  search_cluster_.finish();
  coupling_cluster_.finish();
  migration_cluster_.finish();
  descriptor_bytes_ = 0;
  halo_bytes_ = 0;
  face_bytes_ = 0;
  coupling_bytes_ = 0;
  box_bytes_ = 0;
  label_bytes_ = 0;
  migration_bytes_ = 0;
}

}  // namespace cpart
