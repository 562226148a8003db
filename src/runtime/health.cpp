#include "runtime/health.hpp"

#include <sstream>

namespace cpart {

const char* channel_name(ChannelId id) {
  switch (id) {
    case ChannelId::kDescriptors:
      return "descriptors";
    case ChannelId::kHalo:
      return "halo";
    case ChannelId::kFaces:
      return "faces";
    case ChannelId::kCouplingForward:
      return "coupling_forward";
    case ChannelId::kCouplingReturn:
      return "coupling_return";
    case ChannelId::kBoxes:
      return "boxes";
    case ChannelId::kLabels:
      return "labels";
    case ChannelId::kMigrateNodes:
      return "migrate_nodes";
    case ChannelId::kMigrateElements:
      return "migrate_elements";
  }
  return "unknown";
}

ChannelHealth& ChannelHealth::operator+=(const ChannelHealth& other) {
  corrupt_cells += other.corrupt_cells;
  checksum_failures += other.checksum_failures;
  count_mismatches += other.count_mismatches;
  redelivered_bytes += other.redelivered_bytes;
  readiness_stalls += other.readiness_stalls;
  readiness_stall_ns += other.readiness_stall_ns;
  return *this;
}

bool ChannelHealth::operator==(const ChannelHealth& other) const {
  return corrupt_cells == other.corrupt_cells &&
         checksum_failures == other.checksum_failures &&
         count_mismatches == other.count_mismatches &&
         redelivered_bytes == other.redelivered_bytes;
}

bool PipelineHealth::clean() const {
  return corrupt_cells == 0 && retries == 0 && exhausted_deliveries == 0 &&
         degraded_steps == 0 && wire_parse_failures == 0 &&
         failed_ranks == 0 && rank_deaths == 0 &&
         checkpoint_write_failures == 0;
}

PipelineHealth& PipelineHealth::operator+=(const PipelineHealth& other) {
  deliveries += other.deliveries;
  delivery_attempts += other.delivery_attempts;
  retries += other.retries;
  corrupt_cells += other.corrupt_cells;
  checksum_failures += other.checksum_failures;
  count_mismatches += other.count_mismatches;
  redelivered_bytes += other.redelivered_bytes;
  exhausted_deliveries += other.exhausted_deliveries;
  degraded_steps += other.degraded_steps;
  wire_parse_failures += other.wire_parse_failures;
  failed_ranks += other.failed_ranks;
  rank_deaths += other.rank_deaths;
  recoveries += other.recoveries;
  replay_steps += other.replay_steps;
  checkpoints_written += other.checkpoints_written;
  checkpoint_write_failures += other.checkpoint_write_failures;
  backoff_ms += other.backoff_ms;
  readiness_stalls += other.readiness_stalls;
  readiness_stall_ns += other.readiness_stall_ns;
  for (int c = 0; c < kNumChannels; ++c) {
    channels[static_cast<std::size_t>(c)] +=
        other.channels[static_cast<std::size_t>(c)];
  }
  return *this;
}

bool PipelineHealth::operator==(const PipelineHealth& other) const {
  if (!(deliveries == other.deliveries &&
        delivery_attempts == other.delivery_attempts &&
        retries == other.retries && corrupt_cells == other.corrupt_cells &&
        checksum_failures == other.checksum_failures &&
        count_mismatches == other.count_mismatches &&
        redelivered_bytes == other.redelivered_bytes &&
        exhausted_deliveries == other.exhausted_deliveries &&
        degraded_steps == other.degraded_steps &&
        wire_parse_failures == other.wire_parse_failures &&
        failed_ranks == other.failed_ranks &&
        rank_deaths == other.rank_deaths && recoveries == other.recoveries &&
        replay_steps == other.replay_steps &&
        checkpoints_written == other.checkpoints_written &&
        checkpoint_write_failures == other.checkpoint_write_failures &&
        backoff_ms == other.backoff_ms)) {
    return false;
  }
  for (int c = 0; c < kNumChannels; ++c) {
    if (!(channels[static_cast<std::size_t>(c)] ==
          other.channels[static_cast<std::size_t>(c)])) {
      return false;
    }
  }
  return true;
}

std::string PipelineHealth::summary() const {
  std::ostringstream os;
  os << deliveries << " deliveries, " << retries << " retries, "
     << corrupt_cells << " corrupt cells (" << checksum_failures
     << " checksum, " << count_mismatches << " framing), " << degraded_steps
     << " degraded steps, " << readiness_stalls << " readiness stalls ("
     << readiness_stall_ns / 1000000 << " ms blocked)";
  if (rank_deaths > 0 || recoveries > 0 || checkpoints_written > 0 ||
      checkpoint_write_failures > 0) {
    os << ", " << rank_deaths << " rank deaths, " << recoveries
       << " recoveries (" << replay_steps << " replayed steps), "
       << checkpoints_written << " checkpoints ("
       << checkpoint_write_failures << " failed writes)";
  }
  return os.str();
}

std::string PipelineHealth::json() const {
  std::ostringstream os;
  os << "{\"deliveries\": " << deliveries
     << ", \"attempts\": " << delivery_attempts
     << ", \"retries\": " << retries
     << ", \"corrupt_cells\": " << corrupt_cells
     << ", \"checksum_failures\": " << checksum_failures
     << ", \"count_mismatches\": " << count_mismatches
     << ", \"redelivered_bytes\": " << redelivered_bytes
     << ", \"exhausted_deliveries\": " << exhausted_deliveries
     << ", \"degraded_steps\": " << degraded_steps
     << ", \"wire_parse_failures\": " << wire_parse_failures
     << ", \"failed_ranks\": " << failed_ranks
     << ", \"rank_deaths\": " << rank_deaths
     << ", \"recoveries\": " << recoveries
     << ", \"replay_steps\": " << replay_steps
     << ", \"checkpoints_written\": " << checkpoints_written
     << ", \"checkpoint_write_failures\": " << checkpoint_write_failures
     << ", \"backoff_ms\": " << backoff_ms
     << ", \"readiness_stalls\": " << readiness_stalls
     << ", \"readiness_stall_ns\": " << readiness_stall_ns
     << ", \"channels\": {";
  for (int c = 0; c < kNumChannels; ++c) {
    const ChannelHealth& ch = channels[static_cast<std::size_t>(c)];
    if (c > 0) os << ", ";
    os << "\"" << channel_name(static_cast<ChannelId>(c))
       << "\": {\"corrupt_cells\": " << ch.corrupt_cells
       << ", \"checksum_failures\": " << ch.checksum_failures
       << ", \"count_mismatches\": " << ch.count_mismatches
       << ", \"redelivered_bytes\": " << ch.redelivered_bytes
       << ", \"readiness_stalls\": " << ch.readiness_stalls
       << ", \"readiness_stall_ns\": " << ch.readiness_stall_ns << "}";
  }
  os << "}}";
  return os.str();
}

}  // namespace cpart
