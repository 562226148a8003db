// Transport health accounting for the SPMD runtime.
//
// The exchange layer assumes nothing about the wire: every channel cell is
// framed (message count) and checksummed (FNV-1a over the logical wire
// fields) at send time and verified at delivery. This header defines the
// counters that record what the transport detected and did about it —
// corrupt cells per channel, re-delivery attempts, backoff, and whole-step
// degradations to the centralized reference path. A PipelineHealth travels
// on every step report and aggregates across steps with operator+=, so a
// run's fault history is a first-class output next to the traffic matrices.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "util/common.hpp"

namespace cpart {

/// The typed channels of one Exchange, in delivery order. New channels are
/// appended so existing ids (and with them any seeded fault schedule, which
/// keys on the channel id) stay stable across releases.
enum class ChannelId : int {
  kDescriptors = 0,
  kHalo,
  kFaces,
  kCouplingForward,
  kCouplingReturn,
  kBoxes,
  kLabels,           // repartition label broadcast
  kMigrateNodes,     // node-state migration to new owners
  kMigrateElements,  // element-record migration to new owners
};

inline constexpr int kNumChannels = 9;

/// Stable lowercase name ("descriptors", "halo", ...) for reports and JSON.
const char* channel_name(ChannelId id);

/// Channel subset selector: the channels an AsyncPhase reads or writes. The
/// mask a phase reads is one delivery group — validated and committed per
/// destination as one superstep — so a rank holding its halo/faces proceeds
/// without synchronizing on (say) the descriptor broadcast. Channels
/// outside the group keep their pending outboxes and their last-committed
/// inboxes untouched.
using ChannelMask = std::uint32_t;

inline constexpr ChannelMask channel_bit(ChannelId id) {
  return ChannelMask{1} << static_cast<int>(id);
}

/// Detection counters of one typed channel.
struct ChannelHealth {
  wgt_t corrupt_cells = 0;      // cells that failed delivery validation
  wgt_t checksum_failures = 0;  // payload hash mismatch (count matched)
  wgt_t count_mismatches = 0;   // message-count framing mismatch
  wgt_t redelivered_bytes = 0;  // payload bytes staged again after a failure
  // Readiness stalls (async executor): times a rank blocked waiting for
  // this channel's inbox cells to become ready, and the total nanoseconds
  // spent blocked. A wait on a multi-channel group charges every channel
  // in the group's mask. Timing-dependent by nature, so operator==
  // deliberately ignores these two fields — bit-identity assertions compare
  // what the transport *did*, not how long ranks waited for it.
  wgt_t readiness_stalls = 0;    // waits that found inputs not yet ready
  wgt_t readiness_stall_ns = 0;  // total blocked wall time, nanoseconds

  ChannelHealth& operator+=(const ChannelHealth& other);
  /// Compares the detection counters only (stall counters are wall-clock
  /// measurements and differ run to run even on identical schedules).
  bool operator==(const ChannelHealth& other) const;
};

/// Transport + recovery counters of one pipeline step (or, summed, of a
/// whole run). "Delivery" is one channel group, delivered as one superstep;
/// its "attempts" are its validation passes — 1 + the worst per-cell failure
/// count, capped at the retry budget.
struct PipelineHealth {
  wgt_t deliveries = 0;           // channel groups delivered (or exhausted)
  wgt_t delivery_attempts = 0;    // validation passes (>= deliveries)
  wgt_t retries = 0;              // re-delivery attempts after corruption
  wgt_t corrupt_cells = 0;        // sum over channels
  wgt_t checksum_failures = 0;
  wgt_t count_mismatches = 0;
  wgt_t redelivered_bytes = 0;
  wgt_t exhausted_deliveries = 0;  // deliveries that ran out of retry budget
  wgt_t degraded_steps = 0;        // steps completed via run_step_reference
  wgt_t wire_parse_failures = 0;   // descriptor wires the scanner rejected
  wgt_t failed_ranks = 0;          // rank programs that threw in a superstep
  // Rank-death tolerance (see runtime/checkpoint.hpp and the recovery loop
  // of DistributedSim). All five are deterministic counts of what recovery
  // did, so they participate in += and ==.
  wgt_t rank_deaths = 0;        // ranks declared dead (thrown or watchdogged)
  wgt_t recoveries = 0;         // checkpoint restores performed
  wgt_t replay_steps = 0;       // steps re-executed during recovery replays
  wgt_t checkpoints_written = 0;        // durable checkpoint commits
  wgt_t checkpoint_write_failures = 0;  // commits that exhausted their budget
  double backoff_ms = 0;           // total backoff the retry loop applied
  // Readiness stalls summed over channels (async executor; see
  // ChannelHealth). Excluded from operator== like the per-channel fields.
  wgt_t readiness_stalls = 0;
  wgt_t readiness_stall_ns = 0;
  std::array<ChannelHealth, kNumChannels> channels{};

  const ChannelHealth& channel(ChannelId id) const {
    return channels[static_cast<std::size_t>(static_cast<int>(id))];
  }
  ChannelHealth& channel(ChannelId id) {
    return channels[static_cast<std::size_t>(static_cast<int>(id))];
  }

  /// True when this step fell back to the centralized reference path.
  bool degraded() const { return degraded_steps > 0; }
  /// True when the transport saw no corruption, no retries, no fallback.
  bool clean() const;

  PipelineHealth& operator+=(const PipelineHealth& other);
  /// Folds another health record into this one — the aggregation entry
  /// point the service's StatRegistry uses to roll per-session health up
  /// into service-level totals. Every field participates, including the
  /// per-channel counters and the timing fields (stall nanoseconds,
  /// backoff) that operator== deliberately excludes: aggregation wants the
  /// full cost picture even though identity comparisons do not.
  PipelineHealth& merge(const PipelineHealth& other) { return *this += other; }
  /// Compares everything except the readiness-stall counters, which are
  /// wall-clock measurements (thread- and scheduling-dependent) rather than
  /// part of the deterministic transport schedule.
  bool operator==(const PipelineHealth& other) const;

  /// One-line human summary ("3 deliveries, 0 corrupt cells, ...").
  std::string summary() const;
  /// Every counter as one JSON object, with a "channels" object keyed by
  /// channel_name() — the form the bench artifacts record.
  std::string json() const;
};

}  // namespace cpart
