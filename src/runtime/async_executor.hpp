// Dependency-driven rank execution: channel-granular supersteps.
//
// Each phase declares the ChannelMask it reads and the mask it writes, and
// a rank starts its next phase the moment *its own* inbox cells for the
// channels that phase reads have been committed. There is no global
// barrier inside a run:
//
//   * Publication is per (channel-group, source-rank) row: when a rank
//     finishes the last phase that writes into a group, its outbox row is
//     closed with an atomic release store and a shared epoch bump.
//   * A consuming rank validates and commits only its own inbox column —
//     per-cell frame/checksum validation with per-cell retry loops, then a
//     per-destination commit — so a rank consuming halo from 3 neighbors
//     does not wait for the other k-4 (pass an exact provider list to wait
//     on just those rows; without one the rank waits for all k rows).
//   * Quiescence is established by a termination detector: per-group
//     closed-row counters against the sent-row total, plus a monotone epoch
//     word waiters park on (bounded spin, then futex). A group is quiescent
//     for rank r once every row r consumes is closed; the run is quiescent
//     when every phase completed or an abort (rank failure, retry-budget
//     exhaustion) was published on the epoch.
//   * Slow serial sections overlap with phases that do not depend on them:
//     a group whose channels were posted before the run (the rank-0
//     descriptor broadcast, the migration label batch) is born closed, so
//     its k per-destination validations spread across the workers while
//     independent phases proceed.
//
// The group contract. The mask a phase reads is one group, and each group
// is one superstep: group j of a run is superstep base+j, where base is
// Exchange::next_superstep() at entry. Every (channel, src, dst) cell of a
// group gets its own retry loop; attempt a of a cell is made only after
// attempts 0..a-1 failed, and keys its injector decision on (channel,
// superstep, a, src, dst). Empty cells validate without a decision. The
// run folds each group into the exchange as one delivery whose passes are
// min(1 + the worst per-cell failure count, max_attempts), with passes-1
// retries and their backoff (Exchange::async_fold_group). A group with a
// cell still corrupt after max_attempts is exhausted: it counts one
// exhausted delivery, the step is aborted, and the run throws
// TransportError naming the group's superstep and its corrupt cells.
//
// Determinism: commit assembles each inbox in ascending source order at
// consumption time, so results never depend on arrival order. When an
// injector is armed, validation of group j additionally waits until every
// rank completed every phase before the consuming one, so which group
// exhausts the budget first — and with it every detection counter — is
// the same at any thread count. Readiness waits are counted as
// per-channel stalls in PipelineHealth.
//
// Failure semantics match ThreadPool::parallel_tasks: every rank completes
// the earliest failing phase before the run unwinds (later-phase work is
// discarded), a single failing rank rethrows its original exception,
// several aggregate into ParallelGroupError, and an exhausted retry budget
// aborts the step and throws TransportError.
#pragma once

#include <functional>
#include <span>
#include <stdexcept>
#include <vector>

#include "runtime/health.hpp"
#include "util/common.hpp"

namespace cpart {

class Exchange;

/// One or more rank programs were declared dead: either a body threw this
/// (the seeded death schedule's injection point), or the run's watchdog
/// expired on a rank that never published its rows. The step's state is
/// unusable — unlike TransportError/ParallelGroupError, the pipelines do
/// NOT degrade this to the centralized reference; DistributedSim restores
/// the last durable checkpoint and replays (see runtime/checkpoint.hpp).
class RankDeathError : public std::runtime_error {
 public:
  explicit RankDeathError(std::vector<idx_t> ranks);

  /// The dead ranks, ascending.
  const std::vector<idx_t>& ranks() const { return ranks_; }

 private:
  std::vector<idx_t> ranks_;
};

/// One rank phase of a dependency-driven run.
struct AsyncPhase {
  /// The rank program: body(rank) for every rank in [0, k).
  std::function<void(idx_t)> body;
  /// Channels whose inbox cells this phase's bodies read. They are
  /// validated and committed per destination immediately before body(rank)
  /// runs, as soon as rank's cells are ready. Within one run a channel may
  /// be read by at most one phase, and its last writer must be an earlier
  /// phase (or the caller, before the run — such a group is born closed).
  ChannelMask reads = 0;
  /// Channels this phase's bodies post into (send/broadcast). A written
  /// channel read by a later phase of the same run commits inside the run;
  /// one read by no phase stays in its outboxes for a later run. A gather
  /// is a bodiless phase that reads the channel, with a provider list that
  /// names the senders for the root and no one for the other ranks.
  ChannelMask writes = 0;
  /// Optional exact provider topology for `reads`: providers[dst] lists
  /// every source rank that may post to dst on any channel of the mask.
  /// Lets dst proceed once just those rows are closed (neighbor-granular
  /// delivery). nullptr = any rank may post, wait for all k rows. Ignored
  /// while a fault injector is armed (validation then gates on full phase
  /// completion so the fault schedule is thread-count independent).
  const std::vector<std::vector<idx_t>>* providers = nullptr;
};

/// Failure-detection knobs of one run.
struct AsyncRunOptions {
  /// Watchdog deadline: a readiness wait blocked longer than this declares
  /// every hung rank dead — their rows are force-closed (the exhaustion
  /// drain idiom, so no waiter deadlocks) and the run unwinds with
  /// RankDeathError instead of blocking forever. 0 disables the watchdog.
  double watchdog_deadline_ms = 0;
  /// Per-rank hang mask (size k, or empty for none): a rank with a nonzero
  /// entry never executes — no bodies, no row closes, no publications —
  /// simulating a vanished process. In-process rank programs cannot
  /// genuinely disappear mid-body, so death candidates are restricted to
  /// this injected set; a deployment over real processes would feed its
  /// liveness signal in here. Requires watchdog_deadline_ms > 0.
  std::span<const char> hung = {};
};

class AsyncExecutor {
 public:
  explicit AsyncExecutor(idx_t k);

  idx_t num_ranks() const { return k_; }

  /// Runs the phase sequence to quiescence in one pool dispatch.
  /// W = min(pool size, hardware concurrency, k) workers each own ranks
  /// w, w+W, ...; a worker advances phase-major (all owned ranks through
  /// phase p before phase p+1), blocking per owned rank only on that
  /// rank's input rows. Consumes one Exchange superstep per group (a
  /// phase with non-zero reads), in phase order.
  void run(std::span<const AsyncPhase> phases, Exchange& exchange,
           const AsyncRunOptions& options = {}) const;

 private:
  idx_t k_;
};

}  // namespace cpart
