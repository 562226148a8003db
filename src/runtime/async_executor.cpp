#include "runtime/async_executor.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <sstream>
#include <thread>
#include <utility>

#include "parallel/thread_pool.hpp"
#include "runtime/exchange.hpp"
#include "util/timer.hpp"

namespace cpart {

namespace {

/// Worker count for a rank dispatch. Bounded by the pool (every worker must
/// hold a real thread for the whole dispatch), by k (static stride then
/// gives each of the first W workers at least one rank), and by the
/// machine's concurrency (workers beyond the physical threads only add
/// context switches).
unsigned rank_dispatch_workers(const ThreadPool& pool, idx_t k) {
  // Inside parallel work (a session step job, a parallel_tasks body) the
  // dispatch runs inline on the calling thread only, so a striped loop at
  // W > 1 would execute its workers sequentially — fatal for gang bodies
  // that block on sibling workers (the futex waits below).
  // Width 1 is always valid: results are width-independent by invariant.
  if (ThreadPool::in_worker()) return 1;
  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = pool.num_threads();  // unknown: trust the pool size
  const unsigned cap = std::min(std::max(1u, pool.num_threads()),
                                std::max(1u, hw));
  return static_cast<unsigned>(
      std::min<idx_t>(static_cast<idx_t>(cap), k));
}

/// Mirrors ThreadPool's dispatch outcome for per-rank failures: one failing
/// rank rethrows its original exception, several aggregate into a
/// ParallelGroupError keyed by rank id.
[[noreturn]] void raise_rank_errors(
    std::vector<std::pair<idx_t, std::exception_ptr>>&& errors) {
  if (errors.size() == 1) {
    std::rethrow_exception(errors.front().second);
  }
  std::sort(errors.begin(), errors.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<ParallelGroupError::Failure> failures;
  failures.reserve(errors.size());
  for (auto& [rank, err] : errors) {
    ParallelGroupError::Failure f;
    f.index = rank;
    try {
      std::rethrow_exception(err);
    } catch (const std::exception& e) {
      f.message = e.what();
    } catch (...) {
      f.message = "unknown exception";
    }
    failures.push_back(std::move(f));
  }
  throw ParallelGroupError(std::move(failures));
}

std::string rank_death_message(const std::vector<idx_t>& ranks) {
  std::ostringstream os;
  os << "rank death detected: rank";
  if (ranks.size() > 1) os << "s";
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    os << (i == 0 ? " " : ", ") << ranks[i];
  }
  return os.str();
}

bool is_rank_death(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const RankDeathError&) {
    return true;
  } catch (...) {
    return false;
  }
}

/// One channel group: the mask a consuming phase reads, delivered as one
/// superstep. Groups are ordered by consuming phase, and group j of a run
/// keys its fault decisions on superstep base+j.
struct Group {
  ChannelMask mask = 0;
  idx_t consume_phase = 0;
  idx_t close_phase = -1;  // last phase writing the mask; -1 = born closed
  const std::vector<std::vector<idx_t>>* providers = nullptr;
};

/// Per-(group, destination) accounting, written only by the destination's
/// owning worker; folded into the Exchange on the calling thread after the
/// pool joins (counted groups only).
struct DstScratch {
  PipelineHealth health{};
  std::array<wgt_t, kNumChannels> bytes{};
  idx_t max_failures = 0;    // worst per-cell failed-attempt count
  idx_t exhausted_cells = 0; // cells still corrupt after the full budget
};

enum class WaitOutcome { kReady, kFailed, kExhausted };

// Bounded spin before parking on the futex: short, because
// oversubscribed workers spinning steal the CPU the publisher needs; long
// enough to catch the common fast publication without a syscall.
constexpr int kSpinIterations = 128;

}  // namespace

RankDeathError::RankDeathError(std::vector<idx_t> ranks)
    : std::runtime_error(rank_death_message(ranks)), ranks_(std::move(ranks)) {}

AsyncExecutor::AsyncExecutor(idx_t k) : k_(k) {
  require(k >= 1, "AsyncExecutor: k must be >= 1");
}

void AsyncExecutor::run(std::span<const AsyncPhase> phases, Exchange& exchange,
                        const AsyncRunOptions& options) const {
  if (phases.empty()) return;
  require(exchange.num_ranks() == k_, "AsyncExecutor: exchange rank mismatch");
  require(options.hung.empty() ||
              options.hung.size() == static_cast<std::size_t>(k_),
          "AsyncExecutor: hang mask size mismatch");
  const auto hung_of = [&options](idx_t r) {
    return !options.hung.empty() && options.hung[static_cast<std::size_t>(r)];
  };
  bool any_hung = false;
  for (idx_t r = 0; r < k_; ++r) any_hung = any_hung || hung_of(r);
  require(!any_hung || options.watchdog_deadline_ms > 0,
          "AsyncExecutor: hung ranks require a watchdog deadline");
  // The watchdog only ever declares injected hung ranks; with none, waits
  // park on the futex as usual and the deadline is moot.
  const bool watchdog_armed = any_hung && options.watchdog_deadline_ms > 0;

  const idx_t P = to_idx(phases.size());
  std::vector<Group> groups;
  std::vector<idx_t> group_of_phase(static_cast<std::size_t>(P), -1);
  ChannelMask all_reads = 0;
  for (idx_t p = 0; p < P; ++p) {
    const AsyncPhase& phase = phases[static_cast<std::size_t>(p)];
    require(static_cast<bool>(phase.body), "AsyncExecutor: phase without body");
    require(phase.providers == nullptr ||
                phase.providers->size() == static_cast<std::size_t>(k_),
            "AsyncExecutor: provider list size mismatch");
    if (phase.reads == 0) continue;
    require((all_reads & phase.reads) == 0,
            "AsyncExecutor: a channel may be read by at most one phase");
    all_reads |= phase.reads;
    Group grp;
    grp.mask = phase.reads;
    grp.consume_phase = p;
    grp.providers = phase.providers;
    for (idx_t q = 0; q < P; ++q) {
      if (phases[static_cast<std::size_t>(q)].writes & grp.mask) {
        grp.close_phase = std::max(grp.close_phase, q);
      }
    }
    require(grp.close_phase < p,
            "AsyncExecutor: a phase cannot read a channel written by itself "
            "or a later phase");
    group_of_phase[static_cast<std::size_t>(p)] = to_idx(groups.size());
    groups.push_back(grp);
  }

  const idx_t G = to_idx(groups.size());
  const idx_t kNoGroup = G;
  const idx_t kNoPhase = P;
  const std::uint64_t base = exchange.next_superstep();
  const idx_t max_attempts = exchange.retry_policy().max_attempts;
  // With a fault injector armed, validation of each group additionally
  // waits for every rank to complete all prior phases. No group is then
  // validated while an earlier group could still exhaust, so the
  // injector's (superstep, attempt, channel, src, dst) decision
  // consumption, and in particular which group exhausts the retry budget
  // first, is the same at any thread count. Fault-free runs (the normal
  // case) skip the gate entirely and overlap freely.
  const bool gated = exchange.fault_injector() != nullptr;

  // Termination-detection state. row_closed[g*k + src] publishes that src's
  // outbox row of group g is complete; rows_closed[g] counts them toward k
  // (the sent-row total); phase_done[p] counts ranks through phase p;
  // epoch is the monotone word waiters park on. An abort (rank failure,
  // budget exhaustion) publishes through min_failed / exhausted plus an
  // epoch bump, so no waiter can sleep through it.
  std::atomic<std::uint64_t> epoch{0};
  std::vector<std::atomic<std::uint8_t>> row_closed(
      static_cast<std::size_t>(G) * static_cast<std::size_t>(k_));
  std::vector<std::atomic<idx_t>> rows_closed(static_cast<std::size_t>(G));
  std::vector<std::atomic<idx_t>> phase_done(static_cast<std::size_t>(P));
  std::atomic<idx_t> min_failed{kNoPhase};
  std::atomic<idx_t> exhausted{kNoGroup};

  // Groups whose channels were fully posted before the run are born
  // closed: their per-destination validations start immediately and spread
  // across the workers.
  for (idx_t g = 0; g < G; ++g) {
    if (groups[static_cast<std::size_t>(g)].close_phase >= 0) continue;
    rows_closed[static_cast<std::size_t>(g)].store(k_,
                                                   std::memory_order_relaxed);
    for (idx_t src = 0; src < k_; ++src) {
      row_closed[static_cast<std::size_t>(g * k_ + src)].store(
          1, std::memory_order_relaxed);
    }
  }
  std::vector<std::vector<idx_t>> closes(static_cast<std::size_t>(P));
  for (idx_t g = 0; g < G; ++g) {
    const idx_t cp = groups[static_cast<std::size_t>(g)].close_phase;
    if (cp >= 0) closes[static_cast<std::size_t>(cp)].push_back(g);
  }

  std::vector<DstScratch> scratch(static_cast<std::size_t>(G) *
                                  static_cast<std::size_t>(k_));
  std::vector<std::exception_ptr> rank_errors(static_cast<std::size_t>(k_));
  std::vector<idx_t> rank_error_phase(static_cast<std::size_t>(k_), kNoPhase);

  const auto publish = [&epoch] {
    epoch.fetch_add(1, std::memory_order_release);
    epoch.notify_all();
  };
  const auto fetch_min = [](std::atomic<idx_t>& a, idx_t v) {
    idx_t cur = a.load(std::memory_order_relaxed);
    while (v < cur &&
           !a.compare_exchange_weak(cur, v, std::memory_order_acq_rel)) {
    }
  };

  // Watchdog declaration (first expired waiter wins the CAS): every hung
  // rank is declared dead at once — its rows force-closed (the exhaustion
  // drain idiom: no waiter can deadlock on a row the rank will never close)
  // and its phase completions force-counted so the gated readiness check
  // can still resolve — then the run unwinds as a failure at phase 0, the
  // earliest phase the dead ranks never executed.
  std::atomic<bool> watchdog_fired{false};
  const auto fire_watchdog = [&] {
    bool expected = false;
    if (!watchdog_fired.compare_exchange_strong(expected, true,
                                                std::memory_order_acq_rel)) {
      return;
    }
    for (idx_t d = 0; d < k_; ++d) {
      if (!hung_of(d)) continue;
      for (idx_t h = 0; h < G; ++h) {
        if (groups[static_cast<std::size_t>(h)].close_phase < 0) continue;
        if (row_closed[static_cast<std::size_t>(h * k_ + d)].exchange(
                1, std::memory_order_release) == 0) {
          rows_closed[static_cast<std::size_t>(h)].fetch_add(
              1, std::memory_order_release);
        }
      }
      for (idx_t q = 0; q < P; ++q) {
        phase_done[static_cast<std::size_t>(q)].fetch_add(
            1, std::memory_order_release);
      }
    }
    fetch_min(min_failed, 0);
    publish();
  };

  // Full per-cell validation of destination r's column of group g: every
  // (channel, src, r) cell gets its own retry loop (attempt numbers 0..),
  // then the column commits atomically from r's point of view (inbox
  // assembled in ascending source order). Empty cells — every cell outside
  // the provider topology — validate trivially without consuming an
  // injector decision. Returns false when any cell exhausted the budget
  // (the column is then left uncommitted).
  const auto validate_and_commit = [&](idx_t g, idx_t r,
                                       DstScratch& s) -> bool {
    const Group& grp = groups[static_cast<std::size_t>(g)];
    const std::uint64_t superstep = base + static_cast<std::uint64_t>(g);
    bool ok = true;
    for (int c = 0; c < kNumChannels; ++c) {
      const ChannelId id = static_cast<ChannelId>(c);
      if (!(grp.mask & channel_bit(id))) continue;
      for (idx_t from = 0; from < k_; ++from) {
        idx_t failures = 0;
        while (!exchange.async_validate_cell(id, superstep, failures, from, r,
                                             s.health)) {
          if (++failures >= max_attempts) break;
        }
        s.max_failures = std::max(s.max_failures, failures);
        if (failures >= max_attempts) {
          ++s.exhausted_cells;
          ok = false;
        }
      }
    }
    if (!ok) return false;
    for (int c = 0; c < kNumChannels; ++c) {
      const ChannelId id = static_cast<ChannelId>(c);
      if (!(grp.mask & channel_bit(id))) continue;
      exchange.async_commit_dst(id, r,
                                s.bytes[static_cast<std::size_t>(c)]);
    }
    return true;
  };

  // Gang dispatch, not parallel_tasks: the worker bodies block on each
  // other (futex readiness waits), so every participant must hold a real
  // thread for the whole superstep. run_gang grants exactly that — only
  // currently idle workers join, and the granted width W is handed to the
  // body so the rank striping matches the width actually running.
  ThreadPool& pool = ThreadPool::global();
  pool.run_gang(rank_dispatch_workers(pool, k_), [&](idx_t w, unsigned W) {
    // Readiness wait for destination r of group g (consumed by phase p).
    // Polls, in order: ready (rows closed — all k, or just r's providers;
    // under the injector gate, all ranks through every prior phase),
    // budget exhaustion, then rank failure — so a wait that could both
    // proceed and abort deterministically proceeds.
    const auto wait_ready = [&](idx_t g, idx_t p, idx_t r,
                                double& wait_ms) -> WaitOutcome {
      const Group& grp = groups[static_cast<std::size_t>(g)];
      const auto ready = [&]() -> bool {
        if (gated) {
          if (p == 0) return true;
          return phase_done[static_cast<std::size_t>(p - 1)].load(
                     std::memory_order_acquire) == k_ &&
                 min_failed.load(std::memory_order_acquire) >= p;
        }
        if (rows_closed[static_cast<std::size_t>(g)].load(
                std::memory_order_acquire) == k_) {
          return true;
        }
        if (grp.providers != nullptr) {
          for (idx_t src : (*grp.providers)[static_cast<std::size_t>(r)]) {
            if (row_closed[static_cast<std::size_t>(g * k_ + src)].load(
                    std::memory_order_acquire) == 0) {
              return false;
            }
          }
          return true;
        }
        return false;
      };
      if (ready()) return WaitOutcome::kReady;
      Timer timer;
      WaitOutcome out = WaitOutcome::kReady;
      int spins = 0;
      for (;;) {
        const std::uint64_t e = epoch.load(std::memory_order_acquire);
        if (ready()) break;
        if (exhausted.load(std::memory_order_acquire) != kNoGroup) {
          out = WaitOutcome::kExhausted;
          break;
        }
        if (min_failed.load(std::memory_order_acquire) < p) {
          out = WaitOutcome::kFailed;
          break;
        }
        if (spins < kSpinIterations) {
          ++spins;
          continue;
        }
        if (watchdog_armed) {
          // Bounded polling instead of the futex: the publication that
          // would wake us may never come if the provider is hung, so check
          // the deadline between short sleeps and declare on expiry.
          if (timer.milliseconds() > options.watchdog_deadline_ms) {
            fire_watchdog();
          }
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        } else {
          epoch.wait(e, std::memory_order_acquire);
        }
      }
      wait_ms = timer.milliseconds();
      return out;
    };

    for (idx_t p = 0; p < P; ++p) {
      const AsyncPhase& phase = phases[static_cast<std::size_t>(p)];
      const idx_t g = group_of_phase[static_cast<std::size_t>(p)];
      for (idx_t r = w; r < k_; r += static_cast<idx_t>(W)) {
        // A hung rank vanished: no waits, no validation, no body, no row
        // closes, no phase completions. Only the watchdog accounts for it.
        if (hung_of(r)) continue;
        idx_t ex = exhausted.load(std::memory_order_acquire);
        // After an exhaustion, the only remaining work is draining the
        // exhausting group's validation (below) so every column of it is
        // counted; everything else unwinds. Under the gate no worker can
        // still be at an earlier phase at this point.
        if (ex != kNoGroup && g != ex) return;
        // A rank failure at phase p_fail completes phase p_fail for every
        // rank (BSP semantics), then later phases unwind.
        if (ex == kNoGroup &&
            min_failed.load(std::memory_order_acquire) < p) {
          return;
        }
        bool column_ok = true;
        if (g >= 0) {
          DstScratch& s =
              scratch[static_cast<std::size_t>(g * k_ + r)];
          if (ex == kNoGroup) {
            double wait_ms = 0;
            const WaitOutcome out = wait_ready(g, p, r, wait_ms);
            if (wait_ms > 0) {
              const wgt_t ns = static_cast<wgt_t>(wait_ms * 1e6);
              ++s.health.readiness_stalls;
              s.health.readiness_stall_ns += ns;
              for (int c = 0; c < kNumChannels; ++c) {
                const ChannelId id = static_cast<ChannelId>(c);
                if (!(groups[static_cast<std::size_t>(g)].mask &
                      channel_bit(id))) {
                  continue;
                }
                ChannelHealth& ch = s.health.channel(id);
                ++ch.readiness_stalls;
                ch.readiness_stall_ns += ns;
              }
            }
            if (out == WaitOutcome::kFailed) return;
            if (out == WaitOutcome::kExhausted) {
              ex = exhausted.load(std::memory_order_acquire);
              if (g != ex) return;
            }
          }
          column_ok = validate_and_commit(g, r, s);
          if (!column_ok) {
            fetch_min(exhausted, g);
            publish();
          }
          ex = exhausted.load(std::memory_order_acquire);
        }
        if (ex != kNoGroup) continue;  // drain mode: validation only
        try {
          phase.body(r);
        } catch (...) {
          rank_errors[static_cast<std::size_t>(r)] = std::current_exception();
          rank_error_phase[static_cast<std::size_t>(r)] = p;
          // Recorded before phase_done below: once phase_done[p] reaches
          // k, every failure at phase <= p is visible to the gate.
          fetch_min(min_failed, p);
        }
        for (idx_t h : closes[static_cast<std::size_t>(p)]) {
          row_closed[static_cast<std::size_t>(h * k_ + r)].store(
              1, std::memory_order_release);
          rows_closed[static_cast<std::size_t>(h)].fetch_add(
              1, std::memory_order_release);
        }
        phase_done[static_cast<std::size_t>(p)].fetch_add(
            1, std::memory_order_release);
        publish();
      }
    }
  });

  // Epilogue (single-threaded): fold the groups the run delivered. A rank
  // failure at phase p_fail keeps the groups consumed at or before p_fail;
  // an exhaustion at group ex keeps groups 0..ex (with ex itself counted as
  // the exhausted delivery) and takes precedence over any rank failure:
  // the step degrades as a transport failure.
  const idx_t p_fail = min_failed.load(std::memory_order_acquire);
  const idx_t ex_g = exhausted.load(std::memory_order_acquire);
  const bool is_ex = ex_g != kNoGroup;

  // A run invoked with hung ranks has by definition failed at phase 0 (the
  // earliest phase they never executed) even if no waiter happened to
  // depend on them and expire the watchdog — e.g. k == 1, or a provider
  // topology that routes around the hung rank. Clamping here also keeps the
  // group fold from counting deliveries the hung ranks never validated.
  const idx_t p_cut = any_hung ? std::min<idx_t>(p_fail, 0) : p_fail;

  idx_t counted = 0;
  if (is_ex) {
    counted = ex_g + 1;
  } else {
    for (idx_t g = 0; g < G; ++g) {
      if (groups[static_cast<std::size_t>(g)].consume_phase <= p_cut) {
        counted = g + 1;
      }
    }
  }

  std::vector<PipelineHealth> fold_health(static_cast<std::size_t>(k_));
  std::vector<std::array<wgt_t, kNumChannels>> fold_bytes(
      static_cast<std::size_t>(k_));
  for (idx_t g = 0; g < counted; ++g) {
    idx_t max_f = 0;
    for (idx_t r = 0; r < k_; ++r) {
      const DstScratch& s = scratch[static_cast<std::size_t>(g * k_ + r)];
      max_f = std::max(max_f, s.max_failures);
      fold_health[static_cast<std::size_t>(r)] = s.health;
      fold_bytes[static_cast<std::size_t>(r)] = s.bytes;
    }
    Exchange::AsyncGroupAccounting acc;
    acc.dst_health = fold_health;
    acc.dst_bytes = fold_bytes;
    acc.passes = std::min<idx_t>(max_f + 1, max_attempts);
    acc.exhausted = is_ex && g == ex_g;
    exchange.async_fold_group(acc);
  }

  if (is_ex) {
    idx_t corrupt = 0;
    for (idx_t r = 0; r < k_; ++r) {
      corrupt +=
          scratch[static_cast<std::size_t>(ex_g * k_ + r)].exhausted_cells;
    }
    exchange.abort_step();
    throw Exchange::exhausted_error(base + static_cast<std::uint64_t>(ex_g),
                                    max_attempts, corrupt);
  }
  // Deaths take precedence and merge: every hung rank plus any bodies that
  // threw RankDeathError surface as one RankDeathError naming the whole
  // casualty list at once, so the recovery path never degrades a death via
  // ParallelGroupError.
  std::vector<idx_t> dead;
  for (idx_t r = 0; r < k_; ++r) {
    if (hung_of(r)) dead.push_back(r);
  }
  std::vector<std::pair<idx_t, std::exception_ptr>> errors;
  if (p_fail != kNoPhase) {
    for (idx_t r = 0; r < k_; ++r) {
      if (rank_errors[static_cast<std::size_t>(r)] &&
          rank_error_phase[static_cast<std::size_t>(r)] == p_fail) {
        if (is_rank_death(rank_errors[static_cast<std::size_t>(r)])) {
          dead.push_back(r);
        } else {
          errors.emplace_back(
              r, std::move(rank_errors[static_cast<std::size_t>(r)]));
        }
      }
    }
  }
  if (!dead.empty()) {
    std::sort(dead.begin(), dead.end());
    throw RankDeathError(std::move(dead));
  }
  if (!errors.empty()) raise_rank_errors(std::move(errors));
}

}  // namespace cpart
