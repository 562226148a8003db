// Benchmark of the multi-tenant simulation service: many small
// DistributedSims as sessions over one shared WorkerPool, scheduled by the
// per-session arenas' deficit round-robin.
//
// Four probes, all against the same session population:
//   * throughput — N small sessions created up front, stepped to completion
//     in admission waves (the resident-session cap forces queueing), at each
//     --threads value. Every session's per-step ownership hashes and event
//     counts must be bit-identical to a solo run of the same session
//     (same derived seeds, own DistributedSim, no co-tenants) — the
//     isolation contract is correctness first, and the binary exits nonzero
//     on any divergence or on leaked admission accounting.
//   * isolation — a fleet of small sessions alone (A), then the same fleet
//     with one large session co-resident (B). Reports the small-session
//     executed-step p99 in both and their ratio; under fair scheduling the
//     big tenant may add queueing delay but must not inflate the smalls'
//     own step cost (target: ratio <= 2).
//   * suspend/resume — one session stepped halfway, suspended (durable
//     checkpoint, rank states + arena released, accounted bytes back to
//     zero), resumed, stepped to completion; the full report sequence must
//     match the solo baseline bit-for-bit.
//   * chaos — --fault_rate arms every session's own seeded injector (a pure
//     function of service seed x session key), so retries/degradations fire
//     inside the service exactly as they do solo, and identity must hold
//     through them.
//
//   ./bench_service [--sessions 120] [--steps 5] [--k 4] [--resolution 0.05]
//                   [--big_resolution 0.8] [--threads 1,8]
//                   [--max_resident 48] [--budget_mb 0] [--fault_rate 0.02]
//                   [--seed 42] [--isolation_sessions 32]
//                   [--checkpoint_dir bench_service_ckpt]
//                   [--out BENCH_service.json]
//
// JSON output: {"env": {...}, "config": {...}, "results": [{threads,
// wall_ms, throughput_steps_per_s, latency percentiles, fairness_ratio,
// bit_identical, admission: {...}, scheduler: {...}}], "isolation": {...},
// "suspend_resume": {...}}.
#include <algorithm>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_env.hpp"
#include "core/distributed_sim.hpp"
#include "parallel/thread_pool.hpp"
#include "runtime/session_context.hpp"
#include "service/session_manager.hpp"
#include "sim/impact_sim.hpp"
#include "util/atomic_file.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace cpart;

namespace {

/// The per-step identity fingerprint: the ownership/hit-accumulator hash is
/// the cheap full-state oracle; events and migration flags catch a report
/// that diverged even if the end state reconverged.
struct StepFingerprint {
  std::uint64_t ownership_hash = 0;
  idx_t contact_events = 0;
  idx_t penetrating_events = 0;
  bool migrated = false;

  bool operator==(const StepFingerprint&) const = default;
};

StepFingerprint fingerprint(const DistributedStepReport& r) {
  return {r.ownership_hash, r.contact_events, r.penetrating_events,
          r.migrated};
}

std::string session_name(idx_t i) { return "s" + std::to_string(i); }

double percentile_of(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  return StatRegistry::percentile(samples, q);
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags.define("sessions", "120", "small sessions in the throughput probe");
  flags.define("steps", "5", "steps per session");
  flags.define("k", "4", "ranks per session");
  flags.define("resolution", "0.05", "small-session mesh resolution factor");
  flags.define("big_resolution", "0.8",
               "large co-resident session's resolution factor");
  flags.define("threads", "1,8", "comma-separated worker-pool sizes");
  flags.define("max_resident", "48",
               "admission cap on concurrently resident sessions");
  flags.define("budget_mb", "0",
               "resident-bytes budget in MiB (0 = unmetered)");
  flags.define("fault_rate", "0.02",
               "per-cell transport fault probability per session (0 = off)");
  flags.define("seed", "42", "service root seed");
  flags.define("isolation_sessions", "32",
               "small sessions in the isolation A/B probe");
  flags.define("checkpoint_dir", "bench_service_ckpt",
               "suspend/resume probe: service checkpoint root (removed "
               "afterwards)");
  flags.define("out", "BENCH_service.json", "JSON output path");
  try {
    flags.parse(argc, argv);
    const idx_t n_sessions = static_cast<idx_t>(flags.get_int("sessions"));
    const idx_t steps = static_cast<idx_t>(flags.get_int("steps"));
    const idx_t k = static_cast<idx_t>(flags.get_int("k"));
    const double resolution = flags.get_double("resolution");
    const double big_resolution = flags.get_double("big_resolution");
    const idx_t max_resident = static_cast<idx_t>(flags.get_int("max_resident"));
    const std::size_t budget_bytes =
        static_cast<std::size_t>(flags.get_int("budget_mb")) * (1u << 20);
    const double fault_rate = flags.get_double("fault_rate");
    const std::uint64_t seed =
        static_cast<std::uint64_t>(flags.get_int("seed"));
    const idx_t n_isolation =
        std::min<idx_t>(static_cast<idx_t>(flags.get_int("isolation_sessions")),
                        n_sessions);
    const std::string checkpoint_dir = flags.get_string("checkpoint_dir");
    require(n_sessions > 0 && steps >= 2, "need sessions >= 1, steps >= 2");
    std::vector<unsigned> thread_counts;
    {
      std::stringstream ss(flags.get_string("threads"));
      std::string tok;
      while (std::getline(ss, tok, ',')) {
        thread_counts.push_back(static_cast<unsigned>(std::stoul(tok)));
      }
      require(!thread_counts.empty(), "empty --threads");
    }

    // The small-session blueprint every tenant shares; per-session identity
    // (fault schedules) comes from the derived seed streams, not the config.
    ImpactSimConfig small_sim;
    small_sim.scale_resolution(resolution);
    small_sim.num_snapshots = std::max<idx_t>(steps, 2);
    const real_t small_cell = small_sim.plate_width /
                              static_cast<real_t>(small_sim.plate_cells_xy);
    DistributedSimConfig small_dist;
    small_dist.decomposition.k = k;
    small_dist.search.search_margin = 0.5 * small_cell;
    small_dist.search.contact_tolerance = 0.25 * small_cell;

    ImpactSimConfig big_sim;
    big_sim.scale_resolution(big_resolution);
    big_sim.num_snapshots = std::max<idx_t>(steps, 2);
    const real_t big_cell =
        big_sim.plate_width / static_cast<real_t>(big_sim.plate_cells_xy);
    DistributedSimConfig big_dist;
    big_dist.decomposition.k = k;
    big_dist.search.search_margin = 0.5 * big_cell;
    big_dist.search.contact_tolerance = 0.25 * big_cell;

    FaultConfig fault_base;
    fault_base.cell_fault_probability = fault_rate;
    const bool inject = fault_rate > 0;

    const auto make_session = [&](idx_t i) {
      SessionConfig sc;
      sc.name = session_name(i);
      sc.sim = small_sim;
      sc.dist = small_dist;
      sc.inject_faults = inject;
      sc.faults = fault_base;
      return sc;
    };

    // ----- Solo baselines -------------------------------------------------
    // One solo DistributedSim per session key, armed with the session's
    // derived fault schedule (SessionContext is reconstructed here exactly
    // as the service will: same service seed, key = creation ordinal). By
    // the width-independence invariant the pool size does not matter; by
    // seed hierarchy neither does co-tenancy. These fingerprints are the
    // oracle every service run must reproduce.
    const ImpactSim solo_sim(small_sim);
    std::cout << "service bench: " << n_sessions << " sessions x " << steps
              << " steps, " << solo_sim.initial_mesh().num_nodes()
              << " nodes/session, k=" << k << "\n";
    std::vector<std::vector<StepFingerprint>> baseline(
        static_cast<std::size_t>(n_sessions));
    {
      Timer timer;
      for (idx_t i = 0; i < n_sessions; ++i) {
        SessionContextConfig cc;
        cc.name = session_name(i);
        cc.service_seed = seed;
        cc.session_key = static_cast<std::uint64_t>(i);
        SessionContext ctx(cc);
        DistributedSim dist(solo_sim, small_dist);
        if (inject) {
          dist.exchange().set_fault_injector(&ctx.arm_faults(fault_base));
        }
        auto& fps = baseline[static_cast<std::size_t>(i)];
        for (idx_t s = 0; s < steps; ++s) {
          fps.push_back(fingerprint(dist.run_step(s)));
        }
      }
      std::cout << "solo baselines: " << timer.milliseconds() << " ms\n\n";
    }

    bool all_ok = true;
    Table table({"threads", "wall_ms", "steps/s", "p50_ms", "p99_ms",
                 "fairness", "waves", "identical"});
    std::ostringstream json;
    json << "{\"env\": " << cpart::bench::env_json() << ",\n \"config\": {"
         << "\"sessions\": " << n_sessions << ", \"steps\": " << steps
         << ", \"k\": " << k << ", \"nodes_per_session\": "
         << solo_sim.initial_mesh().num_nodes()
         << ", \"resolution\": " << resolution
         << ", \"big_resolution\": " << big_resolution
         << ", \"fault_rate\": " << fault_rate << ", \"seed\": " << seed
         << ", \"max_resident\": " << max_resident
         << ", \"budget_bytes\": " << budget_bytes << "},\n \"results\": [\n";
    bool first_record = true;

    // ----- Throughput + identity, per pool size ---------------------------
    for (unsigned t : thread_counts) {
      ThreadPool::set_global_threads(t);
      ServiceConfig svc;
      svc.seed = seed;
      svc.max_resident_sessions = max_resident;
      svc.resident_bytes_budget = budget_bytes;
      SessionManager mgr(ThreadPool::global().workers(), svc);

      Timer wall;
      for (idx_t i = 0; i < n_sessions; ++i) {
        require(mgr.create(make_session(i)), "create rejected");
      }
      std::vector<bool> finished(static_cast<std::size_t>(n_sessions), false);
      idx_t done = 0;
      idx_t waves = 0;
      idx_t peak_resident = 0;
      std::size_t peak_bytes = 0;
      bool identical = true;
      while (done < n_sessions) {
        ++waves;
        peak_resident = std::max(peak_resident, mgr.resident_sessions());
        peak_bytes = std::max(peak_bytes, mgr.resident_bytes());
        std::vector<idx_t> active;
        for (idx_t i = 0; i < n_sessions; ++i) {
          if (finished[static_cast<std::size_t>(i)]) continue;
          if (mgr.state(session_name(i)) != SessionState::kResident) continue;
          mgr.step(session_name(i), steps);
          active.push_back(i);
        }
        require(!active.empty(), "admission stalled with sessions pending");
        mgr.wait_all();
        for (idx_t i : active) {
          const auto reports = mgr.take_reports(session_name(i));
          const auto& fps = baseline[static_cast<std::size_t>(i)];
          bool match = reports.size() == fps.size();
          for (std::size_t s = 0; match && s < reports.size(); ++s) {
            match = fingerprint(reports[s]) == fps[s];
          }
          if (!match) {
            std::cerr << "IDENTITY FAILURE: session " << session_name(i)
                      << " at threads " << t << "\n";
            identical = false;
          }
          finished[static_cast<std::size_t>(i)] = true;
          ++done;
          mgr.destroy(session_name(i));
        }
      }
      const double wall_ms = wall.milliseconds();
      const std::size_t leaked_bytes = mgr.resident_bytes();
      const idx_t leaked_sessions = mgr.resident_sessions();
      if (leaked_bytes != 0 || leaked_sessions != 0) {
        std::cerr << "ADMISSION LEAK: " << leaked_bytes << " bytes, "
                  << leaked_sessions << " sessions still accounted\n";
        all_ok = false;
      }
      all_ok = all_ok && identical;

      const ServiceStats stats = mgr.service_stats();
      // Fairness across identical tenants: the spread of per-session mean
      // executed-step latency (1.0 = perfectly even service).
      double fair_lo = 0, fair_hi = 0;
      for (idx_t i = 0; i < n_sessions; ++i) {
        const auto lat = mgr.stats().session_latencies(session_name(i));
        if (lat.empty()) continue;
        double sum = 0;
        for (double v : lat) sum += v;
        const double mean = sum / static_cast<double>(lat.size());
        fair_lo = fair_lo == 0 ? mean : std::min(fair_lo, mean);
        fair_hi = std::max(fair_hi, mean);
      }
      const double fairness = fair_lo > 0 ? fair_hi / fair_lo : 0;
      const double throughput =
          static_cast<double>(n_sessions * steps) /
          std::max(wall_ms / 1e3, 1e-9);
      const SchedulerStats sched = mgr.scheduler_stats();

      table.begin_row();
      table.add_cell(static_cast<long long>(t));
      table.add_cell(wall_ms, 1);
      table.add_cell(throughput, 1);
      table.add_cell(stats.p50_ms, 2);
      table.add_cell(stats.p99_ms, 2);
      table.add_cell(fairness, 2);
      table.add_cell(static_cast<long long>(waves));
      table.add_cell(identical ? "yes" : "NO");

      if (!first_record) json << ",\n";
      first_record = false;
      json << "  {\"threads\": " << t << ", \"wall_ms\": " << wall_ms
           << ", \"throughput_steps_per_s\": " << throughput
           << ", \"bit_identical\": " << (identical ? "true" : "false")
           << ",\n   \"latency_ms\": {\"samples\": " << stats.latency_samples
           << ", \"mean\": " << stats.mean_ms << ", \"p50\": " << stats.p50_ms
           << ", \"p95\": " << stats.p95_ms << ", \"p99\": " << stats.p99_ms
           << ", \"max\": " << stats.max_ms << "}"
           << ",\n   \"fairness_ratio\": " << fairness
           << ",\n   \"admission\": {\"max_resident\": " << max_resident
           << ", \"peak_resident\": " << peak_resident
           << ", \"peak_resident_bytes\": " << peak_bytes
           << ", \"waves\": " << waves
           << ", \"leaked_bytes\": " << leaked_bytes
           << ", \"leaked_sessions\": " << leaked_sessions << "}"
           << ",\n   \"scheduler\": {\"workers\": " << sched.total_workers
           << ", \"items_executed\": " << sched.items_executed
           << ", \"gang_slots_executed\": " << sched.gang_slots_executed
           << "},\n   \"health\": ";
      json << stats.health.json();
      json << "}";
    }
    json << "\n ]";

    // ----- Isolation A/B at the largest pool ------------------------------
    {
      const unsigned t = thread_counts.back();
      ThreadPool::set_global_threads(t);
      const auto run_fleet = [&](bool with_big, double* big_mean_ms) {
        ServiceConfig svc;
        svc.seed = seed;
        svc.max_resident_sessions = n_isolation + 1;  // all co-resident
        SessionManager mgr(ThreadPool::global().workers(), svc);
        for (idx_t i = 0; i < n_isolation; ++i) {
          require(mgr.create(make_session(i)), "create rejected");
        }
        if (with_big) {
          SessionConfig big;
          big.name = "big";
          big.sim = big_sim;
          big.dist = big_dist;
          big.inject_faults = inject;
          big.faults = fault_base;
          require(mgr.create(big), "create rejected");
          mgr.step("big", steps);
        }
        for (idx_t i = 0; i < n_isolation; ++i) {
          mgr.step(session_name(i), steps);
        }
        mgr.wait_all();
        std::vector<double> small_lat;
        for (idx_t i = 0; i < n_isolation; ++i) {
          const auto lat = mgr.stats().session_latencies(session_name(i));
          small_lat.insert(small_lat.end(), lat.begin(), lat.end());
        }
        if (with_big && big_mean_ms != nullptr) {
          const auto lat = mgr.stats().session_latencies("big");
          double sum = 0;
          for (double v : lat) sum += v;
          *big_mean_ms =
              lat.empty() ? 0 : sum / static_cast<double>(lat.size());
        }
        return small_lat;
      };
      const std::vector<double> alone = run_fleet(false, nullptr);
      double big_mean_ms = 0;
      const std::vector<double> shared = run_fleet(true, &big_mean_ms);
      const double p99_alone = percentile_of(alone, 0.99);
      const double p99_shared = percentile_of(shared, 0.99);
      const double ratio = p99_alone > 0 ? p99_shared / p99_alone : 0;
      std::cout << "\nisolation: small p99 " << p99_alone << " ms alone, "
                << p99_shared << " ms with big tenant (ratio " << ratio
                << ", big step mean " << big_mean_ms << " ms)\n";
      json << ",\n \"isolation\": {\"threads\": " << t
           << ", \"small_sessions\": " << n_isolation
           << ", \"steps\": " << steps
           << ", \"small_p99_alone_ms\": " << p99_alone
           << ", \"small_p99_with_big_ms\": " << p99_shared
           << ", \"isolation_ratio\": " << ratio
           << ", \"big_mean_ms\": " << big_mean_ms << "}";
    }

    // ----- Suspend/resume mid-run -----------------------------------------
    {
      const unsigned t = thread_counts.back();
      ThreadPool::set_global_threads(t);
      ServiceConfig svc;
      svc.seed = seed;
      svc.checkpoint_root = checkpoint_dir;
      SessionManager mgr(ThreadPool::global().workers(), svc);
      require(mgr.create(make_session(0)), "create rejected");
      const std::string name = session_name(0);
      const idx_t half = std::max<idx_t>(1, steps / 2);
      mgr.step(name, half);
      mgr.wait(name);
      auto reports = mgr.take_reports(name);
      const bool suspend_ok = mgr.suspend(name);
      const std::size_t bytes_suspended = mgr.resident_bytes();
      const bool resume_ok = suspend_ok && mgr.resume(name);
      if (resume_ok) {
        mgr.step(name, steps - half);
        mgr.wait(name);
        auto tail = mgr.take_reports(name);
        reports.insert(reports.end(), std::make_move_iterator(tail.begin()),
                       std::make_move_iterator(tail.end()));
      }
      const auto& fps = baseline[0];
      bool match = suspend_ok && resume_ok && bytes_suspended == 0 &&
                   reports.size() == fps.size();
      for (std::size_t s = 0; match && s < reports.size(); ++s) {
        match = fingerprint(reports[s]) == fps[s];
      }
      if (!match) {
        std::cerr << "SUSPEND/RESUME FAILURE (suspend " << suspend_ok
                  << ", resume " << resume_ok << ", bytes while suspended "
                  << bytes_suspended << ")\n";
        all_ok = false;
      }
      std::cout << "suspend/resume at step " << half << ": "
                << (match ? "bit-identical" : "DIVERGED") << "\n\n";
      json << ",\n \"suspend_resume\": {\"threads\": " << t
           << ", \"suspend_step\": " << half
           << ", \"suspend_ok\": " << (suspend_ok ? "true" : "false")
           << ", \"resume_ok\": " << (resume_ok ? "true" : "false")
           << ", \"resident_bytes_suspended\": " << bytes_suspended
           << ", \"bit_identical\": " << (match ? "true" : "false") << "}";
      std::error_code ec;
      std::filesystem::remove_all(checkpoint_dir, ec);
    }

    json << "}\n";
    ThreadPool::set_global_threads(0);

    table.print(std::cout);
    const std::string out_path = flags.get_string("out");
    require(atomic_write_file(out_path, json.str()),
            "cannot write --out (atomic commit failed)");
    std::cout << "\nWrote " << out_path << ".\n";
    if (!all_ok) {
      std::cerr << "service run diverged from solo baselines — failing.\n";
      return 1;
    }
    std::cout << "All sessions bit-identical to their solo runs; no "
                 "admission leaks.\n";
    return 0;
  } catch (const InputError& e) {
    std::cerr << "error: " << e.what() << "\n" << flags.usage("bench_service");
    return 1;
  }
}
