// Benchmark of the SPMD MCML+DT step (DistributedSim) against its retained
// centralized oracle.
//
// For each thread count, two identically configured DistributedSim
// instances drive the same snapshot sequence:
//   * reference — run_step_reference, the centralized step over gathered
//     global state (serial; traffic is accounted analytically);
//   * spmd — run_step, k rank programs moving real payloads through the
//     exchange, repartitioning + migrating live state every
//     --repart_period steps.
// Every step cross-checks the two flavors — merged events, per-rank event
// counts, per-processor traffic, migration accounting and the ownership
// hash must be bit-identical — and the binary exits nonzero on any
// divergence, so a speedup can never come from computing something
// different.
//
//   ./bench_spmd [--resolution 1.0] [--snapshots 20] [--k 25]
//                [--threads 1,2,4,8] [--stride 1] [--out BENCH_spmd.json]
//                [--fault_rate 0.0] [--fault_seed 1] [--max_attempts 4]
//                [--repart_period 8] [--checkpoint_period 10]
//                [--checkpoint_dir bench_spmd_ckpt] [--kill_rank -1]
//                [--kill_step -1]
//
// JSON output: {"env": {...}, "results": [{threads, nodes, k, equivalent,
// distributed: {reference_mean_ms, spmd_mean_ms, speedup, migration
// accounting, health: {...per-channel counters...}, steps: [...]}}],
// "scaling": {...}, "recovery": {...}}; steady state = steps >= 1.
//
// --fault_rate > 0 arms the seeded FaultInjector on the exchange, which
// exercises the checksummed retry path; events must STILL be bit-identical
// to the reference as long as the schedule stays within --max_attempts.
//
// --checkpoint_period > 0 (the default) appends a "recovery" block: the
// zero-fault checkpoint overhead (checkpointed vs plain distributed run,
// A/B over the same snapshots) and an MTTR probe that kills --kill_rank at
// --kill_step and requires the restored+replayed run to stay bit-identical
// to the fault-free baseline at every step.
#include <cmath>
#include <filesystem>
#include <iostream>
#include <optional>
#include <sstream>
#include <utility>

#include "bench_env.hpp"
#include "core/distributed_sim.hpp"
#include "parallel/thread_pool.hpp"
#include "runtime/fault_injector.hpp"
#include "sim/impact_sim.hpp"
#include "util/atomic_file.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace cpart;

namespace {

bool distributed_reports_identical(const DistributedStepReport& a,
                                   const DistributedStepReport& b) {
  if (a.events.size() != b.events.size()) return false;
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    const ContactEvent& x = a.events[i];
    const ContactEvent& y = b.events[i];
    if (x.node != y.node || x.face != y.face || x.distance != y.distance ||
        x.signed_distance != y.signed_distance) {
      return false;
    }
  }
  return a.migrated == b.migrated &&
         a.events_per_processor == b.events_per_processor &&
         a.fe_exchange == b.fe_exchange &&
         a.coupling_exchange == b.coupling_exchange &&
         a.search_exchange == b.search_exchange &&
         a.migration_exchange == b.migration_exchange &&
         a.repart_moved_nodes == b.repart_moved_nodes &&
         a.repart_moved_elements == b.repart_moved_elements &&
         a.migration_payload_bytes == b.migration_payload_bytes &&
         a.label_broadcast_bytes == b.label_broadcast_bytes &&
         a.ownership_hash == b.ownership_hash;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags.define("resolution", "1.0", "mesh resolution scale factor");
  flags.define("snapshots", "20", "snapshots to process");
  flags.define("k", "25", "number of ranks/partitions");
  flags.define("threads", "1,2,4,8", "comma-separated thread counts");
  flags.define("stride", "1", "process every stride-th snapshot");
  flags.define("out", "BENCH_spmd.json", "JSON output path");
  flags.define("fault_rate", "0.0",
               "per-cell fault probability for the seeded injector (0 = off)");
  flags.define("fault_seed", "1", "fault schedule seed");
  flags.define("max_attempts", "4", "delivery attempts per superstep");
  flags.define("repart_period", "8",
               "distributed run: repartition + migrate every N steps (0 = off)");
  flags.define("checkpoint_period", "10",
               "recovery probe: durable checkpoint every N steps (0 = skip "
               "the probe)");
  flags.define("checkpoint_dir", "bench_spmd_ckpt",
               "recovery probe: checkpoint directory (removed afterwards)");
  flags.define("kill_rank", "-1",
               "recovery probe: rank to kill (-1 = k / 2)");
  flags.define("kill_step", "-1",
               "recovery probe: step to kill it at (-1 = mid-run, placed "
               "mid-way through a checkpoint period so replay is nonempty)");
  try {
    flags.parse(argc, argv);
    const double resolution = flags.get_double("resolution");
    const idx_t snapshots = static_cast<idx_t>(flags.get_int("snapshots"));
    const idx_t stride = static_cast<idx_t>(flags.get_int("stride"));
    const idx_t k = static_cast<idx_t>(flags.get_int("k"));
    const double fault_rate = flags.get_double("fault_rate");
    const std::uint64_t fault_seed =
        static_cast<std::uint64_t>(flags.get_int("fault_seed"));
    RetryPolicy retry;
    retry.max_attempts = static_cast<idx_t>(flags.get_int("max_attempts"));
    const idx_t repart_period =
        static_cast<idx_t>(flags.get_int("repart_period"));
    const idx_t checkpoint_period =
        static_cast<idx_t>(flags.get_int("checkpoint_period"));
    const std::string checkpoint_dir = flags.get_string("checkpoint_dir");
    const idx_t kill_rank_flag = static_cast<idx_t>(flags.get_int("kill_rank"));
    const idx_t kill_step_flag = static_cast<idx_t>(flags.get_int("kill_step"));
    std::vector<unsigned> thread_counts;
    {
      std::stringstream ss(flags.get_string("threads"));
      std::string tok;
      while (std::getline(ss, tok, ',')) {
        thread_counts.push_back(static_cast<unsigned>(std::stoul(tok)));
      }
      require(!thread_counts.empty(), "empty --threads");
    }

    ImpactSimConfig sim_config;
    sim_config.scale_resolution(resolution);
    sim_config.num_snapshots = std::max<idx_t>(snapshots, 2);
    const ImpactSim sim(sim_config);
    const real_t cell = sim_config.plate_width /
                        static_cast<real_t>(sim_config.plate_cells_xy);

    DistributedSimConfig dconfig;
    dconfig.decomposition.k = k;
    dconfig.search.search_margin = 0.5 * cell;
    dconfig.search.contact_tolerance = 0.25 * cell;
    dconfig.repartition_period = repart_period;

    std::cout << "SPMD contact step: " << sim.initial_mesh().num_nodes()
              << " nodes, " << sim.num_snapshots() << " snapshots, k=" << k
              << "\n\n";

    Table table({"threads", "reference_ms/step", "spmd_ms/step", "speedup"});
    std::ostringstream json;
    json << "{\"env\": " << cpart::bench::env_json() << ",\n \"results\": [\n";
    bool first_record = true;
    bool all_equal = true;
    // (threads, mean spmd ms) per row, for the scaling-slope summary.
    std::vector<std::pair<unsigned, double>> rows;

    for (unsigned t : thread_counts) {
      ThreadPool::set_global_threads(t);
      // Both flavors mutate rank state, so the SPMD instance and the
      // centralized oracle are two instances driven in lockstep.
      DistributedSim dist(sim, dconfig);
      DistributedSim oracle(sim, dconfig);
      dist.exchange().set_retry_policy(retry);
      std::optional<FaultInjector> injector;
      if (fault_rate > 0) {
        FaultConfig fc;
        fc.seed = fault_seed;
        fc.cell_fault_probability = fault_rate;
        injector.emplace(fc);
        dist.exchange().set_fault_injector(&*injector);
      }
      PipelineHealth health;
      std::ostringstream steps_json;
      double ref_sum = 0, spmd_sum = 0;
      idx_t steady_steps = 0;
      idx_t migration_steps = 0;
      wgt_t moved_nodes = 0, moved_elements = 0;
      wgt_t migration_bytes = 0, label_bytes = 0;
      bool first_step = true;

      for (idx_t s = 0; s < sim.num_snapshots(); s += stride) {
        Timer timer;
        const DistributedStepReport ref = oracle.run_step_reference(s);
        const double ref_ms = timer.milliseconds();

        timer.reset();
        const DistributedStepReport got = dist.run_step(s);
        const double spmd_ms = timer.milliseconds();

        health += got.health;
        if (!distributed_reports_identical(got, ref)) {
          std::cerr << "EQUIVALENCE FAILURE at step " << s << ", threads " << t
                    << "\n";
          all_equal = false;
        }
        if (s > 0) {
          ref_sum += ref_ms;
          spmd_sum += spmd_ms;
          ++steady_steps;
        }
        migration_steps += got.migrated ? 1 : 0;
        moved_nodes += got.repart_moved_nodes;
        moved_elements += got.repart_moved_elements;
        migration_bytes += got.migration_payload_bytes;
        label_bytes += got.label_broadcast_bytes;

        if (!first_step) steps_json << ",\n";
        first_step = false;
        steps_json << "    {\"step\": " << s << ", \"reference_ms\": " << ref_ms
                   << ", \"spmd_ms\": " << spmd_ms
                   << ", \"events\": " << got.contact_events
                   << ", \"bytes\": {\"descriptor\": "
                   << got.descriptor_broadcast_bytes
                   << ", \"halo\": " << got.halo_payload_bytes
                   << ", \"faces\": " << got.face_payload_bytes << "}"
                   << ", \"migrated\": " << (got.migrated ? "true" : "false")
                   << ", \"repart_moved_nodes\": " << got.repart_moved_nodes
                   << ", \"repart_moved_elements\": "
                   << got.repart_moved_elements
                   << ", \"migration_bytes\": " << got.migration_payload_bytes
                   << ", \"label_bytes\": " << got.label_broadcast_bytes << "}";
      }

      const double ns = static_cast<double>(std::max<idx_t>(steady_steps, 1));
      const double ref_mean = ref_sum / ns;
      const double spmd_mean = spmd_sum / ns;
      const double speedup = ref_mean / std::max(spmd_mean, 1e-9);

      table.begin_row();
      table.add_cell(static_cast<long long>(t));
      table.add_cell(ref_mean, 2);
      table.add_cell(spmd_mean, 2);
      table.add_cell(speedup, 2);

      if (!first_record) json << ",\n";
      first_record = false;
      json << "  {\"threads\": " << t
           << ", \"pool_threads\": " << ThreadPool::global().num_threads()
           << ", \"nodes\": " << sim.initial_mesh().num_nodes()
           << ", \"k\": " << k
           << ", \"equivalent\": " << (all_equal ? "true" : "false")
           << ",\n   \"distributed\": {\"repart_period\": " << repart_period
           << ", \"steady_steps\": " << steady_steps
           << ",\n    \"reference_mean_ms\": " << ref_mean
           << ", \"spmd_mean_ms\": " << spmd_mean << ", \"speedup\": " << speedup
           << ",\n    \"migration_steps\": " << migration_steps
           << ", \"repart_moved_nodes\": " << moved_nodes
           << ", \"repart_moved_elements\": " << moved_elements
           << ", \"migration_payload_bytes\": " << migration_bytes
           << ", \"label_broadcast_bytes\": " << label_bytes
           << ",\n    \"health\": ";
      json << health.json();
      json << ",\n    \"steps\": [\n" << steps_json.str() << "\n    ]}}";
      if (fault_rate > 0 || !health.clean()) {
        std::cout << "threads " << t << " health: " << health.summary()
                  << "\n";
      }
      rows.emplace_back(t, spmd_mean);
    }

    // Scaling slope of the SPMD step: mean speedup per thread-doubling
    // between the smallest and largest thread rows (1.0 = perfect scaling,
    // 0 = flat).
    std::ostringstream scaling_json;
    {
      const auto& lo = rows.front();
      const auto& hi = rows.back();
      const double ratio = lo.second / std::max(hi.second, 1e-9);
      const double doublings =
          std::log2(std::max<double>(hi.first, 1) /
                    std::max<double>(lo.first, 1));
      const double slope =
          doublings > 0 ? std::log2(std::max(ratio, 1e-9)) / doublings : 0;
      // Efficiency normalizes the ratio by the cores the top row could use.
      // resolved_hardware_threads (not raw hardware_threads) keeps the
      // denominator nonzero when the platform reports 0 ("unknown") — it
      // falls back to the row's own thread count.
      const double usable = std::max<double>(
          1.0, std::min<double>(
                   hi.first, cpart::bench::resolved_hardware_threads(
                                 static_cast<unsigned>(hi.first))));
      scaling_json << "{\"threads_lo\": " << lo.first
                   << ", \"threads_hi\": " << hi.first
                   << ", \"usable_threads\": " << usable
                   << ", \"distributed_ratio\": " << ratio
                   << ", \"distributed_slope\": " << slope
                   << ", \"distributed_efficiency\": " << ratio / usable
                   << "}";
      std::cout << "scaling " << lo.first << "t -> " << hi.first << "t: "
                << ratio << "x (slope " << slope << "/doubling)\n";
    }
    // Rank-death recovery probe at the largest thread count: (1) zero-fault
    // checkpoint overhead, A/B over the same distributed run, and (2) MTTR
    // for a seeded one-shot kill — the recovered run must stay bit-identical
    // to the fault-free baseline at every step.
    std::ostringstream recovery_json;
    if (checkpoint_period > 0) {
      ThreadPool::set_global_threads(thread_counts.back());

      const auto run_all = [&](DistributedSim& dsim,
                               std::vector<DistributedStepReport>* out,
                               double* ckpt_ms, double* rec_ms) {
        double sum = 0;
        idx_t steady = 0;
        for (idx_t s = 0; s < sim.num_snapshots(); s += stride) {
          Timer timer;
          DistributedStepReport got = dsim.run_step(s);
          const double ms = timer.milliseconds();
          if (s > 0) {
            sum += ms;
            ++steady;
          }
          if (ckpt_ms != nullptr) *ckpt_ms += got.checkpoint_ms;
          if (rec_ms != nullptr) *rec_ms += got.recovery_ms;
          if (out != nullptr) out->push_back(std::move(got));
        }
        return sum / static_cast<double>(std::max<idx_t>(steady, 1));
      };

      // Fault-free baseline, checkpointing off.
      std::vector<DistributedStepReport> baseline;
      double base_mean = 0;
      {
        DistributedSim base(sim, dconfig);
        base.exchange().set_retry_policy(retry);
        base_mean = run_all(base, &baseline, nullptr, nullptr);
      }

      // Checkpointing on, zero faults: the steady-state overhead.
      double ckpt_mean = 0;
      double overhead_checkpoint_ms = 0;
      PipelineHealth overhead_health;
      bool overhead_equal = true;
      {
        DistributedSimConfig oconfig = dconfig;
        oconfig.checkpoint_period = checkpoint_period;
        oconfig.checkpoint_dir = checkpoint_dir + "/overhead";
        DistributedSim withckpt(sim, oconfig);
        withckpt.exchange().set_retry_policy(retry);
        std::vector<DistributedStepReport> got;
        ckpt_mean = run_all(withckpt, &got, &overhead_checkpoint_ms, nullptr);
        for (std::size_t i = 0; i < got.size(); ++i) {
          overhead_health += got[i].health;
          overhead_equal = overhead_equal &&
                           distributed_reports_identical(got[i], baseline[i]);
        }
      }
      const double overhead = ckpt_mean / std::max(base_mean, 1e-9) - 1.0;

      // MTTR: the same run with a seeded one-shot kill. Recovery restores
      // the last checkpoint and replays; every report — including the kill
      // step's — must match the baseline bit-for-bit.
      const idx_t kill_rank = kill_rank_flag >= 0 ? kill_rank_flag : k / 2;
      // Default kill point: half a period past the commit boundary nearest
      // mid-run, so the MTTR number includes replayed steps (a kill landing
      // exactly on a boundary replays nothing).
      const idx_t mid_boundary =
          sim.num_snapshots() / 2 / checkpoint_period * checkpoint_period;
      const idx_t kill_step =
          kill_step_flag >= 0
              ? kill_step_flag
              : std::min<idx_t>(
                    sim.num_snapshots() - 1,
                    mid_boundary + std::max<idx_t>(1, checkpoint_period / 2));
      double mttr_recovery_ms = 0;
      double mttr_checkpoint_ms = 0;
      PipelineHealth mttr_health;
      bool mttr_equal = true;
      idx_t mttr_replayed = 0;
      {
        DistributedSimConfig mconfig = dconfig;
        mconfig.checkpoint_period = checkpoint_period;
        mconfig.checkpoint_dir = checkpoint_dir + "/mttr";
        DistributedSim victim(sim, mconfig);
        victim.exchange().set_retry_policy(retry);
        FaultConfig fc;
        fc.seed = fault_seed;
        fc.kill_rank = kill_rank;
        fc.kill_step = kill_step;
        FaultInjector kill_injector(fc);
        victim.exchange().set_fault_injector(&kill_injector);
        std::vector<DistributedStepReport> got;
        run_all(victim, &got, &mttr_checkpoint_ms, &mttr_recovery_ms);
        for (std::size_t i = 0; i < got.size(); ++i) {
          mttr_health += got[i].health;
          mttr_replayed += got[i].replayed_steps;
          mttr_equal = mttr_equal &&
                       distributed_reports_identical(got[i], baseline[i]);
        }
        if (mttr_health.rank_deaths == 0) {
          std::cerr << "recovery probe: the seeded kill never fired\n";
          all_equal = false;
        }
      }
      if (!overhead_equal || !mttr_equal) {
        std::cerr << "RECOVERY EQUIVALENCE FAILURE\n";
        all_equal = false;
      }
      std::error_code ec;
      std::filesystem::remove_all(checkpoint_dir, ec);

      recovery_json << "{\"threads\": " << thread_counts.back()
                    << ", \"checkpoint_period\": " << checkpoint_period
                    << ", \"baseline_mean_ms\": " << base_mean
                    << ", \"checkpointed_mean_ms\": " << ckpt_mean
                    << ", \"checkpoint_overhead\": " << overhead
                    << ", \"checkpoint_ms\": " << overhead_checkpoint_ms
                    << ", \"checkpoints_written\": "
                    << overhead_health.checkpoints_written
                    << ", \"overhead_equivalent\": "
                    << (overhead_equal ? "true" : "false")
                    << ",\n  \"mttr\": {\"kill_rank\": " << kill_rank
                    << ", \"kill_step\": " << kill_step
                    << ", \"recovery_ms\": " << mttr_recovery_ms
                    << ", \"checkpoint_ms\": " << mttr_checkpoint_ms
                    << ", \"replayed_steps\": " << mttr_replayed
                    << ", \"rank_deaths\": " << mttr_health.rank_deaths
                    << ", \"recoveries\": " << mttr_health.recoveries
                    << ", \"checkpoints_written\": "
                    << mttr_health.checkpoints_written
                    << ", \"recovered_equivalent\": "
                    << (mttr_equal ? "true" : "false") << "}}";
      std::cout << "recovery: checkpoint overhead " << overhead * 100
                << "% at period " << checkpoint_period << ", MTTR "
                << mttr_recovery_ms << " ms (" << mttr_replayed
                << " replayed steps)\n";
    }

    json << "\n],\n \"scaling\": " << scaling_json.str();
    if (checkpoint_period > 0) {
      json << ",\n \"recovery\": " << recovery_json.str();
    }
    json << "}\n";
    ThreadPool::set_global_threads(0);

    table.print(std::cout);
    const std::string out_path = flags.get_string("out");
    require(atomic_write_file(out_path, json.str()),
            "cannot write --out (atomic commit failed)");
    std::cout << "\nWrote " << out_path << ".\n";
    if (!all_equal) {
      std::cerr << "SPMD and reference reports differ — failing.\n";
      return 1;
    }
    std::cout << "SPMD and reference reports are bit-identical at every step.\n";
    return 0;
  } catch (const InputError& e) {
    std::cerr << "error: " << e.what() << "\n" << flags.usage("bench_spmd");
    return 1;
  }
}
