// Thread-scaling benchmark for the multilevel partitioner hot path.
//
// Runs the direct k-way partitioner (partition_graph_kway) at each requested
// thread count and reports its per-phase wall time (coarsening chain,
// initial partition of the coarsest graph, refinement during uncoarsening
// plus the final polish), edge-cut and worst-constraint balance. Because
// the parallel matching resolves conflicts by permutation rank, the
// partition — and therefore the cut — is identical at every thread count;
// only the timings change.
//
//   ./bench_partition [--nx 60] [--k 16] [--threads 1,2,4,8] [--seed 1]
//                     [--reps 3] [--out BENCH_partition.json]
//
// Each thread count is measured --reps times after a warm-up pass and the
// fastest repetition is reported; repetitions are interleaved across thread
// counts so host-speed drift over the run cannot bias one row. Both measures
// suppress scheduler/frequency noise, whose run-to-run spread on a busy host
// exceeds the effect being measured.
//
// The JSON output is {"env": {...provenance...}, "results": [records]},
// each record:
//   {mesh, n, k, threads, phase_ms: {coarsen, initial, refine},
//    total_ms, edgecut, balance}
//
// --hierarchical additionally streams a large impact scene (--elements
// hex8 cells, default 1e6) to the chunked on-disk format, builds the nodal
// graph through the reader's bounded window, and sweeps the two-level
// hierarchical partitioner over the same thread counts. Its output lands in
// a "hierarchy" JSON block: per-level cut/balance/time per thread count,
// the window accounting (peak resident bytes vs the configured limit — the
// bounded-memory claim, asserted by CI), process peak RSS, and whether the
// labels were bit-identical across all thread counts.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "bench_env.hpp"
#include "graph/graph_builder.hpp"
#include "graph/graph_metrics.hpp"
#include "mesh/chunked_mesh.hpp"
#include "mesh/mesh_graphs.hpp"
#include "parallel/thread_pool.hpp"
#include "partition/hierarchical.hpp"
#include "partition/kway_multilevel.hpp"
#include "util/atomic_file.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace cpart;

namespace {

/// Process peak RSS in bytes (0 when the platform cannot report it).
std::size_t peak_rss_bytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::size_t>(ru.ru_maxrss);  // bytes on macOS
#else
  return static_cast<std::size_t>(ru.ru_maxrss) * 1024;  // KiB on Linux
#endif
#else
  return 0;
#endif
}

/// The --hierarchical section: streamed large mesh -> bounded-window graph
/// build -> two-level partition sweep. Returns the "hierarchy" JSON object.
std::string run_hierarchical(const std::vector<unsigned>& thread_counts,
                             idx_t elements, idx_t k, idx_t groups,
                             std::uint64_t seed, int reps, Table& table) {
  const LargeImpactSpec spec = LargeImpactSpec::for_elements(elements);
  const std::string mesh_path =
      "bench_large_impact_" + std::to_string(elements) + ".cpmk";
  Timer timer;
  const ChunkedMeshInfo info = make_large_impact(mesh_path, spec);
  const double generate_ms = timer.milliseconds();

  ChunkedMeshReader reader(mesh_path);
  timer.reset();
  const CsrGraph g = nodal_graph(reader);
  const double graph_build_ms = timer.milliseconds();
  const bool bounded =
      reader.peak_resident_bytes() <= reader.window_limit_bytes();

  std::ostringstream mesh_name;
  mesh_name << "large_impact_" << spec.nx << "x" << spec.ny << "x" << spec.nz;
  std::cout << "\nHierarchical partition: " << mesh_name.str() << " ("
            << info.num_elements << " elements, " << info.num_nodes
            << " nodes, k=" << k << ", groups=" << groups << ")\n"
            << "  streamed generate " << generate_ms / 1000 << " s, graph "
            << graph_build_ms / 1000 << " s; window peak "
            << reader.peak_resident_bytes() << " / "
            << reader.window_limit_bytes() << " bytes ("
            << (bounded ? "bounded" : "EXCEEDED") << ")\n\n";

  PartitionOptions base;
  base.k = k;
  base.seed = seed;
  HierarchyOptions hierarchy;
  hierarchy.groups = groups;

  std::vector<HierarchyStats> best(thread_counts.size());
  std::vector<std::vector<idx_t>> parts(thread_counts.size());
  std::vector<double> best_ms(thread_counts.size(), 0);
  for (int rep = 0; rep < reps; ++rep) {
    for (std::size_t ti = 0; ti < thread_counts.size(); ++ti) {
      ThreadPool::set_global_threads(thread_counts[ti]);
      Timer rep_timer;
      HierarchicalResult result = hierarchical_partition(g, base, hierarchy);
      const double ms = rep_timer.milliseconds();
      if (rep == 0 || ms < best_ms[ti]) {
        best_ms[ti] = ms;
        best[ti] = result.stats;
        parts[ti] = std::move(result.part);
      }
    }
  }
  bool labels_identical = true;
  for (std::size_t ti = 1; ti < parts.size(); ++ti) {
    if (parts[ti] != parts[0]) labels_identical = false;
  }

  std::ostringstream json;
  json << "{\"mesh\": \"" << mesh_name.str() << "\", \"elements\": "
       << info.num_elements << ", \"nodes\": " << info.num_nodes
       << ", \"k\": " << k << ", \"groups\": " << groups
       << ",\n  \"generate_ms\": " << generate_ms
       << ", \"graph_build_ms\": " << graph_build_ms
       << ",\n  \"window\": {\"peak_resident_bytes\": "
       << reader.peak_resident_bytes()
       << ", \"window_limit_bytes\": " << reader.window_limit_bytes()
       << ", \"bounded\": " << (bounded ? "true" : "false")
       << "},\n  \"peak_rss_bytes\": " << peak_rss_bytes()
       << ",\n  \"labels_identical\": " << (labels_identical ? "true" : "false")
       << ",\n  \"rows\": [\n";
  for (std::size_t ti = 0; ti < thread_counts.size(); ++ti) {
    const HierarchyStats& hs = best[ti];
    table.begin_row();
    table.add_cell(static_cast<long long>(thread_counts[ti]));
    table.add_cell(hs.group_ms, 1);
    table.add_cell(hs.local_ms, 1);
    table.add_cell(best_ms[ti], 1);
    table.add_cell(best_ms[0] / std::max(best_ms[ti], 1e-9), 2);
    table.add_cell(static_cast<long long>(hs.final_cut));
    table.add_cell(hs.final_balance, 3);

    if (ti != 0) json << ",\n";
    json << "   {\"threads\": " << thread_counts[ti]
         << ", \"proxy_vertices\": " << hs.proxy_vertices
         << ", \"group_ms\": " << hs.group_ms
         << ", \"local_ms\": " << hs.local_ms
         << ", \"total_ms\": " << best_ms[ti]
         << ",\n    \"group_cut\": " << hs.group_cut
         << ", \"group_balance\": " << hs.group_balance
         << ", \"final_cut\": " << hs.final_cut
         << ", \"final_balance\": " << hs.final_balance << "}";
  }
  json << "\n  ]}";
  std::remove(mesh_path.c_str());
  if (!labels_identical) {
    std::cerr << "WARNING: hierarchical labels differ across thread counts\n";
  }
  return json.str();
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags.define("nx", "60", "grid side; mesh is an nx^3 3D grid graph");
  flags.define("k", "16", "number of partitions");
  flags.define("threads", "1,2,4,8", "comma-separated thread counts");
  flags.define("seed", "1", "partitioner seed");
  flags.define("reps", "3", "measured repetitions; fastest is reported");
  flags.define("hierarchical", "0",
               "also run the two-level hierarchical sweep over a streamed "
               "large impact mesh (adds the \"hierarchy\" JSON block)");
  flags.define("elements", "1000000",
               "element count of the streamed mesh (--hierarchical)");
  flags.define("groups", "8", "rank groups of the hierarchy (--hierarchical)");
  flags.define("out", "BENCH_partition.json", "JSON output path");
  try {
    flags.parse(argc, argv);
    const idx_t nx = static_cast<idx_t>(flags.get_int("nx"));
    const idx_t k = static_cast<idx_t>(flags.get_int("k"));
    std::vector<unsigned> thread_counts;
    {
      std::stringstream ss(flags.get_string("threads"));
      std::string tok;
      while (std::getline(ss, tok, ',')) {
        thread_counts.push_back(static_cast<unsigned>(std::stoul(tok)));
      }
      require(!thread_counts.empty(), "empty --threads");
    }

    const CsrGraph g = make_grid_graph_3d(nx, nx, nx);
    std::ostringstream mesh_name;
    mesh_name << "grid3d_" << nx << "x" << nx << "x" << nx;
    std::cout << "Partitioner thread scaling: " << mesh_name.str()
              << " (n=" << g.num_vertices() << ", k=" << k << ")\n\n";

    PartitionOptions opts;
    opts.k = k;
    opts.seed = static_cast<std::uint64_t>(flags.get_int("seed"));

    Table table({"threads", "coarsen_ms", "initial_ms", "refine_ms",
                 "total_ms", "speedup", "edgecut", "balance"});
    std::ostringstream json;
    json << "{\"env\": " << cpart::bench::env_json() << ",\n \"results\": [\n";
    // Repetitions are interleaved across thread counts (the rep loop is
    // outermost) so slow host phases hit every thread count equally instead
    // of biasing whichever row happened to run during them; the fastest
    // repetition per thread count is reported.
    const int reps = std::max(1, static_cast<int>(flags.get_int("reps")));
    std::vector<KwayPhaseTimes> best(thread_counts.size());
    std::vector<std::vector<idx_t>> best_part(thread_counts.size());
    for (int rep = 0; rep < reps; ++rep) {
      for (std::size_t ti = 0; ti < thread_counts.size(); ++ti) {
        ThreadPool::set_global_threads(thread_counts[ti]);
        if (rep == 0) {
          // Warm-up pass so thread start-up and page faults don't pollute
          // the measured runs.
          partition_graph_kway(g, opts);
        }
        KwayPhaseTimes rep_times;
        std::vector<idx_t> rep_part =
            partition_graph_kway(g, opts, &rep_times);
        if (rep == 0 || rep_times.total_ms() < best[ti].total_ms()) {
          best[ti] = rep_times;
          best_part[ti] = std::move(rep_part);
        }
      }
    }

    double base_total = 0;
    bool first = true;
    for (std::size_t ti = 0; ti < thread_counts.size(); ++ti) {
      const unsigned t = thread_counts[ti];
      const KwayPhaseTimes& times = best[ti];
      const std::vector<idx_t>& part = best_part[ti];
      const wgt_t cut = edge_cut(g, part);
      const double balance = max_load_imbalance(g, part, k);
      if (first) base_total = times.total_ms();

      table.begin_row();
      table.add_cell(static_cast<long long>(t));
      table.add_cell(times.coarsen_ms, 1);
      table.add_cell(times.initial_ms, 1);
      table.add_cell(times.refine_ms, 1);
      table.add_cell(times.total_ms(), 1);
      table.add_cell(base_total / std::max(times.total_ms(), 1e-9), 2);
      table.add_cell(static_cast<long long>(cut));
      table.add_cell(balance, 3);

      if (!first) json << ",\n";
      first = false;
      json << "  {\"mesh\": \"" << mesh_name.str() << "\", \"n\": "
           << g.num_vertices() << ", \"k\": " << k << ", \"threads\": " << t
           << ",\n   \"phase_ms\": {\"coarsen\": " << times.coarsen_ms
           << ", \"initial\": " << times.initial_ms
           << ", \"refine\": " << times.refine_ms << "},\n   \"total_ms\": "
           << times.total_ms() << ", \"edgecut\": " << cut
           << ", \"balance\": " << balance << "}";
    }
    json << "\n]";
    table.print(std::cout);

    if (flags.get_int("hierarchical") != 0) {
      Table htable({"threads", "group_ms", "local_ms", "total_ms", "speedup",
                    "final_cut", "final_balance"});
      const std::string hierarchy_json = run_hierarchical(
          thread_counts, static_cast<idx_t>(flags.get_int("elements")), k,
          static_cast<idx_t>(flags.get_int("groups")), opts.seed, reps,
          htable);
      htable.print(std::cout);
      json << ",\n \"hierarchy\": " << hierarchy_json;
    }
    json << "}\n";
    ThreadPool::set_global_threads(0);
    const std::string out_path = flags.get_string("out");
    require(atomic_write_file(out_path, json.str()),
            "cannot write --out (atomic commit failed)");
    std::cout << "\nWrote " << out_path
              << ". The cut is identical at every thread count: the parallel "
                 "matching is schedule-independent.\n";
    return 0;
  } catch (const InputError& e) {
    std::cerr << "error: " << e.what() << "\n"
              << flags.usage("bench_partition");
    return 1;
  }
}
