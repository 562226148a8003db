// Determinism and quality guarantees of the parallel multilevel partitioner:
// partitions must be byte-identical across thread counts at a fixed seed
// (the parallel matching resolves conflicts by permutation rank, never by
// thread schedule), and the parallel coarsening path must not regress
// edge-cut quality versus the serial seed implementation. This binary also
// runs under ThreadSanitizer in CI.
#include <gtest/gtest.h>

#include "graph/graph_builder.hpp"
#include "graph/graph_metrics.hpp"
#include "mesh/generators.hpp"
#include "mesh/mesh_graphs.hpp"
#include "parallel/thread_pool.hpp"
#include "partition/coarsen.hpp"
#include "partition/kway_multilevel.hpp"
#include "partition/partition.hpp"

namespace cpart {
namespace {

/// Restores the default global pool when a test that swaps it exits.
class GlobalPoolGuard {
 public:
  ~GlobalPoolGuard() { ThreadPool::set_global_threads(0); }
};

// Large enough to drive the parallel coarsening path (threshold 4096) for
// several levels.
CsrGraph large_test_graph() { return make_grid_graph_3d(22, 22, 22); }

CsrGraph large_two_constraint_graph() {
  CsrGraph g = make_grid_graph_3d(20, 20, 20);
  const idx_t n = g.num_vertices();
  std::vector<wgt_t> vwgt(static_cast<std::size_t>(n) * 2);
  for (idx_t v = 0; v < n; ++v) {
    vwgt[static_cast<std::size_t>(v) * 2] = 1;
    // A "contact zone" carrying the second constraint, as in the paper.
    vwgt[static_cast<std::size_t>(v) * 2 + 1] = (v % 20 < 6) ? 1 : 0;
  }
  g.set_vertex_weights(vwgt, 2);
  return g;
}

TEST(PartitionDeterminism, CoarsenIdenticalAcrossThreadCounts) {
  GlobalPoolGuard guard;
  const CsrGraph g = large_test_graph();
  struct Result {
    std::vector<idx_t> coarse_of_fine;
    std::vector<idx_t> xadj, adjncy;
    std::vector<wgt_t> vwgt, adjwgt;
  };
  std::vector<Result> results;
  for (unsigned threads : {1u, 2u, 8u}) {
    ThreadPool::set_global_threads(threads);
    Rng rng(42);
    const Coarsening c = coarsen_once(g, rng);
    results.push_back({c.coarse_of_fine, c.coarse.xadj(), c.coarse.adjncy(),
                       c.coarse.vwgt(), c.coarse.adjwgt()});
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[0].coarse_of_fine, results[i].coarse_of_fine);
    EXPECT_EQ(results[0].xadj, results[i].xadj);
    EXPECT_EQ(results[0].adjncy, results[i].adjncy);
    EXPECT_EQ(results[0].vwgt, results[i].vwgt);
    EXPECT_EQ(results[0].adjwgt, results[i].adjwgt);
  }
}

TEST(PartitionDeterminism, RecursiveBisectionIdenticalAcrossThreadCounts) {
  GlobalPoolGuard guard;
  const CsrGraph g = large_test_graph();
  PartitionOptions opts;
  opts.k = 8;
  opts.seed = 7;
  std::vector<std::vector<idx_t>> parts;
  for (unsigned threads : {1u, 2u, 8u}) {
    ThreadPool::set_global_threads(threads);
    parts.push_back(partition_graph(g, opts));
  }
  EXPECT_EQ(parts[0], parts[1]);
  EXPECT_EQ(parts[0], parts[2]);
  EXPECT_TRUE(is_valid_partition(parts[0], opts.k));
}

TEST(PartitionDeterminism, DirectKwayIdenticalAcrossThreadCounts) {
  GlobalPoolGuard guard;
  const CsrGraph g = large_two_constraint_graph();
  PartitionOptions opts;
  opts.k = 12;
  opts.seed = 3;
  std::vector<std::vector<idx_t>> parts;
  for (unsigned threads : {1u, 2u, 8u}) {
    ThreadPool::set_global_threads(threads);
    parts.push_back(partition_graph_kway(g, opts));
  }
  EXPECT_EQ(parts[0], parts[1]);
  EXPECT_EQ(parts[0], parts[2]);
  EXPECT_LE(load_imbalance(g, parts[0], opts.k, 0), 1.11);
  EXPECT_LE(load_imbalance(g, parts[0], opts.k, 1), 1.11);
}

/// The parallel matching differs from the serial greedy matching, so the
/// final cut is not identical — but it must stay in the same quality league.
/// Compares against the serial path (forced via a huge threshold) on the
/// kind of mesh Table 1 uses: a structured body partitioned k ways. The
/// cut of any single seed moves with FM's random tie-breaking, so the
/// property is stated on the mean cut over seeds 1-8.
TEST(PartitionQuality, ParallelCoarseningNoCutRegression) {
  const Mesh mesh = make_hex_box(28, 28, 28, {0, 0, 0}, {1, 1, 1});
  const CsrGraph g = nodal_graph(mesh);
  ASSERT_GE(g.num_vertices(), 20000);

  constexpr int kSeeds = 8;
  double serial_mean = 0;
  double parallel_mean = 0;
  for (int seed = 1; seed <= kSeeds; ++seed) {
    PartitionOptions serial_opts;
    serial_opts.k = 25;
    serial_opts.seed = static_cast<std::uint64_t>(seed);
    serial_opts.coarsen_parallel_threshold =
        std::numeric_limits<idx_t>::max();  // seed implementation
    PartitionOptions parallel_opts = serial_opts;
    parallel_opts.coarsen_parallel_threshold = 4096;
    serial_mean += static_cast<double>(
                       edge_cut(g, partition_graph(g, serial_opts))) /
                   kSeeds;
    parallel_mean += static_cast<double>(
                         edge_cut(g, partition_graph(g, parallel_opts))) /
                     kSeeds;
  }
  EXPECT_LE(parallel_mean, 1.05 * serial_mean)
      << "mean cut over seeds 1-" << kSeeds << ": serial=" << serial_mean
      << " parallel=" << parallel_mean;
}

TEST(PartitionQuality, ParallelCoarseningPreservesInvariants) {
  const CsrGraph g = large_two_constraint_graph();
  Rng rng(9);
  const Coarsening c = coarsen_once(g, rng);
  EXPECT_LT(c.coarse.num_vertices(), g.num_vertices());
  EXPECT_GE(c.coarse.num_vertices(), g.num_vertices() / 2);
  EXPECT_EQ(c.coarse.total_vertex_weight(0), g.total_vertex_weight(0));
  EXPECT_EQ(c.coarse.total_vertex_weight(1), g.total_vertex_weight(1));
  EXPECT_TRUE(c.coarse.is_symmetric());
  // Cut preservation under projection: edge aggregation is exact.
  Rng rng2(10);
  std::vector<idx_t> coarse_part(
      static_cast<std::size_t>(c.coarse.num_vertices()));
  for (auto& p : coarse_part) p = rng2.uniform_int(4);
  std::vector<idx_t> fine_part(static_cast<std::size_t>(g.num_vertices()));
  for (idx_t v = 0; v < g.num_vertices(); ++v) {
    fine_part[static_cast<std::size_t>(v)] = coarse_part[static_cast<std::size_t>(
        c.coarse_of_fine[static_cast<std::size_t>(v)])];
  }
  EXPECT_EQ(edge_cut(c.coarse, coarse_part), edge_cut(g, fine_part));
}

}  // namespace
}  // namespace cpart
