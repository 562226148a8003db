#include "partition/kway_multilevel.hpp"

#include <algorithm>
#include <cmath>

#include "parallel/thread_pool.hpp"
#include "partition/coarsen.hpp"
#include "partition/connectivity.hpp"
#include "util/timer.hpp"

namespace cpart {

std::vector<idx_t> partition_graph_kway(const CsrGraph& g,
                                        const PartitionOptions& options,
                                        KwayPhaseTimes* times) {
  const idx_t n = g.num_vertices();
  const idx_t k = options.k;
  require(k >= 1, "partition_graph_kway: k must be >= 1");
  KwayPhaseTimes local_times;
  KwayPhaseTimes& t = times != nullptr ? *times : local_times;
  t = KwayPhaseTimes{};
  if (k == 1 || n == 0) {
    return std::vector<idx_t>(static_cast<std::size_t>(n), 0);
  }

  Rng rng(options.seed ^ 0x517cc1b727220a95ULL);

  // Coarsen the whole graph down to a small multiple of k.
  Timer timer;
  CoarsenOptions copts;
  copts.parallel_threshold = options.coarsen_parallel_threshold;
  const idx_t coarsest_size =
      std::max<idx_t>(options.coarsen_target / 4, 15) * k;
  std::vector<Coarsening> chain;
  const CsrGraph* cur = &g;
  while (cur->num_vertices() > coarsest_size) {
    Coarsening c = coarsen_once(*cur, rng, copts);
    if (c.coarse.num_vertices() > cur->num_vertices() * 19 / 20) break;
    chain.push_back(std::move(c));
    cur = &chain.back().coarse;
  }
  t.coarsen_ms = timer.milliseconds();

  // Initial k-way partition of the coarsest graph via recursive bisection.
  // A slightly tighter epsilon leaves headroom for refinement drift during
  // uncoarsening.
  timer.reset();
  PartitionOptions init = options;
  init.epsilon = std::max(0.02, options.epsilon * 0.8);
  init.kway_passes = 0;  // the uncoarsening loop below refines anyway
  std::vector<idx_t> part = partition_graph(*cur, init);
  t.initial_ms = timer.milliseconds();

  // Uncoarsen, refining at every level.
  timer.reset();
  KwayRefineOptions refine;
  refine.k = k;
  refine.epsilon = options.epsilon;
  refine.passes = std::max(4, options.kway_passes / 2);
  {
    // Refine the coarsest partition in place first.
    kway_refine(*cur, part, refine, rng);
  }
  for (std::size_t i = chain.size(); i-- > 0;) {
    const CsrGraph& fine = (i == 0) ? g : chain[i - 1].coarse;
    std::vector<idx_t> fine_part(static_cast<std::size_t>(fine.num_vertices()));
    const std::vector<idx_t>& map = chain[i].coarse_of_fine;
    ThreadPool::global().parallel_for(fine.num_vertices(), [&](idx_t v) {
      fine_part[static_cast<std::size_t>(v)] =
          part[static_cast<std::size_t>(map[static_cast<std::size_t>(v)])];
    });
    kway_refine(fine, fine_part, refine, rng);
    part = std::move(fine_part);
  }

  // Final cleanup at the finest level: reabsorb stranded fragments, then
  // polish.
  if (options.kway_passes > 0) {
    KwayRefineOptions polish = refine;
    polish.passes = options.kway_passes;
    for (int round = 0; round < 2; ++round) {
      merge_partition_fragments(g, part, k);
      kway_refine(g, part, polish, rng);
    }
  }
  t.refine_ms = timer.milliseconds();
  return part;
}

}  // namespace cpart
