// Multilevel driver: coarsen / initial-partition / uncoarsen-and-refine
// bisections, composed into k-way partitionings by recursive bisection with
// proportional part counts, plus a final k-way polish pass.
#include <algorithm>
#include <cmath>

#include "parallel/thread_pool.hpp"
#include "partition/coarsen.hpp"
#include "partition/connectivity.hpp"
#include "partition/initial_partition.hpp"
#include "partition/partition.hpp"
#include "partition/refine_bisection.hpp"

namespace cpart {

namespace {

/// `fm` is the FM scratch memory shared by the initial tries and every
/// level (and, through recursive_bisect, by every bisection of the tree).
std::vector<idx_t> multilevel_bisect(const CsrGraph& g, double left_fraction,
                                     double epsilon,
                                     const PartitionOptions& options, Rng& rng,
                                     FmWorkspace& fm) {
  CoarsenOptions copts;
  copts.parallel_threshold = options.coarsen_parallel_threshold;
  // Coarsening chain: chain[i] maps graph_i -> graph_{i+1}; graph_0 is g.
  std::vector<Coarsening> chain;
  const CsrGraph* cur = &g;
  while (cur->num_vertices() > options.coarsen_target) {
    Coarsening c = coarsen_once(*cur, rng, copts);
    // Matching collapse stalls on star-like graphs; stop when the graph
    // shrinks by less than 5% to avoid spinning.
    if (c.coarse.num_vertices() > cur->num_vertices() * 19 / 20) break;
    chain.push_back(std::move(c));
    cur = &chain.back().coarse;
  }

  std::vector<idx_t> part =
      initial_bisection(*cur, left_fraction, epsilon, options.initial_tries,
                        options.refine_passes, rng, &fm);

  for (std::size_t i = chain.size(); i-- > 0;) {
    const CsrGraph& fine = (i == 0) ? g : chain[i - 1].coarse;
    std::vector<idx_t> fine_part(static_cast<std::size_t>(fine.num_vertices()));
    const std::vector<idx_t>& map = chain[i].coarse_of_fine;
    ThreadPool::global().parallel_for(fine.num_vertices(), [&](idx_t v) {
      fine_part[static_cast<std::size_t>(v)] =
          part[static_cast<std::size_t>(map[static_cast<std::size_t>(v)])];
    });
    fm_refine_bisection(fine, fine_part, left_fraction, epsilon,
                        options.refine_passes, rng, &fm);
    part = std::move(fine_part);
  }
  return part;
}

/// Extracts the subgraph induced by the vertices with part01[v] == side.
/// Returns the subgraph and the parent id of each sub-vertex. Cut edges are
/// dropped (standard recursive-bisection behaviour).
struct Subgraph {
  CsrGraph graph;
  std::vector<idx_t> parent;  // sub id -> parent id
};

Subgraph induce_side(const CsrGraph& g, std::span<const idx_t> part01,
                     idx_t side) {
  const idx_t n = g.num_vertices();
  const idx_t ncon = g.ncon();
  std::vector<idx_t> local(static_cast<std::size_t>(n), kInvalidIndex);
  Subgraph sub;
  for (idx_t v = 0; v < n; ++v) {
    if (part01[static_cast<std::size_t>(v)] == side) {
      local[static_cast<std::size_t>(v)] = to_idx(sub.parent.size());
      sub.parent.push_back(v);
    }
  }
  const idx_t ns = to_idx(sub.parent.size());
  std::vector<idx_t> xadj{0};
  xadj.reserve(static_cast<std::size_t>(ns) + 1);
  std::vector<idx_t> adjncy;
  std::vector<wgt_t> adjwgt;
  std::vector<wgt_t> vwgt(static_cast<std::size_t>(ns) *
                          static_cast<std::size_t>(ncon));
  for (idx_t sv = 0; sv < ns; ++sv) {
    const idx_t v = sub.parent[static_cast<std::size_t>(sv)];
    for (idx_t c = 0; c < ncon; ++c) {
      vwgt[static_cast<std::size_t>(sv) * ncon + static_cast<std::size_t>(c)] =
          g.vertex_weight(v, c);
    }
    auto nbrs = g.neighbors(v);
    for (idx_t j = 0; j < to_idx(nbrs.size()); ++j) {
      const idx_t lu =
          local[static_cast<std::size_t>(nbrs[static_cast<std::size_t>(j)])];
      if (lu == kInvalidIndex) continue;
      adjncy.push_back(lu);
      adjwgt.push_back(g.edge_weight(v, j));
    }
    xadj.push_back(to_idx(adjncy.size()));
  }
  sub.graph = CsrGraph(std::move(xadj), std::move(adjncy), std::move(vwgt),
                       std::move(adjwgt), ncon);
  return sub;
}

/// Recursive bisection assigning parts [first_part, first_part + k) to the
/// vertices of `g`, writing through `parent` into the global partition.
void recursive_bisect(const CsrGraph& g, std::span<const idx_t> parent,
                      idx_t k, idx_t first_part, double epsilon_per_level,
                      const PartitionOptions& options, Rng& rng,
                      FmWorkspace& fm, std::vector<idx_t>& out) {
  if (k == 1) {
    for (idx_t v = 0; v < g.num_vertices(); ++v) {
      out[static_cast<std::size_t>(parent[static_cast<std::size_t>(v)])] =
          first_part;
    }
    return;
  }
  const idx_t k_left = (k + 1) / 2;
  const double fraction =
      static_cast<double>(k_left) / static_cast<double>(k);
  const std::vector<idx_t> part01 =
      multilevel_bisect(g, fraction, epsilon_per_level, options, rng, fm);

  for (idx_t side = 0; side < 2; ++side) {
    Subgraph sub = induce_side(g, part01, side);
    // Map the sub-vertex parents through to the outermost ids.
    for (idx_t& p : sub.parent) {
      p = parent[static_cast<std::size_t>(p)];
    }
    const idx_t sub_k = (side == 0) ? k_left : k - k_left;
    const idx_t sub_first = (side == 0) ? first_part : first_part + k_left;
    recursive_bisect(sub.graph, sub.parent, sub_k, sub_first,
                     epsilon_per_level, options, rng, fm, out);
  }
}

}  // namespace

std::vector<idx_t> bisect_graph(const CsrGraph& g, double left_fraction,
                                double epsilon, const PartitionOptions& options,
                                Rng& rng) {
  require(g.num_vertices() > 0, "bisect_graph: empty graph");
  require(left_fraction > 0.0 && left_fraction < 1.0,
          "bisect_graph: left_fraction must be in (0, 1)");
  FmWorkspace fm;
  return multilevel_bisect(g, left_fraction, epsilon, options, rng, fm);
}

std::vector<idx_t> partition_graph(const CsrGraph& g,
                                   const PartitionOptions& options) {
  const idx_t n = g.num_vertices();
  const idx_t k = options.k;
  require(k >= 1, "partition_graph: k must be >= 1");
  std::vector<idx_t> part(static_cast<std::size_t>(n), 0);
  if (k == 1 || n == 0) return part;

  Rng rng(options.seed);
  // Imbalance budget per bisection level: tight budgets (epsilon/levels)
  // force the bisector to contort boundaries around lumpy constraints, so we
  // give each level a looser budget (epsilon / sqrt(levels)) and let the
  // final k-way polish repair the residual against the full epsilon.
  const int levels =
      std::max(1, static_cast<int>(std::ceil(std::log2(static_cast<double>(k)))));
  const double eps_level = std::clamp(
      options.epsilon / std::sqrt(static_cast<double>(levels)), 0.02,
      options.epsilon);

  std::vector<idx_t> parent(static_cast<std::size_t>(n));
  for (idx_t v = 0; v < n; ++v) parent[static_cast<std::size_t>(v)] = v;
  FmWorkspace fm;
  recursive_bisect(g, parent, k, 0, eps_level, options, rng, fm, part);

  if (options.kway_passes > 0) {
    KwayRefineOptions kro;
    kro.k = k;
    kro.epsilon = options.epsilon;
    kro.passes = options.kway_passes;
    // Alternate fragment cleanup with refinement: merging stray components
    // unbalances the partition, refinement re-balances and may strand new
    // fragments; two rounds reach a fixed point in practice.
    for (int round = 0; round < 2; ++round) {
      merge_partition_fragments(g, part, k);
      kway_refine(g, part, kro, rng);
    }
  }
  return part;
}

}  // namespace cpart
