#include "partition/initial_partition.hpp"

#include <algorithm>
#include <optional>
#include <queue>

#include "graph/graph_metrics.hpp"

namespace cpart {

namespace {

/// One GGG attempt: grows side 0 from `seed` until it holds the target
/// share of every weight component. Frontier vertices are prioritized by FM
/// gain (ext - int with respect to the growing region) plus a steering term
/// that favours vertices carrying the constraints the region is short on —
/// without it, lumpy secondary constraints (contact nodes) end up entirely
/// on one side and FM has to shred the boundary repairing them.
std::vector<idx_t> grow_from(const CsrGraph& g, idx_t seed,
                             double left_fraction) {
  const idx_t n = g.num_vertices();
  const idx_t ncon = g.ncon();
  std::vector<idx_t> part(static_cast<std::size_t>(n), 1);
  std::vector<wgt_t> totals(static_cast<std::size_t>(ncon));
  std::vector<wgt_t> grown(static_cast<std::size_t>(ncon), 0);
  for (idx_t c = 0; c < ncon; ++c) {
    totals[static_cast<std::size_t>(c)] = g.total_vertex_weight(c);
  }
  const auto target0 = static_cast<wgt_t>(
      left_fraction * static_cast<double>(totals[0]));

  struct Entry {
    double priority;
    idx_t vertex;
    bool operator<(const Entry& o) const {
      if (priority != o.priority) return priority < o.priority;
      return vertex < o.vertex;
    }
  };
  std::priority_queue<Entry> frontier;
  std::vector<wgt_t> to_region(static_cast<std::size_t>(n), 0);
  std::vector<char> in_region(static_cast<std::size_t>(n), 0);

  // Mean degree-weighted edge weight scales the steering bonus so it is
  // commensurate with typical gains.
  double mean_w = 1.0;
  if (g.has_edge_weights()) {
    double sum = 0;
    for (wgt_t w : g.adjwgt()) sum += static_cast<double>(w);
    mean_w = g.adjwgt().empty() ? 1.0 : sum / static_cast<double>(g.adjwgt().size());
  }

  auto priority_of = [&](idx_t v) {
    wgt_t away = 0;
    auto nbrs = g.neighbors(v);
    for (idx_t j = 0; j < to_idx(nbrs.size()); ++j) {
      if (!in_region[static_cast<std::size_t>(
              nbrs[static_cast<std::size_t>(j)])]) {
        away += g.edge_weight(v, j);
      }
    }
    double p = static_cast<double>(to_region[static_cast<std::size_t>(v)] - away);
    // Steering: compare each secondary constraint's progress with the
    // primary's; prefer carriers of lagging constraints.
    if (ncon > 1 && totals[0] > 0) {
      const double progress0 =
          static_cast<double>(grown[0]) / static_cast<double>(totals[0]);
      for (idx_t c = 1; c < ncon; ++c) {
        const wgt_t tc = totals[static_cast<std::size_t>(c)];
        if (tc == 0) continue;
        const double progress_c =
            static_cast<double>(grown[static_cast<std::size_t>(c)]) /
            static_cast<double>(tc);
        const double lag = progress0 - progress_c;  // >0: constraint c behind
        p += 2.0 * mean_w * lag *
             static_cast<double>(g.vertex_weight(v, c) > 0 ? 1 : -1);
      }
    }
    return p;
  };

  idx_t next_seed = seed;
  while (grown[0] < target0) {
    idx_t v = kInvalidIndex;
    while (!frontier.empty()) {
      const Entry e = frontier.top();
      frontier.pop();
      if (!in_region[static_cast<std::size_t>(e.vertex)]) {
        v = e.vertex;
        break;
      }
    }
    if (v == kInvalidIndex) {
      // Disconnected component exhausted: restart from the next untouched
      // vertex so growth can continue.
      while (next_seed < n && in_region[static_cast<std::size_t>(next_seed)]) {
        ++next_seed;
      }
      if (next_seed >= n) break;
      v = next_seed;
    }
    in_region[static_cast<std::size_t>(v)] = 1;
    part[static_cast<std::size_t>(v)] = 0;
    for (idx_t c = 0; c < ncon; ++c) {
      grown[static_cast<std::size_t>(c)] += g.vertex_weight(v, c);
    }
    auto nbrs = g.neighbors(v);
    for (idx_t j = 0; j < to_idx(nbrs.size()); ++j) {
      const idx_t u = nbrs[static_cast<std::size_t>(j)];
      if (in_region[static_cast<std::size_t>(u)]) continue;
      to_region[static_cast<std::size_t>(u)] += g.edge_weight(v, j);
      frontier.push(Entry{priority_of(u), u});
    }
  }
  return part;
}

}  // namespace

std::vector<idx_t> initial_bisection(const CsrGraph& g, double left_fraction,
                                     double epsilon, int tries,
                                     int refine_passes, Rng& rng,
                                     FmWorkspace* workspace) {
  const idx_t n = g.num_vertices();
  require(n > 0, "initial_bisection: empty graph");
  require(left_fraction > 0.0 && left_fraction < 1.0,
          "initial_bisection: left_fraction must be in (0, 1)");

  std::optional<FmWorkspace> own;
  if (workspace == nullptr) workspace = &own.emplace();
  std::vector<idx_t> best;
  double best_viol = 0;
  wgt_t best_cut = 0;
  for (int t = 0; t < std::max(1, tries); ++t) {
    const idx_t seed = rng.uniform_int(n);
    std::vector<idx_t> part = grow_from(g, seed, left_fraction);
    fm_refine_bisection(g, part, left_fraction, epsilon, refine_passes, rng,
                        workspace);
    const double viol = bisection_violation(g, part, left_fraction, epsilon);
    const wgt_t cut = edge_cut(g, part);
    if (best.empty() || viol < best_viol - 1e-12 ||
        (viol <= best_viol + 1e-12 && cut < best_cut)) {
      best = std::move(part);
      best_viol = viol;
      best_cut = cut;
    }
  }
  return best;
}

}  // namespace cpart
