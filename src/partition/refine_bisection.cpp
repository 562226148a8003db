#include "partition/refine_bisection.hpp"

#include <algorithm>
#include <optional>

#include "graph/graph_metrics.hpp"

namespace cpart {

namespace {

/// Shared balance bookkeeping for a bisection of a multi-weight graph.
class BisectionBalance {
 public:
  BisectionBalance(const CsrGraph& g, std::span<const idx_t> part01,
                   double left_fraction, double epsilon)
      : g_(g), ncon_(g.ncon()) {
    totals_.resize(static_cast<std::size_t>(ncon_));
    side_[0].assign(static_cast<std::size_t>(ncon_), 0);
    side_[1].assign(static_cast<std::size_t>(ncon_), 0);
    for (idx_t c = 0; c < ncon_; ++c) {
      totals_[static_cast<std::size_t>(c)] = g.total_vertex_weight(c);
    }
    for (idx_t v = 0; v < g.num_vertices(); ++v) {
      const int s = part01[static_cast<std::size_t>(v)];
      for (idx_t c = 0; c < ncon_; ++c) {
        side_[s][static_cast<std::size_t>(c)] += g.vertex_weight(v, c);
      }
    }
    limit_[0].resize(static_cast<std::size_t>(ncon_));
    limit_[1].resize(static_cast<std::size_t>(ncon_));
    for (idx_t c = 0; c < ncon_; ++c) {
      const double t = static_cast<double>(totals_[static_cast<std::size_t>(c)]);
      limit_[0][static_cast<std::size_t>(c)] = (1.0 + epsilon) * left_fraction * t;
      limit_[1][static_cast<std::size_t>(c)] =
          (1.0 + epsilon) * (1.0 - left_fraction) * t;
    }
  }

  /// Applies the move of v from its current side `from` to 1-from.
  void apply(idx_t v, int from) {
    for (idx_t c = 0; c < ncon_; ++c) {
      const wgt_t w = g_.vertex_weight(v, c);
      side_[from][static_cast<std::size_t>(c)] -= w;
      side_[1 - from][static_cast<std::size_t>(c)] += w;
    }
  }

  double violation() const {
    double viol = 0;
    for (int s = 0; s < 2; ++s) {
      for (idx_t c = 0; c < ncon_; ++c) {
        const wgt_t total = totals_[static_cast<std::size_t>(c)];
        if (total == 0) continue;
        const double over = static_cast<double>(side_[s][static_cast<std::size_t>(c)]) -
                            limit_[s][static_cast<std::size_t>(c)];
        if (over > 0) viol += over / static_cast<double>(total);
      }
    }
    return viol;
  }

  /// Violation if v moved from side `from` (apply, measure, undo).
  double violation_after(idx_t v, int from) {
    apply(v, from);
    const double viol = violation();
    apply(v, 1 - from);
    return viol;
  }

 private:
  const CsrGraph& g_;
  idx_t ncon_;
  std::vector<wgt_t> totals_;
  std::vector<wgt_t> side_[2];
  std::vector<double> limit_[2];
};

/// Candidates probed per side before each move.
constexpr int kProbesPerSide = 8;

/// A candidate move, ordered by gain, then by vertex id.
struct HeapEntry {
  wgt_t gain;
  idx_t vertex;
  bool operator<(const HeapEntry& o) const {
    if (gain != o.gain) return gain < o.gain;
    return vertex < o.vertex;
  }
};

}  // namespace

/// Per-vertex edge weight to the own side (`internal`) and to the other
/// side (`external`); the boundary (vertices with external > 0) as an
/// unordered list with positions; the pass locks; one max-heap of candidate
/// moves per side, with each vertex's heap slot, so that a gain change or a
/// removal costs O(log heap); and the move log. Sized to the largest graph
/// seen so far.
struct FmWorkspace::Arrays {
  std::vector<wgt_t> internal, external;
  std::vector<idx_t> boundary, boundary_pos;
  std::vector<char> locked;
  std::vector<HeapEntry> heap[2];
  std::vector<idx_t> heap_pos;
  std::vector<HeapEntry> candidates;
  std::vector<idx_t> moves;

  /// O(n + m): gains and boundary of part01 on g; no vertex locked or
  /// queued.
  void reset(const CsrGraph& g, std::span<const idx_t> part01) {
    const auto n = static_cast<std::size_t>(g.num_vertices());
    internal.assign(n, 0);
    external.assign(n, 0);
    boundary_pos.assign(n, kInvalidIndex);
    boundary.clear();
    locked.assign(n, 0);
    heap[0].clear();
    heap[1].clear();
    heap_pos.assign(n, kInvalidIndex);
    for (idx_t v = 0; v < g.num_vertices(); ++v) {
      auto nbrs = g.neighbors(v);
      for (idx_t j = 0; j < to_idx(nbrs.size()); ++j) {
        const idx_t u = nbrs[static_cast<std::size_t>(j)];
        if (part01[static_cast<std::size_t>(u)] ==
            part01[static_cast<std::size_t>(v)]) {
          internal[static_cast<std::size_t>(v)] += g.edge_weight(v, j);
        } else {
          external[static_cast<std::size_t>(v)] += g.edge_weight(v, j);
        }
      }
      update_boundary(v);
    }
  }

  wgt_t gain(idx_t v) const {
    return external[static_cast<std::size_t>(v)] -
           internal[static_cast<std::size_t>(v)];
  }

  void update_boundary(idx_t v) {
    const auto sv = static_cast<std::size_t>(v);
    const bool in = boundary_pos[sv] != kInvalidIndex;
    if (external[sv] > 0 && !in) {
      boundary_pos[sv] = to_idx(boundary.size());
      boundary.push_back(v);
    } else if (external[sv] == 0 && in) {
      const idx_t last = boundary.back();
      boundary[static_cast<std::size_t>(boundary_pos[sv])] = last;
      boundary_pos[static_cast<std::size_t>(last)] = boundary_pos[sv];
      boundary.pop_back();
      boundary_pos[sv] = kInvalidIndex;
    }
  }

  /// Moves v to the other side, patching its and its neighbours' gains
  /// (each by +-2w) and boundary membership in O(deg).
  void flip(const CsrGraph& g, std::span<idx_t> part01, idx_t v) {
    const auto sv = static_cast<std::size_t>(v);
    const idx_t to = 1 - part01[sv];
    part01[sv] = to;
    std::swap(internal[sv], external[sv]);
    update_boundary(v);
    auto nbrs = g.neighbors(v);
    for (idx_t j = 0; j < to_idx(nbrs.size()); ++j) {
      const idx_t u = nbrs[static_cast<std::size_t>(j)];
      const auto su = static_cast<std::size_t>(u);
      const wgt_t w = g.edge_weight(v, j);
      if (part01[su] == to) {
        external[su] -= w;
        internal[su] += w;
      } else {
        internal[su] -= w;
        external[su] += w;
      }
      update_boundary(u);
    }
  }

  // ----- candidate heaps ------------------------------------------------

  void place(std::vector<HeapEntry>& h, idx_t i, const HeapEntry& e) {
    h[static_cast<std::size_t>(i)] = e;
    heap_pos[static_cast<std::size_t>(e.vertex)] = i;
  }

  void sift_up(std::vector<HeapEntry>& h, idx_t i) {
    const HeapEntry e = h[static_cast<std::size_t>(i)];
    while (i > 0) {
      const idx_t parent = (i - 1) / 2;
      if (!(h[static_cast<std::size_t>(parent)] < e)) break;
      place(h, i, h[static_cast<std::size_t>(parent)]);
      i = parent;
    }
    place(h, i, e);
  }

  void sift_down(std::vector<HeapEntry>& h, idx_t i) {
    const HeapEntry e = h[static_cast<std::size_t>(i)];
    const idx_t size = to_idx(h.size());
    while (true) {
      idx_t child = 2 * i + 1;
      if (child >= size) break;
      if (child + 1 < size && h[static_cast<std::size_t>(child)] <
                                  h[static_cast<std::size_t>(child + 1)]) {
        ++child;
      }
      if (!(e < h[static_cast<std::size_t>(child)])) break;
      place(h, i, h[static_cast<std::size_t>(child)]);
      i = child;
    }
    place(h, i, e);
  }

  /// Queues v on its side's heap under its current gain, or re-keys it.
  void queue(idx_t v, idx_t side) {
    auto& h = heap[side];
    const idx_t i = heap_pos[static_cast<std::size_t>(v)];
    const HeapEntry e{gain(v), v};
    if (i == kInvalidIndex) {
      h.push_back(e);
      sift_up(h, to_idx(h.size()) - 1);
    } else if (h[static_cast<std::size_t>(i)] < e) {
      h[static_cast<std::size_t>(i)] = e;
      sift_up(h, i);
    } else {
      h[static_cast<std::size_t>(i)] = e;
      sift_down(h, i);
    }
  }

  void dequeue(idx_t v, idx_t side) {
    auto& h = heap[side];
    const idx_t i = heap_pos[static_cast<std::size_t>(v)];
    heap_pos[static_cast<std::size_t>(v)] = kInvalidIndex;
    const HeapEntry last = h.back();
    h.pop_back();
    if (last.vertex == v) return;
    const bool up = h[static_cast<std::size_t>(i)] < last;
    place(h, i, last);
    if (up) {
      sift_up(h, i);
    } else {
      sift_down(h, i);
    }
  }

  void clear_heaps() {
    for (auto& h : heap) {
      for (const HeapEntry& e : h) {
        heap_pos[static_cast<std::size_t>(e.vertex)] = kInvalidIndex;
      }
      h.clear();
    }
  }

  /// Appends the (up to) kProbesPerSide best entries of a side's heap to
  /// `candidates`, best first, without changing the heap: a best-first walk
  /// of the heap tree, whose frontier gains at most one slot per step.
  void peek_best(idx_t side) {
    const auto& h = heap[side];
    idx_t frontier[kProbesPerSide + 1];
    int size = 0;
    if (!h.empty()) frontier[size++] = 0;
    for (int taken = 0; taken < kProbesPerSide && size > 0; ++taken) {
      int best = 0;
      for (int f = 1; f < size; ++f) {
        if (h[static_cast<std::size_t>(frontier[best])] <
            h[static_cast<std::size_t>(frontier[f])]) {
          best = f;
        }
      }
      const idx_t i = frontier[best];
      frontier[best] = frontier[--size];
      candidates.push_back(h[static_cast<std::size_t>(i)]);
      for (idx_t child = 2 * i + 1; child <= 2 * i + 2; ++child) {
        if (child < to_idx(h.size())) frontier[size++] = child;
      }
    }
  }
};

FmWorkspace::FmWorkspace() : arrays_(std::make_unique<Arrays>()) {}
FmWorkspace::~FmWorkspace() = default;

double bisection_violation(const CsrGraph& g, std::span<const idx_t> part01,
                           double left_fraction, double epsilon) {
  BisectionBalance bal(g, part01, left_fraction, epsilon);
  return bal.violation();
}

// METIS ends a pass after clamp(n/100, 15, 100) fruitless moves. Under the
// multi-constraint admissibility rule fewer moves are open to a pass, and
// that limit raised the mean cut of the k=4 tenant scene by 4.9% (384
// seeds). clamp(n/5, 200, 1000) keeps the tenant scene and the k=25 paper
// scene within noise of unbounded passes (docs/scaling.md).
idx_t fm_stall_limit(idx_t n) {
  return std::clamp<idx_t>(n / 5, 200, 1000);
}

idx_t fm_refine_bisection(const CsrGraph& g, std::span<idx_t> part01,
                          double left_fraction, double epsilon, int passes,
                          Rng& rng, FmWorkspace* workspace, FmStats* stats) {
  const idx_t n = g.num_vertices();
  require(part01.size() == static_cast<std::size_t>(n),
          "fm_refine_bisection: partition size mismatch");
  if (stats != nullptr) *stats = FmStats{};
  if (n == 0) return 0;

  std::optional<FmWorkspace> own;
  if (workspace == nullptr) workspace = &own.emplace();
  FmWorkspace::Arrays& ws = workspace->arrays();
  ws.reset(g, part01);
  BisectionBalance bal(g, part01, left_fraction, epsilon);
  const idx_t stall_limit = fm_stall_limit(n);
  idx_t total_moved = 0;

  for (int pass = 0; pass < passes; ++pass) {
    // A balanced pass queues the boundary only. An imbalanced one queues
    // every vertex: the repair may have to move vertices no boundary
    // reaches, such as a component lying wholly on the overweight side.
    ws.clear_heaps();
    double cur_viol = bal.violation();
    if (cur_viol > 0) {
      for (idx_t v = 0; v < n; ++v) {
        ws.queue(v, part01[static_cast<std::size_t>(v)]);
      }
    } else {
      for (idx_t v : ws.boundary) {
        ws.queue(v, part01[static_cast<std::size_t>(v)]);
      }
    }

    // Move log for rollback to the best prefix.
    std::vector<idx_t>& moves = ws.moves;
    moves.clear();
    wgt_t cur_cut_delta = 0;  // relative to pass start
    double best_viol = cur_viol;
    wgt_t best_cut_delta = 0;
    std::size_t best_prefix = 0;

    while (moves.size() - best_prefix < static_cast<std::size_t>(stall_limit)) {
      // Probe the best few candidates of each side so that an inadmissible
      // high-gain entry cannot starve its whole side; keep the admissible
      // one with the best (violation_after, gain) ordering.
      ws.candidates.clear();
      ws.peek_best(0);
      ws.peek_best(1);
      idx_t chosen = kInvalidIndex;
      wgt_t chosen_gain = 0;
      double chosen_viol = 0;
      for (const HeapEntry& e : ws.candidates) {
        const idx_t v = e.vertex;
        const int side = part01[static_cast<std::size_t>(v)];
        const double after = bal.violation_after(v, side);
        // Admissible: does not worsen balance; strictly-better balance moves
        // are always admissible (that is how imbalance gets repaired).
        if (after > cur_viol + 1e-12) continue;
        // Prefer the move that repairs more violation; then higher gain;
        // then random (keeps the two sides from starving each other).
        if (chosen == kInvalidIndex || after < chosen_viol - 1e-12 ||
            (std::abs(after - chosen_viol) <= 1e-12 &&
             (e.gain > chosen_gain ||
              (e.gain == chosen_gain && rng.uniform() < 0.5)))) {
          chosen = v;
          chosen_gain = e.gain;
          chosen_viol = after;
        }
      }
      if (chosen == kInvalidIndex) break;

      const idx_t from = part01[static_cast<std::size_t>(chosen)];
      ws.dequeue(chosen, from);
      bal.apply(chosen, static_cast<int>(from));
      cur_viol = chosen_viol;
      cur_cut_delta -= chosen_gain;
      ws.flip(g, part01, chosen);
      ws.locked[static_cast<std::size_t>(chosen)] = 1;
      moves.push_back(chosen);

      // Re-key unlocked neighbours under their patched gains.
      for (idx_t u : g.neighbors(chosen)) {
        if (!ws.locked[static_cast<std::size_t>(u)]) {
          ws.queue(u, part01[static_cast<std::size_t>(u)]);
        }
      }

      if (cur_viol < best_viol - 1e-12 ||
          (cur_viol <= best_viol + 1e-12 && cur_cut_delta < best_cut_delta)) {
        best_viol = cur_viol;
        best_cut_delta = cur_cut_delta;
        best_prefix = moves.size();
      }
    }

    // Roll back to the best prefix, then unlock what the pass moved.
    for (std::size_t i = moves.size(); i > best_prefix; --i) {
      const idx_t v = moves[i - 1];
      bal.apply(v, part01[static_cast<std::size_t>(v)]);
      ws.flip(g, part01, v);
    }
    for (idx_t v : moves) ws.locked[static_cast<std::size_t>(v)] = 0;
    if (stats != nullptr) {
      stats->attempted += to_idx(moves.size());
      stats->kept += to_idx(best_prefix);
      ++stats->passes;
    }
    total_moved += to_idx(best_prefix);
    if (best_prefix == 0) break;  // pass made no progress
  }
  return total_moved;
}

}  // namespace cpart
