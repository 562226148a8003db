// Fiduccia–Mattheyses boundary refinement for (multi-constraint) bisections.
//
// Moves vertices between the two sides to reduce edge-cut while driving all
// vertex-weight components toward the target split (left side receives
// `left_fraction` of each component, tolerance epsilon). Each pass performs
// a sequence of locked moves with rollback to the best prefix, where states
// are ordered lexicographically by (balance violation, cut).
//
// A pass costs O(boundary + moved·deg), not O(n·deg): gains and the boundary
// are kept incrementally across moves, rollbacks and passes, and a pass
// ends after fm_stall_limit(n) consecutive moves that fail to improve the
// best state (the bound METIS puts on its FM passes; Karypis & Kumar, SIAM
// J. Sci. Comput. 20(1), 1998).
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "graph/csr_graph.hpp"
#include "util/rng.hpp"

namespace cpart {

/// Relative balance violation of a 0/1 partition: sum over constraints and
/// sides of the overweight beyond (1+epsilon)*target, normalized by the
/// constraint total. 0 means every constraint is within tolerance.
double bisection_violation(const CsrGraph& g, std::span<const idx_t> part01,
                           double left_fraction, double epsilon);

/// Number of consecutive moves that fail to improve the best (violation,
/// cut) state after which an FM pass on an n-vertex graph stops.
idx_t fm_stall_limit(idx_t n);

/// Work counters of one fm_refine_bisection call. They report only.
struct FmStats {
  /// Moves made, including the ones rolled back.
  std::int64_t attempted = 0;
  /// Moves that survived the rollback to each pass's best prefix.
  std::int64_t kept = 0;
  int passes = 0;
};

/// Scratch arrays of fm_refine_bisection. One workspace serves any number
/// of serial calls, on graphs of any size, so a multilevel bisection
/// allocates them once rather than once per call. Not thread-safe.
class FmWorkspace {
 public:
  FmWorkspace();
  ~FmWorkspace();
  FmWorkspace(const FmWorkspace&) = delete;
  FmWorkspace& operator=(const FmWorkspace&) = delete;

  struct Arrays;
  Arrays& arrays() { return *arrays_; }

 private:
  std::unique_ptr<Arrays> arrays_;
};

/// Runs up to `passes` FM passes; modifies part01 in place. Returns the
/// number of moves kept (a vertex kept in two passes counts twice).
/// `workspace` (optional) supplies reusable scratch memory; `stats`
/// (optional) receives the work counters.
idx_t fm_refine_bisection(const CsrGraph& g, std::span<idx_t> part01,
                          double left_fraction, double epsilon, int passes,
                          Rng& rng, FmWorkspace* workspace = nullptr,
                          FmStats* stats = nullptr);

}  // namespace cpart
