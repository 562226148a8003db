// Direct multilevel k-way partitioning (the kmetis-style alternative to
// recursive bisection).
//
// Coarsens the whole graph once to ~C*k vertices, computes the initial
// k-way partition there via recursive bisection, then uncoarsens with
// multi-constraint greedy k-way refinement (plus connectivity cleanup) at
// every level. Compared to pure recursive bisection this sees the global
// k-way objective during refinement, which typically wins on communication
// volume for large k; `bench_ablation` compares the two.
#pragma once

#include "partition/partition.hpp"

namespace cpart {

/// Wall time of the three phases of one partition_graph_kway call. They
/// report only.
struct KwayPhaseTimes {
  double coarsen_ms = 0;
  double initial_ms = 0;  // recursive bisection of the coarsest graph
  double refine_ms = 0;   // refinement while uncoarsening, plus the polish
  double total_ms() const { return coarsen_ms + initial_ms + refine_ms; }
};

/// Computes a k-way partitioning with the direct multilevel k-way scheme.
/// Options are shared with partition_graph(); `coarsen_target` is
/// interpreted per-partition (the coarsest graph has ~max(coarsen_target/4,
/// 15) * k vertices). `times` (optional) receives the phase wall times.
std::vector<idx_t> partition_graph_kway(const CsrGraph& g,
                                        const PartitionOptions& options,
                                        KwayPhaseTimes* times = nullptr);

}  // namespace cpart
