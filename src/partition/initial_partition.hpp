// Initial bisection of the coarsest graph via greedy graph growing (GGG).
//
// Several randomized attempts grow a region from a random seed, preferring
// frontier vertices that pull the least new edge weight across the boundary,
// until side 0 holds `left_fraction` of the first weight component. Each
// attempt is polished with FM (which also repairs the remaining
// constraints); the attempt with the best (violation, cut) wins.
#pragma once

#include <vector>

#include "graph/csr_graph.hpp"
#include "partition/refine_bisection.hpp"
#include "util/rng.hpp"

namespace cpart {

/// `workspace` (optional) is the FM scratch memory the attempts share.
std::vector<idx_t> initial_bisection(const CsrGraph& g, double left_fraction,
                                     double epsilon, int tries,
                                     int refine_passes, Rng& rng,
                                     FmWorkspace* workspace = nullptr);

}  // namespace cpart
