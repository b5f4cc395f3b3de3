/**
 * @file
 * The golden-count counters of the graph memo.
 *
 * Every backend takes its PageRank iteration count, and multinode its
 * BFS/SSSP/WCC round counts, from the golden algorithms through the
 * graph's memo (graph/graph_memo.hh), so each count is computed once
 * per graph and parameter set. The memo publishes one
 * golden_cache.hits or golden_cache.misses count per lookup; these
 * calls read and reset that pair for graphr_serve's status, the perf
 * suites and tests. There is no separate cache to clear: the products
 * live and die with their graph.
 */

#ifndef GRAPHR_DRIVER_GOLDEN_CACHE_HH
#define GRAPHR_DRIVER_GOLDEN_CACHE_HH

#include <cstdint>

namespace graphr::driver
{

/** Golden-count lookups answered from a memo (hits) or computed. */
struct GoldenCacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
};

GoldenCacheStats goldenCacheStats();

/** Reset the golden-count counters to zero. */
void clearGoldenCache();

} // namespace graphr::driver

#endif // GRAPHR_DRIVER_GOLDEN_CACHE_HH
