/**
 * @file
 * The lookup counters of the graph memo's golden counts and frontier
 * schedules.
 *
 * Every backend takes its PageRank iteration count, and multinode its
 * WCC round count, from the golden algorithms through the graph's
 * memo (graph/graph_memo.hh), so each count is computed once per
 * graph and parameter set. The GraphR backends' BFS/SSSP/WCC rounds
 * come from the memo's frontier schedules, recorded once per graph
 * and source. The memo publishes one golden_cache.hits or
 * golden_cache.misses count per golden lookup, and one
 * frontier_cache.hits or frontier_cache.misses count per schedule
 * lookup; these calls read and reset those pairs for graphr_serve's
 * status, the perf suites and tests. There is no separate cache to
 * clear: the products live and die with their graph.
 */

#ifndef GRAPHR_DRIVER_GOLDEN_CACHE_HH
#define GRAPHR_DRIVER_GOLDEN_CACHE_HH

#include <cstdint>

namespace graphr::driver
{

/** Memo lookups answered from a memo (hits) or built (misses). */
struct GoldenCacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
};

/** Golden-count lookups. */
GoldenCacheStats goldenCacheStats();

/** Frontier-schedule lookups. */
GoldenCacheStats frontierCacheStats();

/** Reset the golden-count and frontier-schedule counters to zero. */
void clearGoldenCache();

} // namespace graphr::driver

#endif // GRAPHR_DRIVER_GOLDEN_CACHE_HH
