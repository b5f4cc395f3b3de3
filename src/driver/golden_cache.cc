#include "golden_cache.hh"

#include <string>

#include "perf/counters.hh"

namespace graphr::driver
{

namespace
{

GoldenCacheStats
lookupStats(const std::string &prefix)
{
    perf::Registry &registry = perf::Registry::instance();
    return GoldenCacheStats{registry.counter(prefix + ".hits").value(),
                            registry.counter(prefix + ".misses").value()};
}

} // namespace

GoldenCacheStats
goldenCacheStats()
{
    return lookupStats("golden_cache");
}

GoldenCacheStats
frontierCacheStats()
{
    return lookupStats("frontier_cache");
}

void
clearGoldenCache()
{
    perf::Registry &registry = perf::Registry::instance();
    for (const char *name :
         {"golden_cache.hits", "golden_cache.misses",
          "frontier_cache.hits", "frontier_cache.misses"})
        registry.counter(name).reset();
}

} // namespace graphr::driver
