#include "golden_cache.hh"

#include "perf/counters.hh"

namespace graphr::driver
{

GoldenCacheStats
goldenCacheStats()
{
    perf::Registry &registry = perf::Registry::instance();
    return GoldenCacheStats{registry.counter("golden_cache.hits").value(),
                            registry.counter("golden_cache.misses").value()};
}

void
clearGoldenCache()
{
    perf::Registry &registry = perf::Registry::instance();
    registry.counter("golden_cache.hits").reset();
    registry.counter("golden_cache.misses").reset();
}

} // namespace graphr::driver
