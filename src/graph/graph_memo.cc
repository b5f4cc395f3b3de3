#include "graph_memo.hh"

#include "common/checksum.hh"
#include "perf/counters.hh"

namespace graphr
{

std::uint64_t
GraphMemo::fingerprint(const std::function<std::uint64_t()> &fold)
{
    bool built = false;
    return fingerprint_.get(fold, &built);
}

int
GraphMemo::goldenCount(const GoldenKey &key,
                       const std::function<int()> &compute)
{
    static perf::Counter &hits =
        perf::Registry::instance().counter("golden_cache.hits");
    static perf::Counter &misses =
        perf::Registry::instance().counter("golden_cache.misses");
    GoldenCounts &counts = golden_[static_cast<std::size_t>(key.product)];
    bool hit = false;
    const int count = *counts.getOrBuild(
        key,
        [&compute] { return std::make_shared<const int>(compute()); },
        &hit);
    (hit ? hits : misses).add();
    return count;
}

std::size_t
GraphMemo::GoldenKeyHash::operator()(const GoldenKey &key) const
{
    Fnv1a64 h;
    h.updateWord(static_cast<std::uint64_t>(key.product));
    for (const std::uint64_t word : key.params)
        h.updateWord(word);
    return static_cast<std::size_t>(h.digest());
}

std::shared_ptr<const CooGraph>
GraphMemo::symmetrized(const std::function<CooGraph()> &build)
{
    static perf::Counter &symmetrizations =
        perf::Registry::instance().counter("graph.symmetrizations");
    bool built = false;
    std::shared_ptr<const CooGraph> copy = symmetrized_.get(
        [&build] { return std::make_shared<const CooGraph>(build()); },
        &built);
    if (built)
        symmetrizations.add();
    return copy;
}

} // namespace graphr
