#include "graph_memo.hh"

#include "common/checksum.hh"
#include "common/logging.hh"
#include "perf/counters.hh"

namespace graphr
{

std::size_t
FrontierSchedule::capFor(EdgeId num_edges)
{
    return num_edges * sizeof(Edge) / GraphMemo::kGoldenCountsPerProduct;
}

FrontierSchedule::FrontierSchedule(std::size_t cap_bytes)
    : capBytes_(cap_bytes)
{
}

void
FrontierSchedule::addRound(std::span<const VertexId> ids)
{
    ++rounds_;
    if (!recorded_)
        return;
    const std::size_t bytes_after =
        (ids_.size() + ids.size()) * sizeof(VertexId) +
        (offsets_.size() + 1) * sizeof(std::size_t);
    if (bytes_after > capBytes_) {
        recorded_ = false;
        ids_ = {};
        offsets_ = {};
        return;
    }
    ids_.insert(ids_.end(), ids.begin(), ids.end());
    offsets_.push_back(ids_.size());
}

void
FrontierSchedule::finish()
{
    ids_.shrink_to_fit();
    offsets_.shrink_to_fit();
}

std::span<const VertexId>
FrontierSchedule::round(int r) const
{
    GRAPHR_ASSERT(recorded_ && r >= 0 && r < rounds_, "round ", r,
                  " not kept in a schedule of ", rounds_, " rounds");
    const auto i = static_cast<std::size_t>(r);
    return std::span<const VertexId>(ids_).subspan(
        offsets_[i], offsets_[i + 1] - offsets_[i]);
}

std::size_t
FrontierSchedule::bytes() const
{
    return ids_.size() * sizeof(VertexId) +
           offsets_.size() * sizeof(std::size_t);
}

std::uint64_t
GraphMemo::fingerprint(const std::function<std::uint64_t()> &fold)
{
    bool built = false;
    return fingerprint_.get(fold, &built);
}

bool
GraphMemo::unitWeights(const std::function<bool()> &scan)
{
    bool built = false;
    return unitWeights_.get(scan, &built);
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

std::shared_ptr<const FrontierSchedule>
GraphMemo::frontierSchedule(const ScheduleKey &key,
                            const std::function<FrontierSchedule()> &build)
{
    static perf::Counter &hits =
        perf::Registry::instance().counter("frontier_cache.hits");
    static perf::Counter &misses =
        perf::Registry::instance().counter("frontier_cache.misses");
    Schedules &schedules =
        schedules_[static_cast<std::size_t>(key.relaxation)];
    bool hit = false;
    std::shared_ptr<const FrontierSchedule> schedule =
        schedules.getOrBuild(
            key,
            [&build] {
                return std::make_shared<const FrontierSchedule>(build());
            },
            &hit);
    (hit ? hits : misses).add();
    return schedule;
}

std::size_t
GraphMemo::ScheduleKeyHash::operator()(const ScheduleKey &key) const
{
    Fnv1a64 h;
    h.updateWord(static_cast<std::uint64_t>(key.relaxation));
    h.updateWord(key.source);
    return static_cast<std::size_t>(h.digest());
}

EdgeId
GraphMemo::symmetrizedEdges(const std::function<EdgeId()> &count)
{
    bool built = false;
    return symmetrizedEdges_.get(count, &built);
}

std::uint64_t
GraphMemo::symmetrizedFingerprint(
    const std::function<std::uint64_t()> &fold)
{
    bool built = false;
    return symmetrizedFingerprint_.get(fold, &built);
}

} // namespace graphr
