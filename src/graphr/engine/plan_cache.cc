#include "plan_cache.hh"

#include <stdexcept>
#include <utility>

#include "common/checksum.hh"
#include "common/failpoint.hh"
#include "common/logging.hh"
#include "perf/counters.hh"
#include "store/plan_store.hh"

namespace graphr
{

namespace
{

/**
 * The thread's request-scoped store override. A plain pointer pair
 * (value + active flag) rather than a thread_local shared_ptr with a
 * non-trivial destructor: the RAII guard owns the shared_ptr, the TLS
 * slot only borrows it for the guard's lifetime.
 */
thread_local const std::shared_ptr<PlanStore> *t_storeOverride =
    nullptr;

} // namespace

PlanCache &
PlanCache::instance()
{
    static PlanCache cache;
    return cache;
}

PlanCache::ScopedStoreOverride::ScopedStoreOverride(
    std::shared_ptr<PlanStore> store)
{
    GRAPHR_ASSERT(t_storeOverride == nullptr,
                  "nested PlanCache store overrides are not supported");
    // The override lives exactly as long as this guard; storing the
    // address of a heap copy keeps the TLS slot trivially destructible.
    t_storeOverride =
        new std::shared_ptr<PlanStore>(std::move(store));
}

PlanCache::ScopedStoreOverride::~ScopedStoreOverride()
{
    delete t_storeOverride;
    t_storeOverride = nullptr;
}

bool
PlanCache::storeOverrideActive()
{
    return t_storeOverride != nullptr;
}

std::shared_ptr<PlanStore>
PlanCache::effectiveStore() const
{
    if (t_storeOverride != nullptr)
        return *t_storeOverride;
    return store();
}

std::size_t
PlanCache::KeyHash::operator()(const Key &key) const
{
    // The fingerprint is already well mixed; fold the tiling in.
    std::uint64_t h = key.fingerprint;
    h ^= key.storeNamespace * 0xff51afd7ed558ccdull;
    h ^= (static_cast<std::uint64_t>(key.crossbarDim) << 0) ^
         (static_cast<std::uint64_t>(key.crossbarsPerGe) << 16) ^
         (static_cast<std::uint64_t>(key.numGe) << 32) ^
         (static_cast<std::uint64_t>(key.blockSize) << 48);
    h *= 0x9e3779b97f4a7c15ull;
    return static_cast<std::size_t>(h ^ (h >> 32));
}

void
PlanCache::setStore(std::shared_ptr<PlanStore> store)
{
    const std::lock_guard<std::mutex> lock(storeMutex_);
    store_ = std::move(store);
}

std::shared_ptr<PlanStore>
PlanCache::store() const
{
    const std::lock_guard<std::mutex> lock(storeMutex_);
    return store_;
}

TilePlanPtr
PlanCache::get(const CooGraph &graph, const TilingParams &tiling,
               bool *cache_hit)
{
    // Memoised on the graph: a resident graph is hashed once, not on
    // every lookup.
    const auto prepare = [&graph, &tiling] {
        return std::make_shared<const TilePlan>(graph, tiling);
    };
    return getPlan(graphFingerprint(graph), tiling, cache_hit, prepare);
}

TilePlanPtr
PlanCache::get(const SymmetrizedView &view, const TilingParams &tiling,
               bool *cache_hit)
{
    const auto prepare = [&view, &tiling] {
        return std::make_shared<const TilePlan>(view, tiling);
    };
    return getPlan(view.fingerprint(), tiling, cache_hit, prepare);
}

template <typename Prepare>
TilePlanPtr
PlanCache::getPlan(std::uint64_t fingerprint, const TilingParams &tiling,
                   bool *cache_hit, Prepare prepare)
{
    // Snapshot once: the factory runs outside every cache lock. Under
    // a request-scoped override (tenant namespace) the entry is keyed
    // by the overriding store's directory too, so tenants never share
    // a memory entry one of them could have seeded from its own
    // artifact directory.
    const std::shared_ptr<PlanStore> store = effectiveStore();
    const std::uint64_t ns =
        storeOverrideActive() && store != nullptr
            ? fnv1a64(store->directory().data(),
                      store->directory().size())
            : 0;
    const Key key{fingerprint,
                  ns,
                  tiling.crossbarDim,
                  tiling.crossbarsPerGe,
                  tiling.numGe,
                  tiling.blockSize};
    bool hit = false;
    TilePlanPtr plan = cache_.getOrBuild(
        key,
        [&tiling, fingerprint, &store, &prepare] {
            // Injectable build failure: exercises LruCache's failed-
            // build contract (the exception reaches every waiter, the
            // slot is dropped, the next get() retries the build).
            if (GRAPHR_FAILPOINT("cache.build.fail")) {
                throw std::runtime_error(
                    "injected failure: failpoint cache.build.fail");
            }
            if (store != nullptr) {
                if (TilePlanPtr loaded = store->load(fingerprint, tiling))
                    return loaded;
            }
            TilePlanPtr built = prepare();
            if (store != nullptr) {
                // Write-through is best-effort: a full disk must not
                // kill the run that could recompute the plan anyway.
                try {
                    store->save(*built, tiling);
                } catch (const StoreError &err) {
                    GRAPHR_WARN("plan store: ", err.what(),
                                " — continuing without persisting");
                }
            }
            return built;
        },
        &hit);
    // Publish into the process-wide perf registry (perf/counters.hh);
    // the references are resolved once, the hot path pays one
    // relaxed fetch_add.
    static perf::Counter &hits =
        perf::Registry::instance().counter("plan_cache.hits");
    static perf::Counter &misses =
        perf::Registry::instance().counter("plan_cache.misses");
    (hit ? hits : misses).add();
    if (cache_hit != nullptr)
        *cache_hit = hit;
    return plan;
}

} // namespace graphr
