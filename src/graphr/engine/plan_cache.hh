/**
 * @file
 * Process-wide memoisation of TilePlans.
 *
 * The paper's preprocessing is performed once per graph and reused
 * for every subsequent run; the simulator mirrors that by caching
 * plans keyed by (graph fingerprint, tiling parameters). A
 * `--backend all` sweep that runs six algorithms across the GraphR
 * family then prepares each (graph, tiling) exactly once instead of
 * once per run, and repeated bench iterations hit the cache instead
 * of re-paying the edge sort.
 */

#ifndef GRAPHR_GRAPHR_ENGINE_PLAN_CACHE_HH
#define GRAPHR_GRAPHR_ENGINE_PLAN_CACHE_HH

#include <cstddef>
#include <memory>
#include <mutex>

#include "common/lru_cache.hh"
#include "graphr/engine/tile_plan.hh"

namespace graphr
{

class PlanStore;

/** LRU cache of TilePlans keyed by (graph fingerprint, tiling). */
class PlanCache
{
  public:
    using Stats = LruCacheStats;

    explicit PlanCache(std::size_t capacity = kDefaultCapacity)
        : cache_(capacity)
    {
    }

    /** The shared process-wide instance every runner uses. */
    static PlanCache &instance();

    /**
     * Look up (or build and insert) the plan for a graph under the
     * given tiling. @p cache_hit, when non-null, reports whether the
     * plan was reused.
     *
     * Thread-safe: lookups take a shared lock and each key is built
     * at most once (concurrent requesters for the same key block on
     * that entry only; different keys build in parallel). With a
     * store attached, a memory miss first tries a validated store
     * load; any store failure (missing, corrupt, stale) silently
     * degrades to a fresh prepare, and a failed write-through never
     * fails the get — persistence is strictly best-effort here.
     */
    TilePlanPtr get(const CooGraph &graph, const TilingParams &tiling,
                    bool *cache_hit = nullptr);

    /**
     * The same for the symmetrised graph of view.graph(), keyed by
     * the view's fingerprint, which is symmetrize()'s: the entry (and
     * store artifact) a get() of the copy would use. A miss sorts the
     * plan from the graph itself (TilePlan(view, tiling)).
     */
    TilePlanPtr get(const SymmetrizedView &view, const TilingParams &tiling,
                    bool *cache_hit = nullptr);

    /**
     * Attach (or with nullptr detach) an on-disk second level. With a
     * store attached, a memory miss first tries a validated store
     * load (skipping the edge sort entirely) and a fresh
     * prepare is written through to the store, best-effort.
     *
     * Thread-safe (mutex-guarded), but swapping stores mid-flight
     * changes where concurrent misses persist — long-lived processes
     * (graphr_serve) attach one store at startup and keep it.
     */
    void setStore(std::shared_ptr<PlanStore> store);

    /** The attached store, if any. Thread-safe snapshot. */
    std::shared_ptr<PlanStore> store() const;

    /**
     * Request-scoped store override (tenant namespaces). While an
     * instance is alive on a thread, get() consults the overriding
     * store instead of the process-wide one AND keys memory entries
     * under that store's namespace, so two tenants running the same
     * graph never share a plan that one of them could have poisoned
     * via its own artifact directory. installPlanStore() becomes a
     * no-op on the thread — the request-scoped store wins over any
     * spec-carried directory.
     *
     * Strictly thread-local and non-reentrant (one override per
     * thread at a time); graphr_serve's worker tasks are the intended
     * scope. The override applies only to PlanCache::get calls made
     * on this thread — code that fans further work across its own
     * pool must snapshot effectiveStore() first.
     */
    class ScopedStoreOverride
    {
      public:
        explicit ScopedStoreOverride(std::shared_ptr<PlanStore> store);
        ~ScopedStoreOverride();

        ScopedStoreOverride(const ScopedStoreOverride &) = delete;
        ScopedStoreOverride &
        operator=(const ScopedStoreOverride &) = delete;
    };

    /** True while this thread runs under a ScopedStoreOverride. */
    static bool storeOverrideActive();

    /** The store get() would consult on this thread: the thread's
     *  override when active, the process-wide store otherwise. */
    std::shared_ptr<PlanStore> effectiveStore() const;

    /**
     * Drop every entry and reset the statistics (the store, if any,
     * stays attached). Plans are shared_ptrs, so entries still held
     * by running executors remain valid after eviction.
     */
    void clear() { cache_.clear(); }

    /** Cached plan count. */
    std::size_t size() const { return cache_.size(); }

    /** Change capacity (>= 1), evicting LRU entries if shrinking. */
    void setCapacity(std::size_t capacity)
    {
        cache_.setCapacity(capacity);
    }

    Stats stats() const { return cache_.stats(); }

    /**
     * Default entry count. Every backend of a dataset needs at most
     * two plans per tiling, the graph's and its symmetrised graph's
     * (multinode stripes are ranges of the graph's plan, not plans
     * of their own). So 32 entries hold the plans of sixteen
     * datasets: a multi-dataset `--backend all` sweep, or twice the
     * eight datasets `graphr_serve` keeps resident.
     */
    static constexpr std::size_t kDefaultCapacity = 32;

  private:
    struct Key
    {
        std::uint64_t fingerprint = 0;
        /** 0 for the process-wide store; a hash of the overriding
         *  store's directory under a ScopedStoreOverride, so tenant
         *  plans occupy disjoint memory entries. */
        std::uint64_t storeNamespace = 0;
        std::uint32_t crossbarDim = 0;
        std::uint32_t crossbarsPerGe = 0;
        std::uint32_t numGe = 0;
        std::uint32_t blockSize = 0;

        bool operator==(const Key &other) const = default;
    };

    struct KeyHash
    {
        std::size_t operator()(const Key &key) const;
    };

    /** get() of a graph whose fingerprint is @p fingerprint; a miss
     *  builds its plan with @p prepare (a TilePlan constructor). */
    template <typename Prepare>
    TilePlanPtr getPlan(std::uint64_t fingerprint,
                        const TilingParams &tiling, bool *cache_hit,
                        Prepare prepare);

    LruCache<Key, TilePlan, KeyHash> cache_;

    /** Optional durable second level (store/plan_store.hh). */
    mutable std::mutex storeMutex_;
    std::shared_ptr<PlanStore> store_;
};

} // namespace graphr

#endif // GRAPHR_GRAPHR_ENGINE_PLAN_CACHE_HH
