/**
 * @file
 * Small thread-safe keyed LRU used by the engine's PlanCache, the
 * driver's resident datasets and each graph's golden counts
 * (graph/graph_memo.hh).
 *
 * Values are shared_ptrs: eviction never invalidates a value a caller
 * still holds. Capacity is small by design — cached values (tile
 * plans, resolved graphs) are memory-heavy for large graphs.
 *
 * Built for the parallel sweep driver: lookups take a shared lock and
 * builds happen *outside* the cache lock with per-key
 * once-construction. The first thread to miss a key becomes its
 * builder; concurrent threads asking for the same key block on that
 * key's slot (never re-running the factory), while threads working on
 * different keys proceed independently. A failed build propagates its
 * exception to every waiter and drops the entry so later calls retry.
 */

#ifndef GRAPHR_COMMON_LRU_CACHE_HH
#define GRAPHR_COMMON_LRU_CACHE_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <list>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <utility>

namespace graphr
{

/** Hit/miss counters of one cache since construction or clear(). */
struct LruCacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
};

/** LRU map Key -> shared_ptr<const Value> with build-on-miss. */
template <typename Key, typename Value, typename Hash>
class LruCache
{
  public:
    using ValuePtr = std::shared_ptr<const Value>;

    explicit LruCache(std::size_t capacity)
        : capacity_(capacity > 0 ? capacity : 1)
    {
    }

    /**
     * Return the cached value for @p key, building it with
     * @p factory() on a miss. @p cache_hit, when non-null, reports
     * whether the value was reused (including a wait on a build
     * another thread had in flight).
     */
    template <typename Factory>
    ValuePtr
    getOrBuild(const Key &key, Factory &&factory,
               bool *cache_hit = nullptr)
    {
        SlotPtr slot;
        {
            // Fast path: shared-lock lookup, no LRU mutation.
            std::shared_lock<std::shared_mutex> lock(mutex_);
            const auto it = index_.find(key);
            if (it != index_.end())
                slot = it->second->second;
        }
        bool builder = false;
        if (slot == nullptr) {
            std::unique_lock<std::shared_mutex> lock(mutex_);
            const auto it = index_.find(key);
            if (it != index_.end()) {
                slot = it->second->second;
            } else {
                slot = std::make_shared<Slot>();
                lru_.emplace_front(key, slot);
                index_.emplace(key, lru_.begin());
                misses_.fetch_add(1, std::memory_order_relaxed);
                evictOverflow();
                builder = true;
            }
        }

        if (builder) {
            // Build outside the cache lock: only threads wanting this
            // key wait; other keys are untouched.
            ValuePtr value;
            try {
                value = factory();
                publish(slot, value, nullptr);
            } catch (...) {
                publish(slot, nullptr, std::current_exception());
                dropIfStillMapped(key, slot);
                throw;
            }
            if (cache_hit != nullptr)
                *cache_hit = false;
            return value;
        }

        // Hit — possibly on a build still in flight.
        ValuePtr value;
        {
            std::unique_lock<std::mutex> slot_lock(slot->mutex);
            slot->ready.wait(slot_lock, [&slot] { return slot->done; });
            if (slot->error)
                std::rethrow_exception(slot->error);
            value = slot->value;
        }
        touchFront(key);
        if (cache_hit != nullptr)
            *cache_hit = true;
        return value;
    }

    /** Drop every entry and reset the statistics. */
    void
    clear()
    {
        std::unique_lock<std::shared_mutex> lock(mutex_);
        lru_.clear();
        index_.clear();
        hits_.store(0, std::memory_order_relaxed);
        misses_.store(0, std::memory_order_relaxed);
    }

    std::size_t
    size() const
    {
        std::shared_lock<std::shared_mutex> lock(mutex_);
        return lru_.size();
    }

    /** Change capacity (>= 1), evicting LRU entries if shrinking. */
    void
    setCapacity(std::size_t capacity)
    {
        std::unique_lock<std::shared_mutex> lock(mutex_);
        capacity_ = capacity > 0 ? capacity : 1;
        evictOverflow();
    }

    LruCacheStats
    stats() const
    {
        return LruCacheStats{hits_.load(std::memory_order_relaxed),
                             misses_.load(std::memory_order_relaxed)};
    }

  private:
    /**
     * Per-key build rendezvous. Builders publish the value (or the
     * factory's exception) here; waiters block on `ready`. Waiters
     * hold the slot by shared_ptr, so eviction or clear() during an
     * in-flight build is harmless.
     */
    struct Slot
    {
        std::mutex mutex;
        std::condition_variable ready;
        bool done = false;
        ValuePtr value;
        std::exception_ptr error;
    };
    using SlotPtr = std::shared_ptr<Slot>;
    using LruList = std::list<std::pair<Key, SlotPtr>>;

    void
    publish(const SlotPtr &slot, ValuePtr value, std::exception_ptr err)
    {
        {
            std::lock_guard<std::mutex> slot_lock(slot->mutex);
            slot->value = std::move(value);
            slot->error = err;
            slot->done = true;
        }
        slot->ready.notify_all();
    }

    /** Remove a failed build's entry so later lookups retry. */
    void
    dropIfStillMapped(const Key &key, const SlotPtr &slot)
    {
        std::unique_lock<std::shared_mutex> lock(mutex_);
        const auto it = index_.find(key);
        if (it != index_.end() && it->second->second == slot) {
            lru_.erase(it->second);
            index_.erase(it);
        }
    }

    /**
     * Record a hit. The recency bump needs the exclusive lock (list
     * splice), but LRU order is a heuristic, not correctness — so
     * under contention the bump is simply dropped and the hit path
     * never blocks behind other workers. Serial callers always get
     * the lock, keeping eviction order deterministic for them.
     */
    void
    touchFront(const Key &key)
    {
        hits_.fetch_add(1, std::memory_order_relaxed);
        std::unique_lock<std::shared_mutex> lock(mutex_,
                                                 std::try_to_lock);
        if (!lock.owns_lock())
            return;
        const auto it = index_.find(key);
        if (it != index_.end())
            lru_.splice(lru_.begin(), lru_, it->second);
    }

    void
    evictOverflow() ///< caller holds mutex_ exclusively
    {
        while (lru_.size() > capacity_) {
            index_.erase(lru_.back().first);
            lru_.pop_back();
        }
    }

    mutable std::shared_mutex mutex_;
    std::size_t capacity_;
    LruList lru_; ///< front = most recently used
    std::unordered_map<Key, typename LruList::iterator, Hash> index_;
    /** Lock-free counters: the hit path must not take mutex_. */
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
};

} // namespace graphr

#endif // GRAPHR_COMMON_LRU_CACHE_HH
