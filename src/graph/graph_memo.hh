/**
 * @file
 * Build-once products of one graph.
 *
 * GraphR computes what the graph alone determines once, offline, and
 * reuses it on every run. A GraphMemo holds those products for one
 * CooGraph: its fingerprint, the golden iteration and round counts
 * the timing-mode runners charge, and the symmetrised copy WCC runs
 * on. The graph owns its memo (CooGraph::memo()), so the products
 * live exactly as long as the graph: a resident graphr_serve dataset
 * pays for each once across all requests, a one-shot sweep once per
 * sweep, and eviction frees them with the graph.
 *
 * The memo stores; it does not compute. Callers pass the pure
 * function that builds a product (the golden-count accessors in
 * src/algorithms/ wrap the golden algorithms this way), and each
 * product is built on its first request only, concurrent first
 * requests waiting for that one build. Golden counts are keyed by
 * their parameters, so they are kept in a small LRU per product
 * (kGoldenCountsPerProduct): the memo's size stays bounded however
 * many sources or parameter sets clients send.
 */

#ifndef GRAPHR_GRAPH_GRAPH_MEMO_HH
#define GRAPHR_GRAPH_GRAPH_MEMO_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>

#include "common/lru_cache.hh"
#include "graph/coo.hh"

namespace graphr
{

/** The build-once products of one graph (see the file comment). */
class GraphMemo
{
  public:
    /** Names one golden count: the product and its parameters. */
    struct GoldenKey
    {
        enum class Product : std::uint8_t
        {
            kPageRankIterations,
            kBfsRounds,
            kSsspRounds,
            kWccRounds,
            kCount, ///< number of products, not a product
        };

        Product product = Product::kPageRankIterations;
        /** The product's parameters as raw words (e.g. bit-cast
         *  doubles, a source vertex); unused words stay 0. */
        std::array<std::uint64_t, 3> params{};

        bool operator==(const GoldenKey &) const = default;
    };

    /** Golden counts kept per product. Past this, the least recently
     *  used count is dropped and recomputed if asked for again, so a
     *  client that varies the BFS source cannot grow a resident
     *  graph's memo, nor evict its PageRank count. */
    static constexpr std::size_t kGoldenCountsPerProduct = 16;

    /** The graph's fingerprint; @p fold runs on the first call only. */
    std::uint64_t fingerprint(const std::function<std::uint64_t()> &fold);

    /**
     * The golden count named by @p key; @p compute runs on the first
     * call for that key only, unless kGoldenCountsPerProduct later
     * keys of its product evicted it. Each call publishes one
     * golden_cache.hits or golden_cache.misses count.
     */
    int goldenCount(const GoldenKey &key,
                    const std::function<int()> &compute);

    /**
     * The graph's symmetrised copy; @p build runs on the first call
     * only, and each run publishes one graph.symmetrizations count.
     * The copy has its own memo, so its fingerprint is folded once.
     */
    std::shared_ptr<const CooGraph>
    symmetrized(const std::function<CooGraph()> &build);

  private:
    /** One product slot: built under its own mutex, so concurrent
     *  first callers wait for one build; a build that throws leaves
     *  the slot empty for the next caller. */
    template <typename T>
    struct Once
    {
        std::mutex mutex;
        std::optional<T> value;

        /** The value, built on the first call; *built says whether
         *  this call built it. */
        T
        get(const std::function<T()> &build, bool *built)
        {
            const std::lock_guard<std::mutex> lock(mutex);
            *built = !value.has_value();
            if (*built)
                value = build();
            return *value;
        }
    };

    struct GoldenKeyHash
    {
        std::size_t operator()(const GoldenKey &key) const;
    };
    using GoldenCounts = LruCache<GoldenKey, int, GoldenKeyHash>;

    Once<std::uint64_t> fingerprint_;
    Once<std::shared_ptr<const CooGraph>> symmetrized_;
    /** One LRU per product (indexed by GoldenKey::Product). */
    std::array<GoldenCounts,
               static_cast<std::size_t>(GoldenKey::Product::kCount)>
        golden_{GoldenCounts(kGoldenCountsPerProduct),
                GoldenCounts(kGoldenCountsPerProduct),
                GoldenCounts(kGoldenCountsPerProduct),
                GoldenCounts(kGoldenCountsPerProduct)};
};

} // namespace graphr

#endif // GRAPHR_GRAPH_GRAPH_MEMO_HH
