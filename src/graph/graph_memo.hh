/**
 * @file
 * Build-once products of one graph.
 *
 * GraphR computes what the graph alone determines once, offline, and
 * reuses it on every run. A GraphMemo holds those products for one
 * CooGraph: its fingerprint, whether its weights are all 1.0, the
 * golden iteration and round counts the timing-mode runners charge,
 * the frontier schedules of its add-op relaxations (WCC's among
 * them; SSSP over unit weights reads BFS's), and the edge count and
 * fingerprint of its symmetrised graph (SymmetrizedView). It holds
 * no copy of the edges: WCC reads the graph's own edges both ways.
 * The graph owns its memo (CooGraph::memo()), so the products live
 * exactly as long as the graph: a resident graphr_serve dataset pays
 * for each once across all requests, a one-shot sweep once per
 * sweep, and eviction frees them with the graph.
 *
 * Each product costs about one streaming pass over the edges plus
 * its algorithm's own work: the fingerprint is an XXH64 of the edge
 * records, golden PageRank pulls over a 4-byte-per-edge in-edge
 * index, the BFS and WCC schedules relax over neighbour ids only
 * (SSSP over id-weight entries), and the WCC round count and the
 * symmetrised fingerprint read the graph's own edges, each followed
 * by its reverse, not a copy.
 *
 * The memo stores; it does not compute. Callers pass the pure
 * function that builds a product (the golden-count and schedule
 * accessors in src/algorithms/ wrap the golden algorithms and
 * RelaxationSweep this way), and each product is built on its first
 * request only, concurrent first requests waiting for that one
 * build. Golden counts and schedules are keyed by their parameters,
 * so they are kept in a small LRU per product
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
#include <span>
#include <vector>

#include "common/lru_cache.hh"
#include "graph/coo.hh"

namespace graphr
{

/**
 * The frontier of one synchronous relaxation (BFS, SSSP, WCC): how
 * many rounds it runs and each round's active vertex ids, ascending,
 * in one flat array with round offsets. A schedule is a product of
 * the graph and the relaxation's start alone, so every runner of the
 * graph reads the same one instead of relaxing again.
 *
 * Memory bound: the ids and offsets are kept only while they fit
 * 1/kGoldenCountsPerProduct of the graph's edge bytes, so the
 * schedules one memo product may hold never outweigh the graph.
 * Past that cap the schedule drops its ids and keeps counting rounds
 * (recorded() turns false); runners then replay such a relaxation
 * live.
 */
class FrontierSchedule
{
  public:
    /** The cap of a schedule of a relaxation over @p num_edges
     *  edges (a graph's, or for WCC its symmetrised count):
     *  num_edges * sizeof(Edge) / kGoldenCountsPerProduct bytes. */
    static std::size_t capFor(EdgeId num_edges);

    /** An empty schedule that keeps ids while they fit @p cap_bytes. */
    explicit FrontierSchedule(std::size_t cap_bytes);

    /**
     * Append the next round, whose active ids @p ids are ascending.
     * A round that would take the schedule past its cap drops every
     * id kept so far; later rounds only count.
     */
    void addRound(std::span<const VertexId> ids);

    /** Release the growth slack once the last round is in. */
    void finish();

    /** Rounds the relaxation ran. */
    int rounds() const { return rounds_; }

    /** Whether every round's ids are kept (false past the cap). */
    bool recorded() const { return recorded_; }

    /** Round @p r's active ids, ascending; recorded() only. */
    std::span<const VertexId> round(int r) const;

    /** Bytes the kept ids and round offsets take (at most the cap). */
    std::size_t bytes() const;

    /** The cap this schedule's ids must fit. */
    std::size_t cap() const { return capBytes_; }

  private:
    std::size_t capBytes_;
    int rounds_ = 0;
    bool recorded_ = true;
    std::vector<VertexId> ids_;
    /** Round r's ids are ids_[offsets_[r], offsets_[r + 1]). */
    std::vector<std::size_t> offsets_{0};
};

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
            kWccRounds,
            kCount, ///< number of products, not a product
        };

        Product product = Product::kPageRankIterations;
        /** The product's parameters as raw words (e.g. bit-cast
         *  doubles); unused words stay 0. */
        std::array<std::uint64_t, 3> params{};

        bool operator==(const GoldenKey &) const = default;
    };

    /** Names one frontier schedule: the relaxation and its source. */
    struct ScheduleKey
    {
        enum class Relaxation : std::uint8_t
        {
            kBfs,
            kSssp,
            kWcc, ///< every vertex starts active; source unused (0)
            kCount, ///< number of relaxations, not a relaxation
        };

        Relaxation relaxation = Relaxation::kBfs;
        VertexId source = 0;

        bool operator==(const ScheduleKey &) const = default;
    };

    /** Golden counts, and schedules, kept per product. Past this, the
     *  least recently used one is dropped and rebuilt if asked for
     *  again, so a client that varies the BFS source cannot grow a
     *  resident graph's memo, nor evict its PageRank count. */
    static constexpr std::size_t kGoldenCountsPerProduct = 16;

    /** The graph's fingerprint; @p fold runs on the first call only. */
    std::uint64_t fingerprint(const std::function<std::uint64_t()> &fold);

    /** Whether every weight is 1.0 (CooGraph::unitWeights()); @p scan
     *  runs on the first call only. */
    bool unitWeights(const std::function<bool()> &scan);

    /**
     * The golden count named by @p key; @p compute runs on the first
     * call for that key only, unless kGoldenCountsPerProduct later
     * keys of its product evicted it. Each call publishes one
     * golden_cache.hits or golden_cache.misses count.
     */
    int goldenCount(const GoldenKey &key,
                    const std::function<int()> &compute);

    /**
     * The frontier schedule named by @p key; @p build runs on the
     * first call for that key only, unless kGoldenCountsPerProduct
     * later keys of its relaxation evicted it. Each call publishes
     * one frontier_cache.hits or frontier_cache.misses count.
     */
    std::shared_ptr<const FrontierSchedule>
    frontierSchedule(const ScheduleKey &key,
                     const std::function<FrontierSchedule()> &build);

    /** The symmetrised graph's edge count (SymmetrizedView);
     *  @p count runs on the first call only. */
    EdgeId symmetrizedEdges(const std::function<EdgeId()> &count);

    /** The symmetrised graph's fingerprint (SymmetrizedView);
     *  @p fold runs on the first call only. */
    std::uint64_t
    symmetrizedFingerprint(const std::function<std::uint64_t()> &fold);

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
    struct ScheduleKeyHash
    {
        std::size_t operator()(const ScheduleKey &key) const;
    };
    using GoldenCounts = LruCache<GoldenKey, int, GoldenKeyHash>;
    using Schedules =
        LruCache<ScheduleKey, FrontierSchedule, ScheduleKeyHash>;

    Once<std::uint64_t> fingerprint_;
    Once<bool> unitWeights_;
    Once<EdgeId> symmetrizedEdges_;
    Once<std::uint64_t> symmetrizedFingerprint_;
    /** One LRU per product (indexed by GoldenKey::Product). */
    std::array<GoldenCounts,
               static_cast<std::size_t>(GoldenKey::Product::kCount)>
        golden_{GoldenCounts(kGoldenCountsPerProduct),
                GoldenCounts(kGoldenCountsPerProduct)};
    /** One LRU per relaxation (indexed by ScheduleKey::Relaxation). */
    std::array<Schedules,
               static_cast<std::size_t>(ScheduleKey::Relaxation::kCount)>
        schedules_{Schedules(kGoldenCountsPerProduct),
                   Schedules(kGoldenCountsPerProduct),
                   Schedules(kGoldenCountsPerProduct)};
};

} // namespace graphr

#endif // GRAPHR_GRAPH_GRAPH_MEMO_HH
