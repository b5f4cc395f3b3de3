/**
 * @file
 * Dataset resolver: one string names any graph the driver can run on.
 *
 * Accepted spec forms:
 *  - Table-3 names: "wiki-vote", "WV", "orkut", "netflix", ... —
 *    matched case-insensitively against the DatasetId table with
 *    '-'/'_' ignored; generated at the requested scale.
 *  - Generator specs: "rmat:vertices=1024,edges=8192,seed=1",
 *    "er:vertices=...,edges=...", "grid:width=8,height=8",
 *    "chain:n=16", "star:n=32", "complete:n=8",
 *    "bipartite:users=64,items=32,ratings=512". A size below the
 *    generator's minimum, a vertex count past the 32-bit id range, a
 *    non-finite maxweight or R-MAT probabilities that cannot draw an
 *    edge throw DriverError naming the parameter.
 *  - Files: "file:path" explicitly, or any spec containing a '/' —
 *    ".bin"/".grph" loads the binary format, anything else the text
 *    edge list (graph/io).
 *
 * Unknown names throw DriverError listing what is known.
 *
 * DatasetCache keeps resolved datasets resident for long-lived
 * processes, so each named graph is resolved and fingerprinted once.
 */

#ifndef GRAPHR_DRIVER_DATASET_HH
#define GRAPHR_DRIVER_DATASET_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/lru_cache.hh"
#include "driver/params.hh"
#include "graph/coo.hh"

namespace graphr::driver
{

/** A graph resolved from a dataset spec. */
struct ResolvedDataset
{
    std::string name; ///< canonical name for reports
    CooGraph graph;
    /** True for user->item rating graphs (Netflix, bipartite:...). */
    bool bipartite = false;
    /** Users in a bipartite graph (max src + 1); 0 otherwise. */
    VertexId numUsers = 0;
};

/**
 * Resolve a dataset spec string.
 *
 * @param spec  see file comment for the accepted forms
 * @param scale Table-3 datasets are generated at 1/scale of the
 *              paper's edge count (>= 1); ignored for other forms
 * @param seed  generator seed for table and generator specs (a
 *              spec-level seed=... overrides it)
 */
ResolvedDataset resolveDataset(const std::string &spec,
                               double scale = 1.0,
                               std::uint64_t seed = 42);

/** Table-3 dataset names ("wiki-vote", ...) the resolver accepts. */
std::vector<std::string> knownDatasetNames();

/** A resolved dataset shared by every run that names it. */
using DatasetPtr = std::shared_ptr<const ResolvedDataset>;

/**
 * Resident resolved datasets: an LRU keyed by the exact (spec, scale,
 * seed) a run names, so a long-lived process (graphr_serve) resolves
 * and fingerprints each graph once instead of on every request that
 * names it. Entries are immutable and shared: eviction never
 * invalidates a dataset a running request still holds.
 *
 * Generator and table specs are pure functions of that key. A
 * file-backed spec is keyed by the file's identity too (device,
 * inode, size, modification time), so a rewritten file is read again
 * on its next request instead of being served stale.
 *
 * Thread-safe, with LruCache's build-once contract: concurrent calls
 * for one missing dataset resolve it once and the others wait for it;
 * a failed resolve reaches every waiter and leaves nothing cached.
 */
class DatasetCache
{
  public:
    using Stats = LruCacheStats;

    /** Keeps at most @p capacity (>= 1) datasets resident. */
    explicit DatasetCache(std::size_t capacity);

    /**
     * The dataset resolveDataset(spec, scale, seed) returns, resolved,
     * fingerprinted and made resident on a miss. @p cache_hit, when
     * non-null, reports whether a resident (or in-flight) entry
     * answered. Throws what resolveDataset throws.
     */
    DatasetPtr get(const std::string &spec, double scale = 1.0,
                   std::uint64_t seed = 42, bool *cache_hit = nullptr);

    /** Resident dataset count. */
    std::size_t size() const { return cache_.size(); }

    /** Hits and misses since construction or clear(). */
    Stats stats() const { return cache_.stats(); }

    /** Drop every resident dataset and reset the statistics. */
    void clear() { cache_.clear(); }

  private:
    struct Key
    {
        std::string spec;
        double scale = 1.0;
        std::uint64_t seed = 0;
        /** The file's identity for a file-backed spec; 0 otherwise. */
        std::uint64_t device = 0;
        std::uint64_t inode = 0;
        std::uint64_t size = 0;
        std::int64_t mtimeNs = 0;

        bool operator==(const Key &other) const = default;
    };

    struct KeyHash
    {
        std::size_t operator()(const Key &key) const;
    };

    LruCache<Key, ResolvedDataset, KeyHash> cache_;
};

/**
 * resolveDataset(spec, scale, seed) through @p datasets when it is
 * non-null, otherwise resolved afresh for the caller alone.
 */
DatasetPtr resolveShared(const std::string &spec, double scale,
                         std::uint64_t seed, DatasetCache *datasets);

} // namespace graphr::driver

#endif // GRAPHR_DRIVER_DATASET_HH
