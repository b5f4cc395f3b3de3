#include "dataset.hh"

#include <algorithm>
#include <bit>
#include <cctype>
#include <cmath>
#include <limits>
#include <optional>
#include <utility>

#include <sys/stat.h>

#include "common/checksum.hh"
#include "graph/datasets.hh"
#include "graph/generator.hh"
#include "graph/io.hh"
#include "perf/counters.hh"

namespace graphr::driver
{

namespace
{

/** Lowercase with '-' and '_' removed: "Wiki-Vote" -> "wikivote". */
std::string
canonical(const std::string &name)
{
    std::string out;
    for (const char c : name) {
        if (c == '-' || c == '_')
            continue;
        out += static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    }
    return out;
}

/** Kebab-case of a table full name: "WikiVote" -> "wiki-vote". */
std::string
kebab(const std::string &name)
{
    std::string out;
    for (const char c : name) {
        if (std::isupper(static_cast<unsigned char>(c)) && !out.empty())
            out += '-';
        out += static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    }
    return out;
}

const DatasetInfo *
findTableEntry(const std::string &spec)
{
    const std::string want = canonical(spec);
    for (const DatasetInfo &info : allDatasets()) {
        if (want == canonical(info.shortName) ||
            want == canonical(info.fullName))
            return &info;
    }
    return nullptr;
}

/** Highest source id + 1 (the user count of a user->item graph). */
VertexId
maxSrcPlusOne(const CooGraph &graph)
{
    VertexId users = 0;
    for (const Edge &e : graph.edges())
        users = std::max(users, e.src + 1);
    return users;
}

/** Throws DriverError naming generator parameter @p name unless
 *  @p value >= @p min. */
void
requireAtLeast(const std::string &kind, const std::string &name,
               std::uint64_t value, std::uint64_t min)
{
    if (value < min) {
        throw DriverError("dataset spec '" + kind + "': " + name +
                          " must be >= " + std::to_string(min) +
                          " (got " + std::to_string(value) + ")");
    }
}

/** Throws DriverError unless @p count, the vertex count generator
 *  parameters @p what give, fits the 32-bit vertex id range. */
void
requireVertexIdRange(const std::string &kind, const std::string &what,
                     std::uint64_t count)
{
    if (count > std::numeric_limits<VertexId>::max()) {
        throw DriverError(
            "dataset spec '" + kind + "': " + what + " = " +
            std::to_string(count) + " vertices exceeds the 32-bit " +
            "vertex id limit of " +
            std::to_string(std::numeric_limits<VertexId>::max()));
    }
}

/** Edge weights are drawn from [1, maxweight]; NaN or infinity would
 *  reach the traversals as a weight no relaxation accepts. */
void
requireFiniteMaxWeight(const std::string &kind, double max_weight)
{
    if (!std::isfinite(max_weight)) {
        throw DriverError("dataset spec '" + kind +
                          "': maxweight must be a finite number");
    }
}

/** Reject R-MAT parameters makeRmat() would abort on or loop on
 *  forever (the reachability rule is rmatCanDrawEdge()'s). */
void
checkRmat(const RmatParams &p)
{
    requireAtLeast("rmat", "vertices", p.numVertices, 2);
    if (p.numVertices > VertexId{1} << 31) {
        throw DriverError("dataset spec 'rmat': vertices must be <= " +
                          std::to_string(VertexId{1} << 31) +
                          ", since R-MAT pads it to a power of two");
    }
    requireFiniteMaxWeight("rmat", p.maxWeight);
    const std::pair<const char *, double> quadrants[] = {
        {"a", p.a}, {"b", p.b}, {"c", p.c}, {"d", p.d}};
    for (const auto &[name, value] : quadrants) {
        if (!(value >= 0.0)) { // negated so NaN is rejected too
            throw DriverError(std::string("dataset spec 'rmat': ") +
                              name + " must be >= 0");
        }
    }
    const double sum = p.a + p.b + p.c + p.d;
    if (!(std::abs(sum - 1.0) < 1e-6)) {
        throw DriverError("dataset spec 'rmat': a+b+c+d must sum to 1 "
                          "(got " + std::to_string(sum) + ")");
    }
    if (!rmatCanDrawEdge(p)) {
        throw DriverError(
            "dataset spec 'rmat': quadrant probabilities a,b,c,d can "
            "never draw an edge between two distinct vertices below "
            "vertices=" + std::to_string(p.numVertices) +
            ". Each level draws r in [0,1) in steps of 2^-53 and picks "
            "a for r < a, b for r < a+b, c for r < a+b+c, else d; an "
            "edge needs b or c to be picked, and unless vertices is a "
            "power of two, also a, or both b and c");
    }
}

ResolvedDataset
resolveGenerator(const std::string &kind, const ParamMap &params,
                 std::uint64_t seed)
{
    ResolvedDataset out;
    out.name = kind;
    if (kind == "rmat") {
        RmatParams p;
        p.numVertices = params.getU32("vertices", p.numVertices);
        p.numEdges = params.getU64("edges", p.numEdges);
        p.a = params.getDouble("a", p.a);
        p.b = params.getDouble("b", p.b);
        p.c = params.getDouble("c", p.c);
        p.d = params.getDouble("d", p.d);
        p.maxWeight = params.getDouble("maxweight", p.maxWeight);
        p.seed = params.getU64("seed", seed);
        params.rejectUnread("dataset spec 'rmat'");
        checkRmat(p);
        out.graph = makeRmat(p);
    } else if (kind == "er") {
        const VertexId v =
            params.getU32("vertices", 1024);
        const EdgeId e = params.getU64("edges", 8192);
        const double w = params.getDouble("maxweight", 1.0);
        const std::uint64_t s = params.getU64("seed", seed);
        params.rejectUnread("dataset spec 'er'");
        requireAtLeast(kind, "vertices", v, 2);
        requireFiniteMaxWeight(kind, w);
        out.graph = makeErdosRenyi(v, e, s, w);
    } else if (kind == "grid") {
        const VertexId width =
            params.getU32("width", 16);
        const VertexId height =
            params.getU32("height", 16);
        const double w = params.getDouble("maxweight", 10.0);
        const std::uint64_t s = params.getU64("seed", seed);
        params.rejectUnread("dataset spec 'grid'");
        requireAtLeast(kind, "width", width, 1);
        requireAtLeast(kind, "height", height, 1);
        requireFiniteMaxWeight(kind, w);
        requireVertexIdRange(kind, "width*height",
                             std::uint64_t{width} * height);
        out.graph = makeGrid2d(width, height, s, w);
    } else if (kind == "chain") {
        const VertexId n = params.getU32("n", 16);
        params.rejectUnread("dataset spec 'chain'");
        requireAtLeast(kind, "n", n, 1);
        out.graph = makeChain(n);
    } else if (kind == "star") {
        const VertexId n = params.getU32("n", 16);
        params.rejectUnread("dataset spec 'star'");
        requireAtLeast(kind, "n", n, 2);
        out.graph = makeStar(n);
    } else if (kind == "complete") {
        const VertexId n = params.getU32("n", 8);
        params.rejectUnread("dataset spec 'complete'");
        requireAtLeast(kind, "n", n, 2);
        out.graph = makeComplete(n);
    } else if (kind == "bipartite") {
        const VertexId users =
            params.getU32("users", 64);
        const VertexId items =
            params.getU32("items", 32);
        const EdgeId ratings = params.getU64("ratings", 512);
        const std::uint64_t s = params.getU64("seed", seed);
        params.rejectUnread("dataset spec 'bipartite'");
        requireAtLeast(kind, "users", users, 1);
        requireAtLeast(kind, "items", items, 1);
        requireVertexIdRange(kind, "users+items",
                             std::uint64_t{users} + items);
        out.graph = makeBipartiteRatings(users, items, ratings, s);
        out.bipartite = true;
        out.numUsers = users;
    } else {
        std::string msg =
            "unknown dataset '" + kind + "' (known: ";
        for (const std::string &n : knownDatasetNames())
            msg += n + " ";
        msg += "rmat: er: grid: chain: star: complete: bipartite: "
               "file:<path>)";
        throw DriverError(msg);
    }
    return out;
}

/** The path a file-backed spec names: "file:<path>", or any spec
 *  with a '/' and no ':'. */
std::optional<std::string>
filePath(const std::string &spec)
{
    if (spec.starts_with("file:"))
        return spec.substr(5);
    if (spec.find(':') == std::string::npos &&
        spec.find('/') != std::string::npos)
        return spec;
    return std::nullopt;
}

ResolvedDataset
loadFile(const std::string &path)
{
    ResolvedDataset out;
    // Report under the file name, not the whole path.
    const std::size_t slash = path.find_last_of('/');
    out.name =
        slash == std::string::npos ? path : path.substr(slash + 1);
    const bool binary = path.size() >= 4 &&
                        (path.ends_with(".bin") || path.ends_with(".grph"));
    try {
        out.graph = binary ? loadBinary(path) : loadEdgeListText(path);
    } catch (const GraphIoError &err) {
        throw DriverError("cannot load dataset file '" + path +
                          "': " + err.what());
    }
    return out;
}

} // namespace

ResolvedDataset
resolveDataset(const std::string &spec, double scale, std::uint64_t seed)
{
    if (spec.empty())
        throw DriverError("empty dataset spec");
    if (!(scale >= 1.0)) // negated so NaN is rejected too
        throw DriverError("dataset scale must be >= 1");

    // Explicit file prefix or a path-looking spec.
    if (const std::optional<std::string> path = filePath(spec))
        return loadFile(*path);

    const std::size_t colon = spec.find(':');
    const std::string kind =
        colon == std::string::npos ? spec : spec.substr(0, colon);
    const ParamMap params =
        colon == std::string::npos
            ? ParamMap{}
            : ParamMap::parse(spec.substr(colon + 1));

    if (const DatasetInfo *info = findTableEntry(kind)) {
        // Table names take spec-level scale/seed overrides:
        // "wiki-vote:scale=8,seed=3".
        const double eff_scale = params.getDouble("scale", scale);
        const std::uint64_t eff_seed = params.getU64("seed", seed);
        params.rejectUnread("dataset '" + kebab(info->fullName) + "'");
        if (!(eff_scale >= 1.0))
            throw DriverError("dataset scale must be >= 1");
        ResolvedDataset out;
        out.name = kebab(info->fullName);
        out.graph = makeDataset(info->id, eff_scale, eff_seed);
        out.bipartite = info->bipartite;
        if (out.bipartite)
            out.numUsers = maxSrcPlusOne(out.graph);
        return out;
    }

    return resolveGenerator(kind, params, seed);
}

std::vector<std::string>
knownDatasetNames()
{
    std::vector<std::string> names;
    for (const DatasetInfo &info : allDatasets())
        names.push_back(kebab(info.fullName));
    return names;
}

std::size_t
DatasetCache::KeyHash::operator()(const Key &key) const
{
    Fnv1a64 h;
    h.update(key.spec.data(), key.spec.size());
    h.updateWord(std::bit_cast<std::uint64_t>(key.scale));
    h.updateWord(key.seed);
    h.updateWord(key.inode);
    h.updateWord(static_cast<std::uint64_t>(key.mtimeNs));
    return static_cast<std::size_t>(h.digest());
}

DatasetCache::DatasetCache(std::size_t capacity) : cache_(capacity) {}

DatasetPtr
DatasetCache::get(const std::string &spec, double scale,
                  std::uint64_t seed, bool *cache_hit)
{
    static perf::Counter &hits =
        perf::Registry::instance().counter("dataset_cache.hits");
    static perf::Counter &misses =
        perf::Registry::instance().counter("dataset_cache.misses");
    Key key{spec, scale, seed};
    if (const std::optional<std::string> path = filePath(spec)) {
        // A file that cannot be stat'ed keeps a zero identity; the
        // loader then reports why it cannot be read.
        struct stat st = {};
        if (::stat(path->c_str(), &st) == 0) {
            key.device = static_cast<std::uint64_t>(st.st_dev);
            key.inode = static_cast<std::uint64_t>(st.st_ino);
            key.size = static_cast<std::uint64_t>(st.st_size);
            key.mtimeNs =
                static_cast<std::int64_t>(st.st_mtim.tv_sec) *
                    1000000000 +
                st.st_mtim.tv_nsec;
        }
    }
    bool hit = false;
    DatasetPtr dataset = cache_.getOrBuild(
        key,
        [&spec, scale, seed] {
            auto resolved = std::make_shared<ResolvedDataset>(
                resolveDataset(spec, scale, seed));
            // Fingerprint while still private: every later plan
            // lookup on the shared graph reads the memo.
            resolved->graph.fingerprint();
            return DatasetPtr(std::move(resolved));
        },
        &hit);
    (hit ? hits : misses).add();
    if (cache_hit != nullptr)
        *cache_hit = hit;
    return dataset;
}

DatasetPtr
resolveShared(const std::string &spec, double scale, std::uint64_t seed,
              DatasetCache *datasets)
{
    if (datasets != nullptr)
        return datasets->get(spec, scale, seed);
    return std::make_shared<const ResolvedDataset>(
        resolveDataset(spec, scale, seed));
}

} // namespace graphr::driver
