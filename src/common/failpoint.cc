#include "failpoint.hh"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <mutex>

#include "common/logging.hh"
#include "perf/counters.hh"

namespace graphr::failpoint
{

namespace
{

/**
 * Every site compiled into the tree, sorted. configure() validates
 * names against this list so a typo in GRAPHR_FAILPOINTS fails loudly
 * instead of silently disarming a chaos run, and the chaos harness
 * sweeps exactly this list (graphr_serve --list-failpoints).
 */
constexpr std::string_view kKnownSites[] = {
    "cache.build.fail",  ///< PlanCache factory throws mid-build
    "net.accept.fail",     ///< accept() reports a transient error
    "net.conn.read.fail",  ///< connection read reports an I/O error
    "net.conn.write.fail", ///< connection write reports an I/O error
    "net.conn.write.short", ///< connection write transfers one byte
    "pool.task.slow",    ///< worker stalls `=ms` (default 50) pre-task
    "store.decode.fail", ///< compressed edge stream decode faults
    "store.fsync.fail",  ///< artifact temp-file fsync fails
    "store.open.fail",   ///< artifact file unreadable outright
    "store.read.eintr",  ///< artifact read gets EINTR
    "store.read.short",  ///< artifact read truncates early
    "store.rename.fail", ///< atomic publish rename fails
    "store.write.fail",  ///< artifact temp file cannot be opened
    "store.write.short", ///< artifact write transfers a single byte
};

/** One armed entry: the parsed spec plus its live hit/fire counts. */
struct Entry
{
    std::uint64_t nth = 1;      ///< 1-based hit index of first firing
    std::uint64_t count = 1;    ///< firings allowed (0 = unlimited)
    bool hasArg = false;
    std::uint64_t arg = 0;
    std::uint64_t hits = 0;
    std::uint64_t fires = 0;
};

struct Registry
{
    std::mutex mutex;
    std::map<std::string, Entry, std::less<>> entries;
};

Registry &
registry()
{
    static Registry r;
    return r;
}

bool
isKnownSite(std::string_view site)
{
    return std::binary_search(std::begin(kKnownSites),
                              std::end(kKnownSites), site);
}

std::uint64_t
parseCount(const std::string &entry, std::string_view what,
           std::string_view text)
{
    if (text.empty()) {
        throw FailpointError("failpoint entry '" + entry +
                             "': empty " + std::string(what));
    }
    std::uint64_t value = 0;
    for (const char c : text) {
        if (c < '0' || c > '9') {
            throw FailpointError("failpoint entry '" + entry + "': " +
                                 std::string(what) +
                                 " must be a number or '*'");
        }
        value = value * 10 + static_cast<std::uint64_t>(c - '0');
    }
    return value;
}

/** Parse one `site[:count][@nth][=arg]` entry into the map. */
void
parseEntry(const std::string &entry,
           std::map<std::string, Entry, std::less<>> &out)
{
    std::string_view rest = entry;
    Entry parsed;

    const std::size_t eq = rest.find('=');
    if (eq != std::string_view::npos) {
        parsed.hasArg = true;
        parsed.arg = parseCount(entry, "arg", rest.substr(eq + 1));
        rest = rest.substr(0, eq);
    }
    const std::size_t at = rest.find('@');
    std::string_view nth_text;
    if (at != std::string_view::npos) {
        nth_text = rest.substr(at + 1);
        rest = rest.substr(0, at);
    }
    const std::size_t colon = rest.find(':');
    std::string_view count_text;
    if (colon != std::string_view::npos) {
        count_text = rest.substr(colon + 1);
        rest = rest.substr(0, colon);
    }

    if (!count_text.empty() || colon != std::string_view::npos) {
        parsed.count = count_text == "*"
                           ? 0
                           : parseCount(entry, "count", count_text);
        if (parsed.count == 0 && count_text != "*") {
            throw FailpointError("failpoint entry '" + entry +
                                 "': count must be >= 1 or '*'");
        }
    }
    if (!nth_text.empty() || at != std::string_view::npos) {
        if (nth_text == "*") {
            // `@*`: fire on every hit, whatever the count said.
            parsed.nth = 1;
            parsed.count = 0;
        } else {
            parsed.nth = parseCount(entry, "nth", nth_text);
            if (parsed.nth == 0) {
                throw FailpointError("failpoint entry '" + entry +
                                     "': nth is 1-based");
            }
        }
    }

    if (rest.empty())
        throw FailpointError("failpoint entry '" + entry +
                             "': empty site name");
    if (!isKnownSite(rest)) {
        std::string known;
        for (const std::string_view site : kKnownSites)
            known += " " + std::string(site);
        throw FailpointError("unknown failpoint site '" +
                             std::string(rest) + "' (known:" + known +
                             ")");
    }
    out[std::string(rest)] = parsed;
}

/** Reads GRAPHR_FAILPOINTS once, before main() (a bad spec is a user
 *  error: fail loudly at startup, not at the first armed site). */
const bool g_envLoaded = [] {
    const char *spec = std::getenv("GRAPHR_FAILPOINTS");
    if (spec == nullptr || spec[0] == '\0')
        return false;
    try {
        configure(spec);
    } catch (const FailpointError &err) {
        GRAPHR_FATAL("GRAPHR_FAILPOINTS: ", err.what());
    }
    return true;
}();

} // namespace

namespace detail
{

std::atomic<bool> g_armed{false};

bool
shouldFire(std::string_view site, std::uint64_t *arg)
{
    GRAPHR_ASSERT(isKnownSite(site),
                  "unregistered failpoint site ", site);
    Registry &r = registry();
    bool fire = false;
    {
        const std::lock_guard<std::mutex> lock(r.mutex);
        const auto it = r.entries.find(site);
        if (it == r.entries.end())
            return false;
        Entry &entry = it->second;
        ++entry.hits;
        fire = entry.hits >= entry.nth &&
               (entry.count == 0 || entry.fires < entry.count);
        if (fire) {
            ++entry.fires;
            if (entry.hasArg && arg != nullptr)
                *arg = entry.arg;
        }
    }
    if (fire) {
        // Cached reference: the registry lookup happens once.
        static perf::Counter &fires =
            perf::Registry::instance().counter("failpoint.fires");
        fires.add();
    }
    return fire;
}

} // namespace detail

void
configure(const std::string &spec)
{
    std::map<std::string, Entry, std::less<>> parsed;
    std::size_t begin = 0;
    while (begin <= spec.size()) {
        std::size_t end = spec.find(',', begin);
        if (end == std::string::npos)
            end = spec.size();
        const std::string entry = spec.substr(begin, end - begin);
        if (!entry.empty())
            parseEntry(entry, parsed);
        begin = end + 1;
    }

    Registry &r = registry();
    const std::lock_guard<std::mutex> lock(r.mutex);
    r.entries = std::move(parsed);
    detail::g_armed.store(!r.entries.empty(),
                          std::memory_order_relaxed);
}

void
disarmAll()
{
    Registry &r = registry();
    const std::lock_guard<std::mutex> lock(r.mutex);
    r.entries.clear();
    detail::g_armed.store(false, std::memory_order_relaxed);
}

std::span<const std::string_view>
knownSites()
{
    return kKnownSites;
}

std::vector<SiteStats>
stats()
{
    Registry &r = registry();
    const std::lock_guard<std::mutex> lock(r.mutex);
    std::vector<SiteStats> out;
    out.reserve(r.entries.size());
    for (const auto &[site, entry] : r.entries)
        out.push_back(SiteStats{site, entry.hits, entry.fires});
    return out;
}

} // namespace graphr::failpoint
