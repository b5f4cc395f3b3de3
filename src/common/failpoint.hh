/**
 * @file
 * Deterministic fault-injection points (failpoints).
 *
 * A failpoint is a named site in a hardened code path — a store read,
 * a socket write, a plan build — that can be told to fail (or stall)
 * on exactly the Nth time it is reached. Unlike probabilistic fault
 * injection, every run with the same spec takes the same branches, so
 * a chaos test that fires `store.read.short` on the third read fails
 * the same read every time and its assertions are exact.
 *
 * Activation comes from the `GRAPHR_FAILPOINTS` environment variable
 * (read once at process start) or from failpoint::configure() in
 * tests. The spec is a comma-separated list of entries:
 *
 *   site[:count][@nth][=arg]
 *
 *   site    one of the compiled-in site names (knownSites());
 *           unknown names are rejected loudly — a typo must not
 *           silently disarm a chaos run
 *   count   how many times to fire (default 1, `*` = every eligible
 *           hit)
 *   @nth    1-based hit index of the first firing (default 1, `@*` =
 *           fire on every hit, overriding count)
 *   =arg    optional unsigned payload a site may consult (e.g. the
 *           stall milliseconds of pool.task.slow)
 *
 *   GRAPHR_FAILPOINTS=store.read.short:1@3,net.conn.write.fail:1@*
 *       -> the third buffered store read comes back short once, and
 *          every connection write (stdin's stdout included) reports
 *          an I/O error.
 *
 * Sites are reached via the GRAPHR_FAILPOINT macros. When no spec is
 * configured (the production case) a site costs one relaxed atomic
 * load and a predictable branch; the registry mutex is only ever
 * touched while a spec is armed. Each firing bumps the process-wide
 * perf counter `failpoint.fires` (surfaced by `graphr_serve status`),
 * so a chaos harness can assert the injected fault actually happened.
 */

#ifndef GRAPHR_COMMON_FAILPOINT_HH
#define GRAPHR_COMMON_FAILPOINT_HH

#include <atomic>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace graphr::failpoint
{

/** Malformed GRAPHR_FAILPOINTS spec or unknown site name. */
class FailpointError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

namespace detail
{
/** True while any failpoint entry is armed (see enabled()). */
extern std::atomic<bool> g_armed;

/** Slow path of the macros: count the hit, decide, bump counters. */
bool shouldFire(std::string_view site, std::uint64_t *arg);
} // namespace detail

/**
 * The production fast path: one relaxed load, false (and branch-
 * predictable) whenever no spec is armed.
 */
inline bool
enabled()
{
    return detail::g_armed.load(std::memory_order_relaxed);
}

/**
 * Arm the registry from @p spec (the GRAPHR_FAILPOINTS grammar),
 * replacing any previous configuration and resetting all hit/fire
 * counts. An empty spec disarms every site. Throws FailpointError on
 * a malformed entry or an unknown site name.
 */
void configure(const std::string &spec);

/** Disarm every site and reset all hit/fire counts. */
void disarmAll();

/** Every compiled-in site name, sorted (the chaos sweep's worklist). */
std::span<const std::string_view> knownSites();

/** Observed hits/fires of one armed site (configure() resets). */
struct SiteStats
{
    std::string site;
    std::uint64_t hits = 0;  ///< times the site was reached
    std::uint64_t fires = 0; ///< times it actually fired
};

/** Stats for every currently armed site, sorted by name. */
std::vector<SiteStats> stats();

} // namespace graphr::failpoint

/**
 * True when the named failpoint should fire at this hit. The name
 * must be one of knownSites() — firing is the anomalous branch, so
 * callers write `if (GRAPHR_FAILPOINT("x")) <fail>;`.
 */
#define GRAPHR_FAILPOINT(site)                                               \
    (::graphr::failpoint::enabled() &&                                       \
     ::graphr::failpoint::detail::shouldFire(site, nullptr))

/** Like GRAPHR_FAILPOINT, but *argp picks up the entry's `=arg`
 *  payload when the spec carries one (left untouched otherwise). */
#define GRAPHR_FAILPOINT_ARG(site, argp)                                     \
    (::graphr::failpoint::enabled() &&                                       \
     ::graphr::failpoint::detail::shouldFire(site, argp))

#endif // GRAPHR_COMMON_FAILPOINT_HH
