#include "harness.hh"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include "common/checksum.hh"
#include "driver/golden_cache.hh"
#include "graphr/engine/plan_cache.hh"
#include "perf/counters.hh"

namespace graphr::bench
{

namespace
{

double
cpuClockSeconds(clockid_t clock)
{
    timespec ts{};
    if (::clock_gettime(clock, &ts) != 0)
        throw std::runtime_error("cannot read a CPU-time clock");
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

} // namespace

double
processCpuSeconds()
{
    return cpuClockSeconds(CLOCK_PROCESS_CPUTIME_ID);
}

double
threadCpuSeconds()
{
    return cpuClockSeconds(CLOCK_THREAD_CPUTIME_ID);
}

double
processCpuSeconds(int pid)
{
    clockid_t clock{};
    if (::clock_getcpuclockid(pid, &clock) != 0)
        throw std::runtime_error("no CPU-time clock for process " +
                                 std::to_string(pid));
    return cpuClockSeconds(clock);
}

std::string
runSelf(const std::vector<std::string> &args, const std::string &env,
        bool *exit_ok)
{
    std::vector<std::string> all = {"/proc/self/exe"};
    all.insert(all.end(), args.begin(), args.end());
    std::vector<char *> argv;
    for (std::string &a : all)
        argv.push_back(a.data());
    argv.push_back(nullptr);
    std::string env_copy = env;
    std::vector<char *> envp;
    if (!env_copy.empty())
        envp.push_back(env_copy.data());
    for (char **e = environ; *e != nullptr; ++e)
        envp.push_back(*e);
    envp.push_back(nullptr);

    int fds[2];
    if (::pipe(fds) != 0)
        throw std::runtime_error("pipe failed");
    const pid_t pid = ::fork();
    if (pid < 0)
        throw std::runtime_error("fork failed");
    if (pid == 0) {
        ::dup2(fds[1], 1);
        ::close(fds[0]);
        ::close(fds[1]);
        ::execve(argv[0], argv.data(), envp.data());
        ::_exit(127);
    }
    ::close(fds[1]);
    std::string out;
    char buf[4096];
    for (;;) {
        const ssize_t n = ::read(fds[0], buf, sizeof(buf));
        if (n > 0)
            out.append(buf, static_cast<std::size_t>(n));
        else if (n == 0 || errno != EINTR)
            break;
    }
    ::close(fds[0]);
    int status = 0;
    ::waitpid(pid, &status, 0);
    *exit_ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    return out;
}

std::uint64_t
deriveSeed(std::uint64_t seed, std::uint64_t stream)
{
    Rng rng(seed ^ (stream * 0x9e3779b97f4a7c15ull));
    rng.next();
    return rng.next();
}

std::uint64_t
Rng::next()
{
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

double
Rng::uniform()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::string
rmatSpec(std::uint64_t vertices, std::uint64_t edges, std::uint64_t seed)
{
    // Short seeds keep dataset names readable in reports.
    return "rmat:vertices=" + std::to_string(vertices) +
           ",edges=" + std::to_string(edges) +
           ",seed=" + std::to_string(seed % 1000000007ull);
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

double
iqr(std::vector<double> values)
{
    return quantile(values, 0.75) - quantile(values, 0.25);
}

void
Report::sampled(const std::string &name,
                const std::vector<double> &samples)
{
    metrics_[name] = Metric{name, median(samples), iqr(samples),
                            samples.size()};
}

void
Report::value(const std::string &name, double v, std::size_t n)
{
    metrics_[name] = Metric{name, v, 0.0, n};
}

Metric
Report::metric(const std::string &name) const
{
    const auto it = metrics_.find(name);
    return it != metrics_.end() ? it->second : Metric{};
}

void
Report::info(const std::string &name, const std::string &unit, double v,
             std::size_t n)
{
    info_.emplace_back(Metric{name, v, 0.0, n}, unit);
}

bool
Report::check(bool ok, const std::string &what)
{
    if (!ok)
        failures_.push_back(what);
    return ok;
}

void
Report::attempt(bool ok)
{
    ++attempted_;
    if (!ok)
        ++failed_;
}

void
Report::print(std::ostream &out, const std::string &workload,
              const std::vector<std::pair<std::string, std::string>>
                  &names) const
{
    // Values keep every digit (%.17g), so the result line is written
    // here rather than through JsonWriter's 12-digit format.
    const auto line = [&](const Metric &m, const std::string &unit) {
        char value[64];
        std::snprintf(value, sizeof(value), "%.17g",
                      std::isfinite(m.value) ? m.value : 0.0);
        out << m.name << ' ' << workload << ' ' << value << ' ' << unit
            << " n=" << m.n << " iqr=" << m.iqr << '\n';
        return std::string(value);
    };
    std::ostringstream json;
    json << "{\"correct\":" << (correct() ? "true" : "false")
         << ",\"attempted\":" << attempted_ << ",\"failed\":" << failed_
         << ",\"metrics\":{";
    for (std::size_t i = 0; i < names.size(); ++i) {
        const auto &[name, unit] = names[i];
        Metric m = metric(name);
        m.name = name;
        // Names and units are fixed identifiers: nothing to escape.
        json << (i == 0 ? "" : ",") << '"' << name << "\":{\"value\":"
             << line(m, unit) << ",\"unit\":\"" << unit << "\"}";
    }
    for (const auto &[m, unit] : info_)
        line(m, unit);
    json << "}}";
    out << json.str() << std::endl;
}

double
peakRssMb(int pid)
{
    const std::string path =
        pid == 0 ? "/proc/self/status"
                 : "/proc/" + std::to_string(pid) + "/status";
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    return 0.0;
}

void
resetPeakRss(int pid)
{
    const std::string path =
        pid == 0 ? "/proc/self/clear_refs"
                 : "/proc/" + std::to_string(pid) + "/clear_refs";
    // "5" resets VmHWM to the current RSS (proc(5)).
    std::ofstream(path) << "5";
}

Counts
counts()
{
    return perf::Registry::instance().counterValues();
}

double
countDelta(const Counts &before, const Counts &after,
           const std::string &name)
{
    const auto b = before.find(name);
    const auto a = after.find(name);
    const std::uint64_t vb = b == before.end() ? 0 : b->second;
    const std::uint64_t va = a == after.end() ? 0 : a->second;
    return static_cast<double>(va - vb);
}

std::string
digest(std::string_view bytes)
{
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(
                      fnv1a64(bytes.data(), bytes.size())));
    return hex;
}

void
freshDir(const std::string &path)
{
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
}

void
dropMemoryCaches()
{
    PlanCache::instance().clear();
    driver::clearGoldenCache();
}

} // namespace graphr::bench
