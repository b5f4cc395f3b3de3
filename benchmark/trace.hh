/**
 * @file
 * In-memory span recorder for the benchmark's traced runs.
 *
 * A span is one timed call into a layer's public function: a name
 * ("layer.what" — the part before the first dot names the layer), a
 * start and end on steady_clock and on the thread's CPU-time clock,
 * the span that was open when it started (its parent), the request or
 * repetition it belongs to, and numeric arguments (counter deltas).
 * Spans stay in memory; at exit the run writes them as Chrome
 * trace-event JSON (chrome://tracing, Perfetto; wall-clock positions,
 * CPU time in each span's args) and prints per-layer self CPU time: a
 * span's CPU time minus the part its child spans cover.
 *
 * Single-threaded: the traced paths run on the benchmark's main
 * thread.
 */

#ifndef GRAPHR_BENCHMARK_TRACE_HH
#define GRAPHR_BENCHMARK_TRACE_HH

#include <cstddef>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "harness.hh"

namespace graphr::bench
{

class Tracer
{
  public:
    static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

    struct Record
    {
        std::string name;
        /** Request or repetition id; inherited from the parent. */
        std::string request;
        std::size_t parent = kNoParent;
        Clock::time_point start;
        Clock::time_point end;
        /** The thread's CPU time at start and end, in seconds. */
        double cpuStart = 0.0;
        double cpuEnd = 0.0;
        std::vector<std::pair<std::string, double>> args;

        double wallMs() const { return secondsBetween(start, end) * 1e3; }
        double cpuMs() const { return (cpuEnd - cpuStart) * 1e3; }

        /** Sum of the arguments named @p key (0 when there is none). */
        double arg(std::string_view key) const;
    };

    /** RAII span: open from construction to destruction. */
    class Span
    {
      public:
        Span(Tracer &tracer, std::string name, std::string request = {});
        ~Span();

        Span(const Span &) = delete;
        Span &operator=(const Span &) = delete;

        void arg(std::string key, double value);

      private:
        Tracer &tracer_;
        std::size_t index_;
    };

    const std::vector<Record> &records() const { return records_; }

    /** CPU time minus the CPU time its direct children cover. */
    double selfCpuMs(std::size_t index) const;

    /** Write every span as Chrome trace-event JSON. */
    void writeChromeJson(const std::string &path) const;

    /** Per-layer and per-span-name self-time table. */
    void printSelfTimes(std::ostream &os) const;

  private:
    std::vector<Record> records_;
    std::vector<std::size_t> open_;
    Clock::time_point origin_ = Clock::now();
};

} // namespace graphr::bench

#endif // GRAPHR_BENCHMARK_TRACE_HH
