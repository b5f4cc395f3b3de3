/**
 * @file
 * Minimal fixed-size thread pool for the sweep driver.
 *
 * Deliberately work-stealing-free: one FIFO queue, a mutex and two
 * condition variables. Sweep tasks are coarse (whole simulation
 * runs), so queue contention is negligible and the simple design is
 * easy to reason about under ThreadSanitizer. Tasks must not throw —
 * callers capture their own errors; forEachIndex() does it for the
 * driver's fan-outs and rethrows in deterministic order.
 */

#ifndef GRAPHR_COMMON_THREAD_POOL_HH
#define GRAPHR_COMMON_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace graphr
{

/** Fixed-size FIFO thread pool. */
class ThreadPool
{
  public:
    /**
     * Spawn @p num_threads workers (>= 1; 0 is clamped to 1).
     * hardwareJobs() maps a user-facing "0 = auto" to the machine.
     */
    explicit ThreadPool(unsigned num_threads);

    /** Drains the queue (waits for every submitted task) and joins. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue a task. The pool must outlive every submitted task. */
    void submit(std::function<void()> task);

    /** Block until every submitted task has finished. */
    void wait();

    unsigned numThreads() const
    {
        return static_cast<unsigned>(workers_.size());
    }

    /** Resolve a --jobs value: 0 = hardware concurrency (>= 1). */
    static unsigned effectiveJobs(unsigned requested);

  private:
    void workerLoop();

    std::mutex mutex_;
    std::condition_variable taskReady_;  ///< queue became non-empty
    std::condition_variable allIdle_;    ///< pending count hit zero
    std::deque<std::function<void()>> queue_;
    std::size_t pending_ = 0; ///< queued + currently running tasks
    bool stopping_ = false;
    std::vector<std::thread> workers_;
};

/**
 * Run @p body(0), ..., @p body(count - 1), the driver's one fan-out
 * (sweep combinations, prepared datasets). At one job (@p jobs as
 * --jobs: 0 = hardware threads) the calls run inline, in index order,
 * and the first exception ends the loop: no later index runs and no
 * thread starts. With more jobs they run on a pool of
 * min(jobs, count) threads, every index runs, and the exception of
 * the lowest failing index is rethrown once all have finished.
 */
void forEachIndex(std::size_t count, unsigned jobs,
                  const std::function<void(std::size_t)> &body);

} // namespace graphr

#endif // GRAPHR_COMMON_THREAD_POOL_HH
