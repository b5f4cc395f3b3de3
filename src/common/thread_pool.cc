#include "thread_pool.hh"

#include <algorithm>
#include <chrono>
#include <exception>
#include <utility>

#include "common/failpoint.hh"

namespace graphr
{

ThreadPool::ThreadPool(unsigned num_threads)
{
    const unsigned n = num_threads > 0 ? num_threads : 1;
    workers_.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    wait();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    taskReady_.notify_all();
    for (std::thread &worker : workers_)
        worker.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        queue_.push_back(std::move(task));
        ++pending_;
    }
    taskReady_.notify_one();
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lock(mutex_);
    allIdle_.wait(lock, [this] { return pending_ == 0; });
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            taskReady_.wait(lock, [this] {
                return stopping_ || !queue_.empty();
            });
            if (queue_.empty())
                return; // stopping_ and drained
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        // Injectable stall (pool.task.slow, `=ms` payload): models a
        // slow request without touching any workload code — the
        // deterministic trigger for the server's request deadline.
        std::uint64_t stall_ms = 50;
        if (GRAPHR_FAILPOINT_ARG("pool.task.slow", &stall_ms)) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(stall_ms));
        }
        task();
        {
            std::lock_guard<std::mutex> lock(mutex_);
            --pending_;
            if (pending_ == 0)
                allIdle_.notify_all();
        }
    }
}

unsigned
ThreadPool::effectiveJobs(unsigned requested)
{
    if (requested != 0)
        return requested;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

void
forEachIndex(std::size_t count, unsigned jobs,
             const std::function<void(std::size_t)> &body)
{
    jobs = ThreadPool::effectiveJobs(jobs);
    if (jobs == 1) {
        for (std::size_t i = 0; i < count; ++i)
            body(i);
        return;
    }
    // Each task writes only its own error slot, so which failure is
    // rethrown does not depend on which worker finishes first.
    std::vector<std::exception_ptr> errors(count);
    {
        ThreadPool pool(
            static_cast<unsigned>(std::min<std::size_t>(jobs, count)));
        for (std::size_t i = 0; i < count; ++i) {
            pool.submit([&body, &errors, i] {
                try {
                    body(i);
                } catch (...) {
                    errors[i] = std::current_exception();
                }
            });
        }
    }
    for (const std::exception_ptr &error : errors) {
        if (error)
            std::rethrow_exception(error);
    }
}

} // namespace graphr
