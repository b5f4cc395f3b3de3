/**
 * @file
 * Tests of the parallel sweep machinery: the ThreadPool, shared-cache
 * concurrency (PlanCache per-key once-construction, golden-PageRank
 * cache hammering), the headline property — that a parallel
 * `all x all` sweep produces byte-identical JSON to a one-job sweep —
 * and how each reports its first failure.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "algorithms/pagerank.hh"
#include "common/lru_cache.hh"
#include "common/thread_pool.hh"
#include "driver/driver.hh"
#include "driver/golden_cache.hh"
#include "driver/run_result.hh"
#include "graph/generator.hh"
#include "graphr/engine/plan_cache.hh"

namespace graphr
{
namespace
{

using driver::DriverError;
using driver::RunResult;
using driver::SweepSpec;

// ------------------------------------------------------------ ThreadPool

TEST(ThreadPoolTest, RunsEverySubmittedTask)
{
    ThreadPool pool(4);
    std::atomic<int> counter{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&counter] { ++counter; });
    pool.wait();
    EXPECT_EQ(counter.load(), 100);

    // The pool is reusable after a wait().
    for (int i = 0; i < 10; ++i)
        pool.submit([&counter] { ++counter; });
    pool.wait();
    EXPECT_EQ(counter.load(), 110);
}

TEST(ThreadPoolTest, DestructorDrainsQueue)
{
    std::atomic<int> counter{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 50; ++i)
            pool.submit([&counter] { ++counter; });
    }
    EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, ZeroThreadsClampsToOne)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.numThreads(), 1u);
    EXPECT_GE(ThreadPool::effectiveJobs(0), 1u);
    EXPECT_EQ(ThreadPool::effectiveJobs(3), 3u);
}

// ------------------------------------------------- PlanCache concurrency

TEST(ParallelCacheTest, PlanCacheBuildsEachKeyOnce)
{
    // Many threads hammer a private cache with a handful of graphs;
    // per-key once-construction means the miss count equals the key
    // count and every thread sees the same plan object per graph.
    constexpr int kGraphs = 4;
    constexpr int kThreads = 8;
    constexpr int kItersPerThread = 25;

    std::vector<CooGraph> graphs;
    for (int g = 0; g < kGraphs; ++g) {
        graphs.push_back(makeRmat({.numVertices = 128,
                                   .numEdges = 512,
                                   .seed = 100 + static_cast<std::uint64_t>(g)}));
    }

    PlanCache cache;
    const TilingParams tiling;
    std::vector<std::vector<TilePlanPtr>> seen(kThreads);
    {
        std::vector<std::thread> threads;
        for (int t = 0; t < kThreads; ++t) {
            threads.emplace_back([&, t] {
                for (int i = 0; i < kItersPerThread; ++i) {
                    const int g = (t + i) % kGraphs;
                    seen[static_cast<std::size_t>(t)].push_back(
                        cache.get(graphs[static_cast<std::size_t>(g)],
                                  tiling));
                }
            });
        }
        for (std::thread &thread : threads)
            thread.join();
    }

    EXPECT_EQ(cache.stats().misses, static_cast<std::uint64_t>(kGraphs));
    EXPECT_EQ(cache.stats().hits,
              static_cast<std::uint64_t>(kThreads * kItersPerThread -
                                         kGraphs));
    EXPECT_EQ(cache.size(), static_cast<std::size_t>(kGraphs));

    // One distinct plan pointer per graph across all threads.
    std::set<const TilePlan *> distinct;
    for (const auto &thread_seen : seen)
        for (const TilePlanPtr &plan : thread_seen)
            distinct.insert(plan.get());
    EXPECT_EQ(distinct.size(), static_cast<std::size_t>(kGraphs));
}

TEST(ParallelCacheTest, FailedBuildPropagatesAndRetries)
{
    // PlanCache's factory cannot be made to fail from the outside, so
    // exercise the retry contract directly on the shared LruCache
    // template both caches are built on.
    struct Hash
    {
        std::size_t operator()(const int &k) const
        {
            return static_cast<std::size_t>(k);
        }
    };
    LruCache<int, int, Hash> lru(4);
    EXPECT_THROW(lru.getOrBuild(1,
                                []() -> std::shared_ptr<const int> {
                                    throw std::runtime_error("boom");
                                }),
                 std::runtime_error);
    // The failed entry was dropped: a later build succeeds.
    bool hit = true;
    const std::shared_ptr<const int> value = lru.getOrBuild(
        1, [] { return std::make_shared<const int>(7); }, &hit);
    EXPECT_FALSE(hit);
    EXPECT_EQ(*value, 7);
}

TEST(ParallelCacheTest, GoldenCacheHammering)
{
    driver::clearGoldenCache();
    const CooGraph graph =
        makeRmat({.numVertices = 128, .numEdges = 512, .seed = 17});
    PageRankParams params;
    params.maxIterations = 20;

    constexpr int kThreads = 8;
    constexpr int kCalls = 10;
    std::vector<int> results(kThreads, 0);
    {
        std::vector<std::thread> threads;
        for (int t = 0; t < kThreads; ++t) {
            threads.emplace_back([&, t] {
                for (int i = 0; i < kCalls; ++i) {
                    results[static_cast<std::size_t>(t)] =
                        goldenPageRankIterations(graph, params);
                }
            });
        }
        for (std::thread &thread : threads)
            thread.join();
    }

    EXPECT_EQ(driver::goldenCacheStats().misses, 1u);
    EXPECT_EQ(driver::goldenCacheStats().hits,
              static_cast<std::uint64_t>(kThreads * kCalls - 1));
    for (const int iterations : results)
        EXPECT_EQ(iterations, pagerank(graph, params).iterations);
    driver::clearGoldenCache();
}

// --------------------------------------------------- sweep determinism

SweepSpec
fullMatrixSpec()
{
    SweepSpec spec;
    spec.workloads = {"all"};
    spec.backends = {"all"};
    spec.datasets = {"rmat:vertices=128,edges=512,seed=3",
                     "chain:n=16"};
    spec.params =
        driver::ParamMap::parse("epochs=1,features=4,iterations=5");
    return spec;
}

std::string
sweepJson(const SweepSpec &spec)
{
    std::ostringstream oss;
    writeResultsJson(oss, runSweep(spec));
    return oss.str();
}

TEST(ParallelSweepTest, JsonByteIdenticalAcrossJobCounts)
{
    SweepSpec spec = fullMatrixSpec();
    spec.jobs = 1;
    const std::string serial = sweepJson(spec);
    spec.jobs = 4;
    const std::string parallel = sweepJson(spec);
    EXPECT_EQ(serial, parallel);

    spec.jobs = 0; // hardware concurrency
    EXPECT_EQ(serial, sweepJson(spec));
}

TEST(ParallelSweepTest, FunctionalRunsDecodeSharedPlansConcurrently)
{
    // Functional runs decode tiles of one shared plan, each into its
    // own executor's scratch: at 4 jobs the reports equal the serial
    // sweep's, whose plans the parallel one reuses.
    SweepSpec spec;
    spec.workloads = {"pagerank", "spmv", "bfs", "sssp", "wcc"};
    spec.backends = {"graphr", "outofcore"};
    spec.datasets = {"rmat:vertices=512,edges=4096,seed=9"};
    spec.params = driver::ParamMap::parse("iterations=5,tolerance=0");
    spec.backendOptions.config.functional = true;
    spec.jobs = 1;
    const std::string serial = sweepJson(spec);
    spec.jobs = 4;
    EXPECT_EQ(serial, sweepJson(spec));
}

TEST(ParallelSweepTest, ProgressLinesAreWholeLines)
{
    SweepSpec spec = fullMatrixSpec();
    spec.jobs = 4;
    std::ostringstream progress;
    const std::vector<RunResult> results = runSweep(spec, &progress);

    std::istringstream lines(progress.str());
    std::string line;
    std::size_t count = 0;
    while (std::getline(lines, line)) {
        EXPECT_TRUE(line.starts_with("running ")) << line;
        EXPECT_TRUE(line.ends_with(" ...")) << line;
        ++count;
    }
    EXPECT_EQ(count, results.size());
}

TEST(ParallelSweepTest, ErrorsSurfaceDeterministically)
{
    // An out-of-range BFS source fails on every backend; the parallel
    // path must still throw DriverError (the first error in spec
    // order) rather than crash or deadlock.
    SweepSpec spec;
    spec.workloads = {"bfs"};
    spec.backends = {"all"};
    spec.datasets = {"chain:n=8"};
    spec.params = driver::ParamMap::parse("source=99");
    spec.jobs = 4;
    EXPECT_THROW(runSweep(spec), DriverError);
}

TEST(ParallelSweepTest, TheFirstFailureInSpecOrderEndsTheSweep)
{
    // BFS and SSSP both reject source 99 on an 8-vertex chain.
    SweepSpec spec;
    spec.workloads = {"pagerank", "bfs", "sssp"};
    spec.backends = {"graphr"};
    spec.datasets = {"chain:n=8"};
    spec.params = driver::ParamMap::parse("source=99");
    const auto failure = [&spec](std::ostringstream &progress) {
        try {
            runSweep(spec, &progress);
        } catch (const DriverError &err) {
            return std::string(err.what());
        }
        return std::string("no error");
    };

    // One job: PageRank runs, BFS fails, and SSSP never starts.
    spec.jobs = 1;
    std::ostringstream serial;
    EXPECT_NE(failure(serial).find("source vertex 99"), std::string::npos);
    EXPECT_EQ(serial.str(), "running pagerank x graphr x chain ...\n"
                            "running bfs x graphr x chain ...\n");

    // More jobs: every combination runs and BFS's error, the first in
    // spec order, is the one rethrown.
    spec.jobs = 4;
    std::ostringstream parallel;
    EXPECT_NE(failure(parallel).find("source vertex 99"),
              std::string::npos);
    const std::string lines = parallel.str();
    EXPECT_EQ(std::count(lines.begin(), lines.end(), '\n'), 3);
}

TEST(ParallelSweepTest, DatasetResolvedOncePerSpec)
{
    // Each distinct spec is resolved exactly once per sweep: the run
    // results of duplicated combinations must be identical objects
    // value-wise. (The per-spec once-construction is exercised by
    // every parallel test; this checks the visible contract.)
    SweepSpec spec;
    spec.workloads = {"pagerank"};
    spec.backends = {"graphr", "cpu", "gpu", "pim"};
    spec.datasets = {"rmat:vertices=128,edges=512,seed=3"};
    spec.jobs = 4;
    const std::vector<RunResult> results = runSweep(spec);
    ASSERT_EQ(results.size(), 4u);
    for (const RunResult &r : results) {
        EXPECT_EQ(r.dataset, "rmat");
        EXPECT_EQ(r.vertices, results[0].vertices);
        EXPECT_EQ(r.edges, results[0].edges);
    }
}

} // namespace
} // namespace graphr
