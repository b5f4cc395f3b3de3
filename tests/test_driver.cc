/**
 * @file
 * Unit tests for the workload driver: param parsing, registries
 * (including unknown-name errors), dataset resolution, CLI argument
 * parsing, end-to-end runs, and golden-file checks of the JSON
 * reports for a fixed-seed R-MAT PageRank run and the full
 * workload x backend matrix.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>

#include "driver/cli.hh"
#include "driver/driver.hh"
#include "driver/run_result.hh"
#include "perf/counters.hh"

namespace graphr::driver
{
namespace
{

// ------------------------------------------------------------ ParamMap

TEST(ParamMapTest, ParsesKeyValuePairs)
{
    const ParamMap map = ParamMap::parse("a=1,b=two,c=3.5");
    EXPECT_EQ(map.size(), 3u);
    EXPECT_EQ(map.getInt("a", 0), 1);
    EXPECT_EQ(map.getString("b"), "two");
    EXPECT_DOUBLE_EQ(map.getDouble("c", 0.0), 3.5);
}

TEST(ParamMapTest, EmptyAndDefaults)
{
    const ParamMap map = ParamMap::parse("");
    EXPECT_TRUE(map.empty());
    EXPECT_EQ(map.getInt("missing", 7), 7);
    EXPECT_EQ(map.getString("missing", "d"), "d");
    EXPECT_TRUE(map.getBool("missing", true));
}

TEST(ParamMapTest, MalformedEntriesThrow)
{
    EXPECT_THROW(ParamMap::parse("novalue"), DriverError);
    EXPECT_THROW(ParamMap::parse("=x"), DriverError);
}

TEST(ParamMapTest, BadTypedValuesThrow)
{
    const ParamMap map = ParamMap::parse("n=abc,f=1.2.3,b=maybe");
    EXPECT_THROW(map.getInt("n", 0), DriverError);
    EXPECT_THROW(map.getDouble("f", 0.0), DriverError);
    EXPECT_THROW(map.getBool("b", false), DriverError);
}

TEST(ParamMapTest, LastDuplicateWins)
{
    const ParamMap map = ParamMap::parse("a=1,a=2");
    EXPECT_EQ(map.getInt("a", 0), 2);
    EXPECT_EQ(map.size(), 1u);
}

TEST(ParamMapTest, TracksUnreadKeys)
{
    const ParamMap map = ParamMap::parse("used=1,unused=2");
    map.getInt("used", 0);
    const std::vector<std::string> unread = map.unreadKeys();
    ASSERT_EQ(unread.size(), 1u);
    EXPECT_EQ(unread[0], "unused");
    EXPECT_THROW(map.rejectUnread("test"), DriverError);
}

// ---------------------------------------------------- workload registry

TEST(WorkloadRegistryTest, HasAllSixAlgorithms)
{
    const std::vector<std::string> names = allWorkloadNames();
    const std::set<std::string> set(names.begin(), names.end());
    EXPECT_EQ(set, (std::set<std::string>{"spmv", "pagerank", "bfs",
                                          "sssp", "wcc", "cf"}));
}

TEST(WorkloadRegistryTest, LookupByName)
{
    EXPECT_EQ(findWorkload("pagerank").kind, WorkloadKind::kPageRank);
    EXPECT_EQ(findWorkload("wcc").kind, WorkloadKind::kWcc);
}

TEST(WorkloadRegistryTest, UnknownNameThrowsWithKnownList)
{
    try {
        findWorkload("page-rank");
        FAIL() << "expected DriverError";
    } catch (const DriverError &err) {
        const std::string msg = err.what();
        EXPECT_NE(msg.find("unknown workload"), std::string::npos);
        EXPECT_NE(msg.find("pagerank"), std::string::npos);
    }
}

TEST(WorkloadRegistryTest, ParamsApplied)
{
    const Workload w = makeWorkload(
        "pagerank", ParamMap::parse("damping=0.9,iterations=5"));
    EXPECT_DOUBLE_EQ(w.params.pagerank.damping, 0.9);
    EXPECT_EQ(w.params.pagerank.maxIterations, 5);

    const Workload s =
        makeWorkload("sssp", ParamMap::parse("source=3"));
    EXPECT_EQ(s.params.source, 3u);

    const Workload c =
        makeWorkload("cf", ParamMap::parse("features=8,epochs=2"));
    EXPECT_EQ(c.params.cf.featureLength, 8);
    EXPECT_EQ(c.params.cf.epochs, 2);
}

TEST(WorkloadRegistryTest, UnknownParamKeyThrows)
{
    EXPECT_THROW(makeWorkload("pagerank", ParamMap::parse("dampng=0.9")),
                 DriverError);
    // A key of a *different* workload is tolerated (sweeps share one
    // parameter map across workloads).
    EXPECT_NO_THROW(
        makeWorkload("pagerank", ParamMap::parse("source=2")));
}

TEST(WorkloadRegistryTest, InvalidValuesThrow)
{
    EXPECT_THROW(
        makeWorkload("pagerank", ParamMap::parse("damping=1.5")),
        DriverError);
    EXPECT_THROW(
        makeWorkload("pagerank", ParamMap::parse("iterations=0")),
        DriverError);
    EXPECT_THROW(makeWorkload("cf", ParamMap::parse("epochs=0")),
                 DriverError);
    // NaN must not slip through range checks.
    EXPECT_THROW(
        makeWorkload("pagerank", ParamMap::parse("damping=nan")),
        DriverError);
    EXPECT_THROW(
        makeWorkload("pagerank", ParamMap::parse("tolerance=nan")),
        DriverError);
}

// ----------------------------------------------------- backend registry

TEST(BackendRegistryTest, HasAllSixBackends)
{
    EXPECT_EQ(allBackendNames(),
              (std::vector<std::string>{"graphr", "multinode",
                                        "outofcore", "cpu", "gpu",
                                        "pim"}));
}

TEST(BackendRegistryTest, MakeByName)
{
    const BackendOptions options;
    for (const std::string &name : allBackendNames()) {
        const std::unique_ptr<Backend> backend =
            makeBackend(name, options);
        ASSERT_NE(backend, nullptr);
        EXPECT_EQ(backend->name(), name);
    }
}

TEST(BackendRegistryTest, UnknownNameThrowsWithKnownList)
{
    try {
        makeBackend("tpu", BackendOptions{});
        FAIL() << "expected DriverError";
    } catch (const DriverError &err) {
        const std::string msg = err.what();
        EXPECT_NE(msg.find("unknown backend"), std::string::npos);
        EXPECT_NE(msg.find("graphr"), std::string::npos);
    }
}

// ----------------------------------------------------- dataset resolver

TEST(DatasetResolverTest, TableNamesMatchFlexibly)
{
    for (const std::string spec :
         {"wiki-vote", "WV", "WikiVote", "wikivote"}) {
        const ResolvedDataset ds = resolveDataset(spec, /*scale=*/16.0);
        EXPECT_EQ(ds.name, "wiki-vote") << spec;
        EXPECT_GT(ds.graph.numVertices(), 0u);
        EXPECT_FALSE(ds.bipartite);
    }
}

TEST(DatasetResolverTest, RmatSpec)
{
    const ResolvedDataset ds =
        resolveDataset("rmat:vertices=256,edges=1024,seed=5");
    EXPECT_EQ(ds.name, "rmat");
    EXPECT_EQ(ds.graph.numVertices(), 256u);
    // R-MAT drops self loops, so the count is near but below target.
    EXPECT_LE(ds.graph.numEdges(), 1024u);
    EXPECT_GT(ds.graph.numEdges(), 900u);
}

TEST(DatasetResolverTest, TopologySpecs)
{
    EXPECT_EQ(resolveDataset("chain:n=8").graph.numEdges(), 7u);
    EXPECT_EQ(resolveDataset("star:n=9").graph.numEdges(), 8u);
    EXPECT_EQ(resolveDataset("grid:width=4,height=4")
                  .graph.numVertices(),
              16u);
}

TEST(DatasetResolverTest, BipartiteKnowsUsers)
{
    const ResolvedDataset ds =
        resolveDataset("bipartite:users=32,items=16,ratings=200");
    EXPECT_TRUE(ds.bipartite);
    EXPECT_EQ(ds.numUsers, 32u);
    EXPECT_EQ(ds.graph.numVertices(), 48u);
}

TEST(DatasetResolverTest, TableNamesTakeScaleSeedParams)
{
    const ResolvedDataset a = resolveDataset("wiki-vote:scale=16");
    const ResolvedDataset b = resolveDataset("wiki-vote", 16.0);
    EXPECT_EQ(a.graph.numVertices(), b.graph.numVertices());
    EXPECT_EQ(a.graph.numEdges(), b.graph.numEdges());
    // Only scale/seed are valid on a table name.
    EXPECT_THROW(resolveDataset("wiki-vote:vertices=64"), DriverError);
    EXPECT_THROW(resolveDataset("wiki-vote:scale=nan"), DriverError);
}

TEST(DatasetResolverTest, NanScaleThrows)
{
    EXPECT_THROW(resolveDataset(
                     "wiki-vote", std::nan("")),
                 DriverError);
}

TEST(DatasetResolverTest, UnknownNameThrowsWithKnownList)
{
    try {
        resolveDataset("twitter");
        FAIL() << "expected DriverError";
    } catch (const DriverError &err) {
        const std::string msg = err.what();
        EXPECT_NE(msg.find("unknown dataset"), std::string::npos);
        EXPECT_NE(msg.find("wiki-vote"), std::string::npos);
    }
}

TEST(DatasetResolverTest, UnknownSpecKeyThrows)
{
    EXPECT_THROW(resolveDataset("rmat:vertices=64,degree=4"),
                 DriverError);
    EXPECT_THROW(resolveDataset("rmat:vertices"), DriverError);
}

TEST(DatasetResolverTest, DegenerateGeneratorSpecsThrowNamingTheParameter)
{
    // Each of these aborted the process or never returned; now each
    // is a DriverError that names what is wrong.
    const std::pair<const char *, const char *> cases[] = {
        {"chain:n=0", "n must be >= 1"},
        {"rmat:vertices=1,edges=8", "vertices must be >= 2"},
        {"er:vertices=1,edges=8", "vertices must be >= 2"},
        {"star:n=1", "n must be >= 2"},
        {"complete:n=0", "n must be >= 2"},
        {"grid:width=0", "width must be >= 1"},
        {"grid:height=0", "height must be >= 1"},
        {"bipartite:users=0", "users must be >= 1"},
        {"bipartite:items=0", "items must be >= 1"},
        {"grid:width=70000,height=70000", "width*height"},
        {"bipartite:users=4294967295,items=2", "users+items"},
        {"rmat:vertices=64,edges=8,a=0.5,b=0.5,c=0.5,d=0.5",
         "a+b+c+d must sum to 1"},
        {"rmat:vertices=64,edges=8,a=-0.5,b=1.5,c=0,d=0",
         "a must be >= 0"},
        {"rmat:vertices=64,edges=8,maxweight=nan", "maxweight"},
        {"er:vertices=64,edges=8,maxweight=inf", "maxweight"},
        {"rmat:vertices=2147483649,edges=8",
         "vertices must be <= 2147483648"},
        // Every draw is the self loop (0,0), which R-MAT discards.
        {"rmat:vertices=4,edges=8,a=1,b=0,c=0,d=0", "b or c to be picked"},
        // b > 0, but a alone already covers every r in [0,1).
        {"rmat:vertices=4,edges=8,a=1,b=0.0000001,c=0,d=0",
         "b or c to be picked"},
        // b > 0, but its share of [0,1) holds no 2^-53 step of r.
        {"rmat:vertices=4,edges=8,a=0.1,b=1e-17,c=0,d=0.9",
         "b or c to be picked"},
        // Every draw sets the top column bit: (0,7) is out of range.
        {"rmat:vertices=6,edges=8,a=0,b=1,c=0,d=0",
         "unless vertices is a power of two"},
        // c > 0, but a+b already covers every r in [0,1).
        {"rmat:vertices=6,edges=8,a=0,b=1,c=0.0000001,d=0",
         "unless vertices is a power of two"},
        // Each kept edge needs about 74,500 draws: an edge leaves the
        // range unless 12 of its 13 levels pick b or c alike.
        {"rmat:vertices=4097,edges=100000,a=0,b=0.4,c=0.4,d=0.2",
         "7.45e+04 draws per kept edge at vertices=4097, more than the "
         "64 allowed"},
    };
    for (const auto &[spec, fragment] : cases) {
        try {
            resolveDataset(spec);
            ADD_FAILURE() << spec << ": expected DriverError";
        } catch (const DriverError &err) {
            EXPECT_NE(std::string(err.what()).find(fragment),
                      std::string::npos)
                << spec << ": " << err.what();
        }
    }
    // The smallest valid sizes, and R-MAT quadrants that reach an
    // in-range off-diagonal cell without a > 0, still resolve.
    EXPECT_EQ(resolveDataset("chain:n=1").graph.numVertices(), 1u);
    EXPECT_EQ(resolveDataset("star:n=2").graph.numEdges(), 1u);
    EXPECT_EQ(resolveDataset("rmat:vertices=8,edges=4,a=0,b=1,c=0,d=0")
                  .graph.numEdges(),
              4u);
    EXPECT_EQ(resolveDataset(
                  "rmat:vertices=6,edges=4,a=0,b=0.5,c=0.5,d=0")
                  .graph.numEdges(),
              4u);
    // A sum past 1 within the tolerance only trims the last quadrant.
    EXPECT_EQ(resolveDataset(
                  "rmat:vertices=4,edges=4,a=0.5,b=0.5000001,c=0,d=0")
                  .graph.numEdges(),
              4u);
}

TEST(DatasetResolverTest, FileRoundTrip)
{
    const std::string path =
        ::testing::TempDir() + "/driver_test_graph.txt";
    {
        std::ofstream out(path);
        out << "# vertices: 4\n0 1 2.5\n1 2 1.0\n2 3 1.0\n";
    }
    const ResolvedDataset ds = resolveDataset("file:" + path);
    EXPECT_EQ(ds.graph.numVertices(), 4u);
    EXPECT_EQ(ds.graph.numEdges(), 3u);
    EXPECT_EQ(ds.name, "driver_test_graph.txt");
}

// ------------------------------------------------------------------ CLI

TEST(CliTest, ParsesFullInvocation)
{
    const CliOptions opts = parseCli(
        {"--algo", "pagerank,sssp", "--backend", "graphr", "--dataset",
         "rmat:vertices=64,edges=256", "--dataset", "wiki-vote",
         "--param", "damping=0.9", "--param", "source=2", "--scale",
         "8", "--seed", "7", "--nodes", "2", "--out", "r.json",
         "--matrix"});
    EXPECT_EQ(opts.sweep.workloads,
              (std::vector<std::string>{"pagerank", "sssp"}));
    EXPECT_EQ(opts.sweep.backends, (std::vector<std::string>{"graphr"}));
    ASSERT_EQ(opts.sweep.datasets.size(), 2u);
    EXPECT_EQ(opts.sweep.datasets[1], "wiki-vote");
    EXPECT_DOUBLE_EQ(opts.sweep.params.getDouble("damping", 0), 0.9);
    EXPECT_EQ(opts.sweep.params.getInt("source", 0), 2);
    EXPECT_DOUBLE_EQ(opts.sweep.scale, 8.0);
    EXPECT_EQ(opts.sweep.seed, 7u);
    EXPECT_EQ(opts.sweep.backendOptions.numNodes, 2u);
    EXPECT_EQ(opts.outPath, "r.json");
    EXPECT_TRUE(opts.matrix);
    EXPECT_TRUE(opts.isSweep());
}

TEST(CliTest, DefaultsAreSingleRun)
{
    const CliOptions opts = parseCli({});
    EXPECT_EQ(opts.sweep.workloads,
              (std::vector<std::string>{"pagerank"}));
    EXPECT_EQ(opts.sweep.backends,
              (std::vector<std::string>{"graphr"}));
    ASSERT_EQ(opts.sweep.datasets.size(), 1u);
    EXPECT_FALSE(opts.isSweep());
    EXPECT_FALSE(opts.matrix);
    EXPECT_FALSE(opts.list);
}

TEST(CliTest, ErrorsOnBadFlags)
{
    EXPECT_THROW(parseCli({"--bogus"}), DriverError);
    EXPECT_THROW(parseCli({"--algo"}), DriverError);
    EXPECT_THROW(parseCli({"--scale", "0.5"}), DriverError);
    EXPECT_THROW(parseCli({"--nodes", "0"}), DriverError);
    EXPECT_THROW(parseCli({"--seed", "x"}), DriverError);
    // Scalar flags must consume their whole value.
    EXPECT_THROW(parseCli({"--seed", "7,scale=999"}), DriverError);
    EXPECT_THROW(parseCli({"--seed", ""}), DriverError);
    // 32-bit parameter overflow must not wrap.
    EXPECT_THROW(makeWorkload("pagerank",
                              ParamMap::parse("iterations=5000000000")),
                 DriverError);
    EXPECT_THROW(
        makeWorkload("bfs", ParamMap::parse("source=4294967301")),
        DriverError);
}

TEST(CliTest, FunctionalFlagSetsConfig)
{
    const CliOptions opts = parseCli({"--functional"});
    EXPECT_TRUE(opts.sweep.backendOptions.config.functional);
}

TEST(CliTest, PlanDirFlagPlumbsTheStore)
{
    const CliOptions opts = parseCli({"--plan-dir", "plans"});
    EXPECT_EQ(opts.command, CliCommand::kRun);
    EXPECT_EQ(opts.sweep.store.planDir, "plans");
    EXPECT_THROW(parseCli({"--plan-dir", ""}), DriverError);
    EXPECT_THROW(parseCli({"--plan-dir"}), DriverError);
}

TEST(CliTest, PrepareSubcommandProjectsItsSpec)
{
    const CliOptions opts = parseCli(
        {"prepare", "--dataset", "wiki-vote", "--dataset", "chain:n=8",
         "--plan-dir", "plans", "--scale", "4", "--seed", "7",
         "--jobs", "3"});
    EXPECT_EQ(opts.command, CliCommand::kPrepare);
    EXPECT_EQ(opts.prepare.datasets,
              (std::vector<std::string>{"wiki-vote", "chain:n=8"}));
    EXPECT_EQ(opts.prepare.store.planDir, "plans");
    EXPECT_DOUBLE_EQ(opts.prepare.scale, 4.0);
    EXPECT_EQ(opts.prepare.seed, 7u);
    EXPECT_EQ(opts.prepare.jobs, 3u);
    EXPECT_TRUE(opts.prepare.symmetrized);
    // No surprise default dataset for prepare.
    EXPECT_TRUE(parseCli({"prepare", "--plan-dir", "p"})
                    .prepare.datasets.empty());
}

TEST(CliTest, StoreStatsSubcommand)
{
    const CliOptions opts =
        parseCli({"store", "stats", "--plan-dir", "plans"});
    EXPECT_EQ(opts.command, CliCommand::kStoreStats);
    EXPECT_EQ(opts.prepare.store.planDir, "plans");
    // 'store' without an action is an error naming the known one.
    EXPECT_THROW(parseCli({"store"}), DriverError);
    EXPECT_THROW(parseCli({"store", "prune"}), DriverError);
}

TEST(CliTest, UnknownSubcommandNamesTheKnownOnes)
{
    try {
        parseCli({"frobnicate"});
        FAIL() << "expected DriverError";
    } catch (const DriverError &err) {
        const std::string msg = err.what();
        EXPECT_NE(msg.find("unknown subcommand 'frobnicate'"),
                  std::string::npos);
        EXPECT_NE(msg.find("prepare"), std::string::npos);
        EXPECT_NE(msg.find("store stats"), std::string::npos);
    }
}

// ----------------------------------------------------------- end-to-end

TEST(DriverRunTest, SingleRunProducesWork)
{
    RunSpec spec;
    spec.workload = "pagerank";
    spec.backend = "graphr";
    spec.dataset = "rmat:vertices=128,edges=512,seed=3";
    const RunResult result = runOne(spec);
    EXPECT_EQ(result.workload, "pagerank");
    EXPECT_EQ(result.backend, "graphr");
    EXPECT_EQ(result.dataset, "rmat");
    EXPECT_GT(result.seconds, 0.0);
    EXPECT_GT(result.joules, 0.0);
    EXPECT_GT(result.iterations, 0u);
    EXPECT_GT(result.edgesProcessed, 0u);
}

TEST(DriverRunTest, SourceOutOfRangeThrows)
{
    RunSpec spec;
    spec.workload = "bfs";
    spec.backend = "graphr";
    spec.dataset = "chain:n=8";
    spec.params = ParamMap::parse("source=99");
    EXPECT_THROW(runOne(spec), DriverError);
}

TEST(DriverRunTest, FullMatrixExecutes)
{
    // Acceptance criterion: every (workload, backend) pair from the
    // registries runs on at least one dataset.
    SweepSpec spec;
    spec.workloads = {"all"};
    spec.backends = {"all"};
    spec.datasets = {"rmat:vertices=128,edges=512,seed=3"};
    spec.params = ParamMap::parse("epochs=1,features=4,iterations=5");
    const std::vector<RunResult> results = runSweep(spec);
    ASSERT_EQ(results.size(),
              allWorkloadNames().size() * allBackendNames().size());
    for (const RunResult &r : results) {
        EXPECT_GT(r.seconds, 0.0)
            << r.workload << " x " << r.backend;
        EXPECT_GT(r.joules, 0.0) << r.workload << " x " << r.backend;
    }

    // The matrix renderer covers the full cross product.
    std::ostringstream matrix;
    printMatrix(matrix, results);
    for (const std::string &b : allBackendNames())
        EXPECT_NE(matrix.str().find(b), std::string::npos);
    for (const std::string &w : allWorkloadNames())
        EXPECT_NE(matrix.str().find(w), std::string::npos);
}

TEST(DriverRunTest, TimingSweepOnResidentPlansDecodesNoTile)
{
    // Timing runs read only tile metadata. With 16-column tiles no
    // tile crosses a boundary of the 4 multinode stripes, 256 columns
    // each, so a sweep over resident plans decodes no tile at all.
    SweepSpec spec;
    spec.workloads = {"all"};
    spec.backends = {"graphr", "outofcore", "multinode"};
    spec.datasets = {"rmat:vertices=1024,edges=8192,seed=5"};
    spec.params = ParamMap::parse("epochs=1,features=4,iterations=5");
    spec.backendOptions.config.tiling = {.crossbarDim = 4,
                                         .crossbarsPerGe = 2,
                                         .numGe = 2};
    runSweep(spec); // makes every plan resident
    perf::Counter &decodes =
        perf::Registry::instance().counter("engine.tile_decodes");
    const std::uint64_t before = decodes.value();
    const std::vector<RunResult> results = runSweep(spec);
    EXPECT_EQ(results.size(), allWorkloadNames().size() * 3);
    EXPECT_EQ(decodes.value() - before, 0u);
}

TEST(DriverRunTest, OneNodeClusterMatchesSingleNode)
{
    // With one node and no communication, the multinode cost model
    // must collapse to the single-node schedule for every workload
    // whose sweep count matches GraphRNode's (spmv/cf).
    for (const std::string algo : {"spmv", "cf"}) {
        RunSpec spec;
        spec.workload = algo;
        spec.dataset = "bipartite:users=64,items=32,ratings=512";
        spec.params = ParamMap::parse("epochs=2,features=8");

        spec.backend = "graphr";
        const RunResult single = runOne(spec);
        spec.backend = "multinode";
        spec.backendOptions.numNodes = 1;
        const RunResult cluster = runOne(spec);
        EXPECT_NEAR(cluster.seconds, single.seconds,
                    single.seconds * 1e-9)
            << algo;
    }
}

TEST(DriverRunTest, FunctionalFlagRunsTheDatapathOnlyWhereDocumented)
{
    // docs/CLI.md: --functional runs the crossbar datapath only for
    // pagerank and spmv on graphr and outofcore. On every other row
    // of the matrix (bfs, sssp, wcc and cf there; every workload on
    // multinode, cpu, gpu and pim) it runs nothing: no crossbar row is
    // read, and the report is the timing-only report, byte for byte.
    const perf::Counter &mvm_rows = perf::Registry::instance().counter(
        "crossbar.mvm_rows_processed");
    for (const std::string &workload : allWorkloadNames()) {
        for (const std::string &backend : allBackendNames()) {
            SCOPED_TRACE(workload + " x " + backend);
            RunSpec spec;
            spec.workload = workload;
            spec.backend = backend;
            spec.dataset = "rmat:vertices=256,edges=2048,seed=5";
            spec.params = ParamMap::parse("epochs=1,features=4");
            std::ostringstream timing;
            writeResultsJson(timing, {runOne(spec)});

            spec.backendOptions.config.functional = true;
            const std::uint64_t rows_before = mvm_rows.value();
            std::ostringstream functional;
            writeResultsJson(functional, {runOne(spec)});
            const std::uint64_t rows = mvm_rows.value() - rows_before;

            const bool runs =
                (workload == "pagerank" || workload == "spmv") &&
                (backend == "graphr" || backend == "outofcore");
            if (runs) {
                EXPECT_GT(rows, 0u);
            } else {
                EXPECT_EQ(rows, 0u);
                EXPECT_EQ(functional.str(), timing.str());
            }
        }
    }
}

TEST(DriverRunTest, SweepRejectsUnknownNamesUpfront)
{
    SweepSpec spec;
    spec.workloads = {"pagerank", "page-rank"};
    spec.datasets = {"chain:n=4"};
    EXPECT_THROW(runSweep(spec), DriverError);
}

// ---------------------------------------------------------- golden files

/** The fixed-seed PageRank report (pagerank_rmat.json). */
std::string
pagerankReport()
{
    RunSpec spec;
    spec.workload = "pagerank";
    spec.backend = "graphr";
    spec.dataset = "rmat:vertices=256,edges=2048,seed=7";
    spec.params = ParamMap::parse("iterations=10,tolerance=0");
    const RunResult result = runOne(spec);
    std::ostringstream oss;
    writeResultsJson(oss, {result});
    return oss.str();
}

/**
 * The whole workload x backend matrix (sweep_all.json): what
 * `graphr_run --algo all --backend all --dataset <both> --out` writes.
 * The bipartite graph drives CF's user split.
 */
std::string
sweepAllReport()
{
    SweepSpec spec;
    spec.datasets = {"rmat:vertices=128,edges=512,seed=3",
                     "bipartite:users=64,items=32,ratings=512"};
    std::ostringstream oss;
    writeResultsJson(oss, runSweep(spec));
    return oss.str();
}

/** Each checked-in golden report and the run that writes it. */
const std::pair<const char *, std::string (*)()> kGoldens[] = {
    {"pagerank_rmat.json", pagerankReport},
    {"sweep_all.json", sweepAllReport},
};

std::string
goldenPath(const char *file)
{
    return std::string(GRAPHR_GOLDEN_DIR) + "/" + file;
}

TEST(GoldenReportTest, MatchesCheckedInJson)
{
    for (const auto &[file, report] : kGoldens) {
        std::ifstream in(goldenPath(file));
        ASSERT_TRUE(in) << "missing golden file " << goldenPath(file)
                        << " — regenerate with "
                           "GRAPHR_UPDATE_GOLDEN=1 ./test_driver";
        std::stringstream want;
        want << in.rdbuf();
        EXPECT_EQ(report(), want.str())
            << file << ": JSON report drifted; if the cost model "
            << "changed intentionally, regenerate with "
               "GRAPHR_UPDATE_GOLDEN=1";
    }
}

/** Regeneration helper: GRAPHR_UPDATE_GOLDEN=1 rewrites the files. */
TEST(GoldenReportTest, UpdateGoldenWhenRequested)
{
    if (!std::getenv("GRAPHR_UPDATE_GOLDEN"))
        GTEST_SKIP() << "set GRAPHR_UPDATE_GOLDEN=1 to rewrite";
    for (const auto &[file, report] : kGoldens) {
        std::ofstream out(goldenPath(file));
        ASSERT_TRUE(out) << goldenPath(file);
        out << report();
    }
}

} // namespace
} // namespace graphr::driver
