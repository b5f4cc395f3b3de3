/**
 * @file
 * Out-of-core execution driver (paper Fig. 9 and section 3.3's
 * "global processing order").
 *
 * When a graph exceeds the memory-ReRAM capacity, it is partitioned
 * into B x B blocks stored on disk in the preprocessed streaming-
 * apply order; an out-of-core framework (GridGraph in the paper)
 * loads each block with sequential I/O and hands it to the GraphR
 * node. Because the order is fully sequential, the disk can prefetch
 * the next block while the node processes the current one, so each
 * iteration costs max(disk stream, node processing) plus the block
 * switch overheads.
 *
 * This driver wraps GraphRNode with that block schedule and a simple
 * sequential-storage model.
 */

#ifndef GRAPHR_GRAPHR_OUT_OF_CORE_HH
#define GRAPHR_GRAPHR_OUT_OF_CORE_HH

#include <functional>

#include "algorithms/pagerank.hh"
#include "graphr/node.hh"

namespace graphr
{

/** Sequential storage model (defaults: SATA-SSD class). */
struct StorageParams
{
    double seqBandwidthGBs = 0.5; ///< sustained sequential read
    double accessLatencyUs = 80.0; ///< per block-switch latency
    double energyPjPerByte = 10.0; ///< controller + transfer energy
};

/** Result of an out-of-core run. */
struct OutOfCoreReport
{
    SimReport node;       ///< accelerator-side report (all blocks)
    double diskSeconds = 0.0;  ///< raw disk streaming time
    double totalSeconds = 0.0; ///< pipelined end-to-end time
    double diskJoules = 0.0;
    double totalJoules = 0.0;
    std::uint64_t numBlocks = 0;
    std::uint64_t bytesStreamed = 0;
};

/**
 * Runs algorithms block-by-block through a GraphR node with disk
 * loading modelled per iteration.
 */
class OutOfCoreRunner
{
  public:
    /**
     * @param config node configuration; tiling.blockSize selects B
     *        (0 keeps the single-block in-memory behaviour)
     * @param storage disk model
     */
    OutOfCoreRunner(const GraphRConfig &config,
                    const StorageParams &storage);

    /** Out-of-core PageRank (every block streamed every iteration). */
    OutOfCoreReport runPageRank(const CooGraph &graph,
                                const PageRankParams &params);

    /** One out-of-core SpMV pass (a single full stream). */
    OutOfCoreReport runSpmv(const CooGraph &graph,
                            const std::vector<Value> &x);

    /**
     * Out-of-core BFS/SSSP: per round only blocks whose source range
     * intersects the active set are streamed (GridGraph's 2-level
     * selective scheduling, which GraphR inherits).
     */
    OutOfCoreReport runBfs(const CooGraph &graph, VertexId source);
    OutOfCoreReport runSssp(const CooGraph &graph, VertexId source);

    /**
     * Out-of-core WCC: selective rounds over the symmetrised edge
     * set (all sources start active; activity decays as labels
     * converge).
     */
    OutOfCoreReport runWcc(const CooGraph &graph);

    /** Out-of-core CF (every rating block streamed every epoch). */
    OutOfCoreReport runCf(const CooGraph &ratings, const CfParams &params);

    const GraphRConfig &config() const { return config_; }
    const StorageParams &storage() const { return storage_; }

  private:
    /**
     * Full-stream schedule: every iteration of the node report
     * streams the whole ordered edge list once (PageRank/SpMV/CF).
     */
    OutOfCoreReport sequentialSweeps(const CooGraph &graph,
                                     SimReport node_report) const;

    /**
     * Selective schedule (BFS/SSSP/WCC): @p run_node runs the node's
     * add-op walk over @p graph (a CooGraph, or for WCC its
     * SymmetrizedView, whose plan's tiles give the block-row bytes)
     * and hands each round's active ids to the observer it is given;
     * a block-row is streamed in a round when one of its sources is
     * active. Disk bytes and seconds accumulate round by round,
     * block-rows ascending. There is no second relaxation: the rounds
     * are the node's own, read from the graph's memoised frontier
     * schedule.
     */
    template <typename Graph>
    OutOfCoreReport selectiveRounds(
        const Graph &graph,
        const std::function<SimReport(const RoundObserver &)> &run_node)
        const;

    /** Disk time for one load of the given byte volume. */
    double streamSeconds(std::uint64_t bytes,
                         std::uint64_t block_switches) const;

    GraphRConfig config_;
    StorageParams storage_;
};

} // namespace graphr

#endif // GRAPHR_GRAPHR_OUT_OF_CORE_HH
