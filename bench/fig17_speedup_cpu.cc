/**
 * @file
 * Regenerates paper Figure 17: GraphR speedup over the CPU baseline
 * for PageRank, BFS, SSSP and SpMV on the six graph datasets, plus
 * CF on Netflix, with the geometric mean over all 25 executions.
 *
 * Paper-reported shape: geomean 16.01x, max 132.67x (SpMV on WV),
 * min 2.40x (SSSP on OK); parallel-MAC workloads (PR, SpMV) above
 * parallel-add-op ones (BFS, SSSP).
 */

#include "bench/bench_util.hh"

namespace
{

using namespace graphr;
using namespace graphr::bench;

struct Cell
{
    std::string app;
    std::string dataset;
    double speedup;
};

} // namespace

int
main()
{
    banner("Figure 17: GraphR Speedup Compared to CPU",
           "GraphR (HPCA'18), Figure 17");

    CpuModel cpu;
    GraphRNode node; // paper configuration

    std::vector<Cell> cells;
    PageRankParams pr_params;
    pr_params.maxIterations = kPrIterations;
    pr_params.tolerance = 0.0;

    for (const DatasetId id : graphDatasets()) {
        const DatasetInfo &info = datasetInfo(id);
        const CooGraph g = loadDataset(id);
        const std::vector<Value> x(g.numVertices(), 1.0);

        const double pr = cpu.runPageRank(g, kPrIterations).seconds /
                          node.runPageRank(g, pr_params).seconds;
        const double bfs_s =
            cpu.runBfs(g, 0).seconds / node.runBfs(g, 0).seconds;
        const double sssp_s =
            cpu.runSssp(g, 0).seconds / node.runSssp(g, 0).seconds;
        const double spmv_s =
            cpu.runSpmv(g).seconds / node.runSpmv(g, x).seconds;
        cells.push_back({"PageRank", info.shortName, pr});
        cells.push_back({"BFS", info.shortName, bfs_s});
        cells.push_back({"SSSP", info.shortName, sssp_s});
        cells.push_back({"SpMV", info.shortName, spmv_s});
        std::cerr << "done " << info.shortName << "\n";
    }

    {
        const CooGraph ratings = loadDataset(DatasetId::kNetflix);
        const CfParams cf = netflixCfParams(ratings);
        cells.push_back({"CF", "NF",
                         cpu.runCf(ratings, cf).seconds /
                             GraphRNode().runCf(ratings, cf).seconds});
        std::cerr << "done NF\n";
    }

    TextTable table;
    table.header({"app", "dataset", "speedup vs CPU"});
    std::vector<double> all;
    double max_speedup = 0.0;
    double min_speedup = 1e30;
    std::string max_label;
    std::string min_label;
    for (const Cell &c : cells) {
        table.row({c.app, c.dataset, TextTable::num(c.speedup)});
        all.push_back(c.speedup);
        if (c.speedup > max_speedup) {
            max_speedup = c.speedup;
            max_label = c.app + "/" + c.dataset;
        }
        if (c.speedup < min_speedup) {
            min_speedup = c.speedup;
            min_label = c.app + "/" + c.dataset;
        }
    }
    table.print(std::cout);

    std::cout << "\ngeomean speedup: " << TextTable::num(geomean(all))
              << "x   (paper: 16.01x)\n";
    std::cout << "max: " << TextTable::num(max_speedup) << "x on "
              << max_label << "   (paper: 132.67x on SpMV/WV)\n";
    std::cout << "min: " << TextTable::num(min_speedup) << "x on "
              << min_label << "   (paper: 2.40x on SSSP/OK)\n";
    return 0;
}
