/**
 * @file
 * Regenerates paper Figure 21: GraphR performance and energy saving
 * (vs CPU) as a function of dataset density, for PageRank and SSSP
 * on WV, SD, AZ, WG and LJ.
 *
 * Paper-reported shape: as the sparsity increases (density
 * decreases), performance and energy saving slightly decrease,
 * because more edge tiles must be traversed per useful non-zero.
 */

#include "bench/bench_util.hh"

int
main()
{
    using namespace graphr;
    using namespace graphr::bench;

    banner("Figure 21: Sensitivity to Sparsity",
           "GraphR (HPCA'18), Figure 21");

    CpuModel cpu;
    GraphRNode node;
    PageRankParams pr_params;
    pr_params.maxIterations = kPrIterations;
    pr_params.tolerance = 0.0;

    const std::vector<DatasetId> sets = {
        DatasetId::kWikiVote, DatasetId::kSlashdot, DatasetId::kAmazon,
        DatasetId::kWebGoogle, DatasetId::kLiveJournal};

    TextTable table;
    table.header({"dataset", "density", "tile occupancy",
                  "PR speedup", "PR energy saving", "SSSP speedup",
                  "SSSP energy saving"});

    std::vector<double> densities;
    std::vector<double> pr_speedups;
    for (const DatasetId id : sets) {
        const DatasetInfo &info = datasetInfo(id);
        const CooGraph g = loadDataset(id);

        const BaselineReport cpu_pr = cpu.runPageRank(g, kPrIterations);
        const SimReport graphr_pr = node.runPageRank(g, pr_params);
        const BaselineReport cpu_ss = cpu.runSssp(g, 0);
        const SimReport graphr_ss = node.runSssp(g, 0);

        table.row({info.shortName, TextTable::sci(g.density()),
                   TextTable::sci(graphr_pr.occupancy),
                   TextTable::num(cpu_pr.seconds / graphr_pr.seconds),
                   TextTable::num(cpu_pr.joules / graphr_pr.joules),
                   TextTable::num(cpu_ss.seconds / graphr_ss.seconds),
                   TextTable::num(cpu_ss.joules / graphr_ss.joules)});
        densities.push_back(g.density());
        pr_speedups.push_back(cpu_pr.seconds / graphr_pr.seconds);
        std::cerr << "done " << info.shortName << "\n";
    }

    table.print(std::cout);
    std::cout << "\npaper shape: speedup/saving mildly decrease as "
                 "density decreases\n(datasets above are ordered from "
                 "densest, WV, to sparsest, LJ).\n";
    return 0;
}
