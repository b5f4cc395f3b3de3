/**
 * @file
 * Ablation A1: crossbar size sweep.
 *
 * Section 3.1 argues the sparsity waste is confined to crossbars of
 * "moderate size (e.g. 8x8)". This bench sweeps C for PageRank on
 * Slashdot at constant total cell count (C^2 * N * G cells), showing
 * the occupancy/parallelism trade-off the paper's choice of C = 8
 * balances: bigger crossbars waste more cells on zeros, smaller ones
 * lose parallelism and add ADC pressure per useful cell.
 */

#include "bench/bench_util.hh"

int
main()
{
    using namespace graphr;
    using namespace graphr::bench;

    banner("Ablation A1: Crossbar Size Sweep (PageRank on SD)",
           "design choice, GraphR (HPCA'18) section 3.1");

    const CooGraph g = loadDataset(DatasetId::kSlashdot);
    const BaselineReport cpu = CpuModel().runPageRank(g, kPrIterations);

    PageRankParams pr_params;
    pr_params.maxIterations = kPrIterations;
    pr_params.tolerance = 0.0;

    TextTable table;
    table.header({"C", "N", "G", "total cells", "occupancy",
                  "time (s)", "energy (J)", "speedup", "energy saving"});

    // Keep C*C*N*G = 8*8*32*64 = 131072 cells constant.
    const std::uint64_t total_cells = 8ull * 8 * 32 * 64;
    for (std::uint32_t c : {4u, 8u, 16u, 32u}) {
        GraphRConfig cfg;
        cfg.tiling.crossbarDim = c;
        const std::uint64_t per_cb =
            static_cast<std::uint64_t>(c) * c;
        const std::uint64_t crossbars = total_cells / per_cb;
        cfg.tiling.numGe = 64;
        cfg.tiling.crossbarsPerGe =
            static_cast<std::uint32_t>(crossbars / cfg.tiling.numGe);
        GraphRNode node(cfg);
        const SimReport rep = node.runPageRank(g, pr_params);
        table.row({std::to_string(c),
                   std::to_string(cfg.tiling.crossbarsPerGe),
                   std::to_string(cfg.tiling.numGe),
                   std::to_string(per_cb * cfg.tiling.crossbarsPerGe *
                                  cfg.tiling.numGe),
                   TextTable::sci(rep.occupancy),
                   TextTable::sci(rep.seconds),
                   TextTable::sci(rep.joules),
                   TextTable::num(cpu.seconds / rep.seconds),
                   TextTable::num(cpu.joules / rep.joules)});
        std::cerr << "done C=" << c << "\n";
    }
    table.print(std::cout);
    std::cout << "\nexpected: occupancy rises with C (at a constant "
                 "cell count, taller and narrower tiles hold the same "
                 "edges in fewer non-empty tiles); the paper picks "
                 "C = 8.\n";
    return 0;
}
