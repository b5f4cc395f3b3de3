/**
 * @file
 * Ablation A2: column-major vs row-major streaming-apply order.
 *
 * Section 3.3 picks column-major because it needs a RegO only as
 * large as one subgraph's destination range, while row-major needs
 * RegO covering every destination of a source stripe; row-major in
 * exchange reads RegI once per stripe. Since ReRAM-technology
 * register writes cost more than reads, column-major wins. This
 * bench quantifies both register footprints and traffic on real
 * tile streams (PageRank on SD and WG).
 */

#include <set>

#include "bench/bench_util.hh"
#include "graph/preprocess.hh"
#include "graph/tile_meta.hh"

int
main()
{
    using namespace graphr;
    using namespace graphr::bench;

    banner("Ablation A2: Streaming-Apply Order (column vs row major)",
           "GraphR (HPCA'18), section 3.3 / Figure 11");

    TextTable table;
    table.header({"dataset", "order", "RegO entries", "RegI reads",
                  "RegO writes", "reg energy (J)"});

    const DeviceParams dev;
    for (const DatasetId id :
         {DatasetId::kSlashdot, DatasetId::kWebGoogle}) {
        const DatasetInfo &info = datasetInfo(id);
        const CooGraph g = loadDataset(id);
        const GridPartition part(g.numVertices(), TilingParams{});
        TileMetaTable meta(part);
        const OrderedEdgeList ordered(g, part, &meta);

        // Column-major (GraphR's choice): RegO spans one tile's
        // destinations; RegI is re-read for every tile (C sources).
        const std::uint64_t col_rego = part.tileWidth();
        std::uint64_t col_regi_reads = 0;
        std::uint64_t col_rego_writes = 0;
        // Row-major: tiles with the same source stripe processed
        // together; RegI read once per stripe, RegO spans the whole
        // destination range of the stripe (the padded vertex count
        // in the single-block setting).
        const std::uint64_t row_rego = part.paddedVertices();
        std::uint64_t row_regi_reads = 0;
        std::uint64_t row_rego_writes = 0;

        // Row-major visits tiles grouped by source stripe, so RegI is
        // read once per *distinct* stripe, not once per tile.
        std::set<std::uint64_t> stripes;
        for (const TileMeta &m : meta.tiles()) {
            col_regi_reads += part.crossbarDim();
            col_rego_writes += m.nnzColumns;
            row_rego_writes += m.nnzColumns;
            stripes.insert(m.row0);
        }
        row_regi_reads =
            static_cast<std::uint64_t>(stripes.size()) *
            part.crossbarDim();

        const double pj = 1e-12;
        const double col_j =
            (static_cast<double>(col_regi_reads) +
             2.0 * static_cast<double>(col_rego_writes)) *
            dev.regAccessEnergyPj * pj;
        const double row_j =
            (static_cast<double>(row_regi_reads) +
             2.0 * static_cast<double>(row_rego_writes)) *
            dev.regAccessEnergyPj * pj;

        table.row({info.shortName, "column-major (GraphR)",
                   std::to_string(col_rego),
                   std::to_string(col_regi_reads),
                   std::to_string(col_rego_writes),
                   TextTable::sci(col_j)});
        table.row({info.shortName, "row-major",
                   std::to_string(row_rego),
                   std::to_string(row_regi_reads),
                   std::to_string(row_rego_writes),
                   TextTable::sci(row_j)});
        std::cerr << "done " << info.shortName << "\n";
    }
    table.print(std::cout);
    std::cout << "\nexpected: row-major needs a RegO ~|V|/tileWidth "
                 "times larger for a modest saving in RegI reads;\n"
                 "GraphR picks column-major (register writes are the "
                 "expensive operation).\n";
    return 0;
}
