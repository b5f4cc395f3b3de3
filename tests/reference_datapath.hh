/**
 * @file
 * The functional datapath that copied every tile's cells as a
 * snapshot, kept verbatim as a differential reference: the GE array
 * that owned its tile (programTile from edges, saveTile/loadTile,
 * runMac, runAddOp), its llround quantiser, and the executor's MAC
 * sweep and add-op solve over a plan, which decoded each tile's edges
 * and scaled them per edge through MacSpec::edgeScale. The datapath
 * that programs a run's flat cell store from each tile's local ids
 * must give what this path gives, bit for bit: outputs, MVM rows and
 * program and load counts.
 */

#ifndef GRAPHR_TESTS_REFERENCE_DATAPATH_HH
#define GRAPHR_TESTS_REFERENCE_DATAPATH_HH

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "algorithms/traversal.hh"
#include "common/logging.hh"
#include "graphr/config.hh"
#include "graphr/engine/tile_executor.hh"
#include "graphr/engine/tile_plan.hh"
#include "rram/crossbar.hh"
#include "rram/energy.hh"
#include "rram/graph_engine.hh"
#include "rram/salu.hh"

namespace graphr::reference
{

/** FixedPoint::quantize(value, frac_bits).raw() as it rounded, with
 *  llround. */
inline FixedPoint::Raw
quantize(double value, int frac_bits)
{
    GRAPHR_ASSERT(frac_bits >= 0 && frac_bits <= kValueBits,
                  "frac_bits=", frac_bits);
    GRAPHR_ASSERT(value >= 0.0 || std::abs(value) < 1e-12,
                  "negative value ", value,
                  " not representable in unsigned fixed point");
    const double scaled = std::max(0.0, value) *
                          static_cast<double>(1u << frac_bits);
    const double max_raw = 65535.0;
    const double clamped = std::min(scaled, max_raw);
    return static_cast<FixedPoint::Raw>(std::llround(clamped));
}

/** A programmed tile: its cells and the wordlines an MVM reads. */
struct TileSnapshot
{
    struct CellValue
    {
        std::uint32_t col = 0; ///< tile-relative column
        FixedPoint::Raw raw = 0;
        std::uint16_t row = 0; ///< tile-relative row
    };
    std::vector<CellValue> cells;
    std::uint64_t mvmRows = 0;
};

/** The GE array that owned and copied its tile. */
class GraphEngineArray
{
  public:
    GraphEngineArray(std::uint32_t crossbar_dim,
                     std::uint32_t num_crossbars,
                     const DeviceParams &params, EnergyLedger &ledger)
        : crossbarDim_(crossbar_dim), numCrossbars_(num_crossbars),
          params_(params), ledger_(ledger)
    {
        GRAPHR_ASSERT(num_crossbars > 0, "need >= 1 crossbar");
        GRAPHR_ASSERT(crossbarDim_ > 0 && crossbarDim_ <= 64,
                      "row masks support crossbars up to 64x64");
        GRAPHR_ASSERT(tileWidth() <=
                          std::numeric_limits<std::uint32_t>::max(),
                      "tile width ", tileWidth(),
                      " exceeds 32-bit columns");
        rawIn_.resize(crossbarDim_);
        columns_.resize(crossbarDim_);
    }

    std::uint64_t
    tileWidth() const
    {
        return static_cast<std::uint64_t>(crossbarDim_) * numCrossbars_;
    }

    TileActivity
    programTile(std::span<const Edge> edges, std::uint64_t row0,
                std::uint64_t col0, int weight_frac_bits,
                CombineMode combine = CombineMode::kSum)
    {
        mirrorTile(false);

        // (crossbar, column, row) order is tile-column-major order: the
        // order a plan's tile stream already arrives in (Eq. 8).
        const std::uint64_t dim = crossbarDim_;
        const auto cell_key = [row0, col0, dim](const Edge &e) {
            return (e.dst - col0) * dim + (e.src - row0);
        };
        bool sorted = true;
        for (std::size_t i = 0; i < edges.size(); ++i) {
            const Edge &e = edges[i];
            GRAPHR_ASSERT(e.src >= row0 && e.src - row0 < crossbarDim_,
                          "edge row ", e.src, " outside tile at ", row0);
            GRAPHR_ASSERT(e.dst >= col0 && e.dst - col0 < tileWidth(),
                          "edge col ", e.dst, " outside tile at ", col0);
            if (i > 0 && cell_key(edges[i - 1]) > cell_key(e))
                sorted = false;
        }
        std::span<const Edge> cells = edges;
        if (!sorted) {
            sorted_.assign(edges.begin(), edges.end());
            std::stable_sort(sorted_.begin(), sorted_.end(),
                             [&cell_key](const Edge &a, const Edge &b) {
                                 return cell_key(a) < cell_key(b);
                             });
            cells = sorted_;
        }

        // A crossbar cell holds one value: parallel edges are adjacent
        // now, and fold in input order (sum for additive reduces, min for
        // relaxation).
        tile_.cells.clear();
        for (std::size_t i = 0; i < cells.size();) {
            const std::uint64_t key = cell_key(cells[i]);
            double weight = cells[i].weight;
            std::size_t j = i + 1;
            for (; j < cells.size() && cell_key(cells[j]) == key; ++j) {
                weight = combine == CombineMode::kSum
                             ? weight + cells[j].weight
                             : std::min(weight, cells[j].weight);
            }
            tile_.cells.push_back(TileSnapshot::CellValue{
                static_cast<std::uint32_t>(key / dim),
                quantize(weight, weight_frac_bits),
                static_cast<std::uint16_t>(key % dim)});
            i = j;
        }

        // Per occupied crossbar, one array write op programs each
        // wordline holding a cell (all its bitlines, hence all slices of
        // the row's values at once), and an MVM reads each wordline
        // holding a nonzero one.
        TileActivity activity;
        activity.cellWrites = edges.size();
        tile_.mvmRows = 0;
        const std::vector<TileSnapshot::CellValue> &placed = tile_.cells;
        for (std::size_t i = 0; i < placed.size();) {
            const std::uint32_t cb = placed[i].col / crossbarDim_;
            std::uint64_t written = 0;
            std::uint64_t nonzero = 0;
            for (; i < placed.size() && placed[i].col / crossbarDim_ == cb;
                 ++i) {
                written |= std::uint64_t{1} << placed[i].row;
                nonzero |= std::uint64_t{placed[i].raw != 0}
                           << placed[i].row;
            }
            const auto rows =
                static_cast<std::uint32_t>(std::popcount(written));
            ++activity.crossbarsUsed;
            activity.maxRowsProgrammed =
                std::max(activity.maxRowsProgrammed, rows);
            activity.rowWriteOps += rows;
            tile_.mvmRows +=
                static_cast<std::uint64_t>(std::popcount(nonzero));
        }

        mirrorTile(true);
        ledger_.events().arrayWrites += activity.rowWriteOps;
        return activity;
    }

    TileSnapshot saveTile() const { return tile_; }

    void
    loadTile(const TileSnapshot &snapshot)
    {
        mirrorTile(false);
        tile_ = snapshot;
        mirrorTile(true);
    }

    void
    runMac(const std::vector<double> &input, int input_frac_bits,
           int weight_frac_bits, std::vector<ColumnValue> &out)
    {
        GRAPHR_ASSERT(input.size() == crossbarDim_, "input length ",
                      input.size(), " != C ", crossbarDim_);

        for (std::uint32_t r = 0; r < crossbarDim_; ++r)
            rawIn_[r] = quantize(input[r], input_frac_bits);

        const double scale =
            static_cast<double>(1u << input_frac_bits) *
            static_cast<double>(1u << weight_frac_bits);

        // Exact: slice recombination distributes over the row sum, so the
        // slice-serial MVM of a column is its cells' uint64 dot product
        // with the raw inputs. Under variation the crossbar's reading
        // replaces that sum: each occupied crossbar runs its MVM once,
        // when the walk reaches it, and counts the rows it reads.
        const std::vector<TileSnapshot::CellValue> &cells = tile_.cells;
        const bool exact = crossbars_.empty();
        std::uint32_t read_cb = std::numeric_limits<std::uint32_t>::max();
        out.clear();
        for (std::size_t i = 0; i < cells.size();) {
            const std::uint32_t col = cells[i].col;
            std::uint64_t sum = 0;
            for (; i < cells.size() && cells[i].col == col; ++i) {
                sum += static_cast<std::uint64_t>(rawIn_[cells[i].row]) *
                       cells[i].raw;
            }
            if (!exact) {
                const std::uint32_t cb = col / crossbarDim_;
                if (cb != read_cb) {
                    crossbars_[cb].mvmRawInto(rawIn_, columns_);
                    read_cb = cb;
                }
                sum = columns_[col % crossbarDim_];
            }
            out.push_back(
                ColumnValue{col, static_cast<double>(sum) / scale});
        }
        if (exact)
            Crossbar::countMvmRows(tile_.mvmRows);

        // Every crossbar of the array is read, occupied or not: one
        // array read per input slice, one ADC sample per physical bitline
        // (C values x weight slices) per input slice.
        const std::uint64_t n = numCrossbars_;
        const auto in_slices =
            static_cast<std::uint64_t>(params_.inputSlices);
        const std::uint64_t samples =
            in_slices * crossbarDim_ * params_.slicesPerValue() * n;
        ledger_.events().arrayReads += in_slices * n;
        ledger_.events().adcSamples += samples;
        ledger_.events().sampleHolds += samples;
        ledger_.events().shiftAdds += tileWidth();
    }

    void
    runAddOp(std::uint32_t row, double dist_u, int weight_frac_bits,
             std::vector<ColumnValue> &out)
    {
        GRAPHR_ASSERT(row < crossbarDim_, "row ", row, " outside tile");

        const double w_scale = static_cast<double>(1u << weight_frac_bits);
        std::uint32_t read_cb = std::numeric_limits<std::uint32_t>::max();
        std::vector<FixedPoint::Raw> row_vals;
        out.clear();
        for (const TileSnapshot::CellValue &cell : tile_.cells) {
            if (cell.row != row)
                continue;
            FixedPoint::Raw raw = cell.raw;
            if (!crossbars_.empty()) {
                // Under variation each crossbar holding an edge in the
                // row reads the wordline once, in ascending order.
                const std::uint32_t cb = cell.col / crossbarDim_;
                if (cb != read_cb) {
                    row_vals = crossbars_[cb].selectRow(row);
                    read_cb = cb;
                }
                raw = row_vals[cell.col % crossbarDim_];
            }
            // The fixed "1" row adds dist(u) to each weight in analog
            // (paper Fig. 16(c)); functionally that is w + dist_u.
            out.push_back(ColumnValue{
                cell.col, static_cast<double>(raw) / w_scale + dist_u});
        }

        // Every crossbar of the array reads the selected wordline.
        const std::uint64_t n = numCrossbars_;
        const std::uint64_t samples =
            n * crossbarDim_ * params_.slicesPerValue();
        ledger_.events().arrayReads += n;
        ledger_.events().adcSamples += samples;
        ledger_.events().sampleHolds += samples;
        ledger_.events().shiftAdds += tileWidth();
    }

    Salu &salu() { return salu_; }

    void
    setVariation(double sigma_levels, std::uint64_t seed)
    {
        GRAPHR_ASSERT(tile_.cells.empty(),
                      "set variation before programming a tile");
        crossbars_.clear();
        if (sigma_levels <= 0.0)
            return;
        crossbars_.reserve(numCrossbars_);
        for (std::uint32_t i = 0; i < numCrossbars_; ++i) {
            crossbars_.emplace_back(crossbarDim_, params_);
            crossbars_.back().setVariation(sigma_levels, seed + i);
        }
    }

  private:
    std::uint32_t crossbarDim_;
    std::uint32_t numCrossbars_;
    DeviceParams params_;
    EnergyLedger &ledger_;
    TileSnapshot tile_;
    std::vector<Crossbar> crossbars_;
    std::vector<FixedPoint::Raw> rawIn_;
    std::vector<std::uint64_t> columns_;
    std::vector<Edge> sorted_;
    Salu salu_{SaluOp::kAdd};

    void
    mirrorTile(bool program)
    {
        if (crossbars_.empty())
            return;
        for (const TileSnapshot::CellValue &cell : tile_.cells) {
            Crossbar &crossbar = crossbars_[cell.col / crossbarDim_];
            if (program) {
                crossbar.programValue(cell.row, cell.col % crossbarDim_,
                                      FixedPoint::fromRaw(cell.raw, 0));
            } else {
                crossbar.clear();
            }
        }
    }
};

namespace detail
{

/** One tile an add-op round touches (tile_executor.cc). */
struct RoundTile
{
    std::uint32_t position = 0;
    std::uint64_t mask = 0;
};

/** The executor's round tile finder (tile_executor.cc). */
class RoundTiles
{
  public:
    RoundTiles(const TileMetaTable &table, std::uint32_t dim)
        : table_(table), dim_(dim)
    {
    }

    const std::vector<RoundTile> &
    collect(std::span<const VertexId> ids)
    {
        out_.clear();
        const std::vector<TileMeta> &tiles = table_.tiles();
        std::uint64_t prev_row = 0;
        for (std::size_t i = 0; i < ids.size();) {
            const std::uint64_t row = ids[i] / dim_;
            GRAPHR_ASSERT(i == 0 || row > prev_row,
                          "round ids not ascending at vertex ", ids[i]);
            prev_row = row;
            const std::uint64_t row0 = row * dim_;
            std::uint64_t active = 0;
            for (; i < ids.size() && ids[i] - row0 < dim_; ++i)
                active |= std::uint64_t{1} << (ids[i] - row0);
            for (const std::uint32_t t : table_.rowTiles(row)) {
                const std::uint64_t mask = tiles[t].rowMask & active;
                if (mask != 0)
                    out_.push_back(RoundTile{t, mask});
            }
        }

        if (out_.size() * 16 < tiles.size()) {
            std::sort(out_.begin(), out_.end(),
                      [](const RoundTile &a, const RoundTile &b) {
                          return a.position < b.position;
                      });
            return out_;
        }
        masks_.resize(tiles.size());
        for (const RoundTile &touched : out_)
            masks_[touched.position] = touched.mask;
        out_.clear();
        for (std::size_t t = 0; t < masks_.size(); ++t) {
            if (masks_[t] != 0) {
                out_.push_back(
                    RoundTile{static_cast<std::uint32_t>(t), masks_[t]});
                masks_[t] = 0;
            }
        }
        return out_;
    }

  private:
    const TileMetaTable &table_;
    std::uint32_t dim_;
    std::vector<RoundTile> out_;
    std::vector<std::uint64_t> masks_;
};

inline void
reduceResults(Salu &salu, std::uint64_t col0,
              const std::vector<ColumnValue> &results, double absent,
              std::vector<Value> &reg)
{
    for (const ColumnValue &result : results) {
        const std::uint64_t v = col0 + result.col;
        if (v < reg.size() && result.value != absent)
            reg[v] = salu.reduce(reg[v], result.value);
    }
}

} // namespace detail

/**
 * TileExecutor::functionalMacSweep's state and loop: one instance per
 * run, its sweeps programming each tile on the first and writing its
 * kept snapshot back on every later one.
 */
class MacRun
{
  public:
    MacRun(const GraphRConfig &config, TilePlanPtr plan,
           bool apply_variation)
        : config_(config), plan_(std::move(plan)),
          scratch(config.device),
          ge(config.tiling.crossbarDim,
             config.tiling.crossbarsPerGe * config.tiling.numGe,
             config.device, scratch),
          kept(plan_->meta.tiles().size())
    {
        if (apply_variation && config.variationSigma > 0.0)
            ge.setVariation(config.variationSigma, config.variationSeed);
        ge.salu().configure(SaluOp::kAdd);
    }

    /** One sweep; @p edge_scale as MacSpec::edgeScale was. */
    void
    sweep(const std::function<double(const Edge &)> &edge_scale,
          const std::vector<Value> &input, std::vector<Value> &accum)
    {
        const std::uint64_t nv = input.size();
        std::vector<double> in_rows(config_.tiling.crossbarDim, 0.0);
        std::vector<ColumnValue> partial;
        const std::vector<TileMeta> &tiles = plan_->meta.tiles();
        for (std::size_t t = 0; t < tiles.size(); ++t) {
            const TileMeta &meta = tiles[t];
            std::optional<TileSnapshot> &kept_tile = kept[t];
            if (kept_tile.has_value()) {
                ge.loadTile(*kept_tile);
                countReplay();
            } else {
                plan_->ordered.decodeTile(t, tileEdges_);
                if (edge_scale) {
                    for (Edge &e : tileEdges_)
                        e.weight = edge_scale(e);
                }
                ge.programTile(tileEdges_, meta.row0, meta.col0,
                               config_.weightFracBits);
                ++stats.functionalTilePrograms;
                kept_tile = ge.saveTile();
            }
            for (std::uint32_t r = 0; r < config_.tiling.crossbarDim;
                 ++r) {
                const std::uint64_t v = meta.row0 + r;
                in_rows[r] = v < nv ? input[v] : 0.0;
            }
            ge.runMac(in_rows, config_.inputFracBits,
                      config_.weightFracBits, partial);
            detail::reduceResults(ge.salu(), meta.col0, partial, 0.0,
                                  accum);
        }
    }

    EngineStats stats;

  private:
    void
    countReplay()
    {
        ++(config_.programCharging == ProgramCharging::kOnce
               ? stats.functionalTileLoads
               : stats.functionalTilePrograms);
    }

    GraphRConfig config_;
    TilePlanPtr plan_;
    EnergyLedger scratch;
    GraphEngineArray ge;
    std::vector<std::optional<TileSnapshot>> kept;
    std::vector<Edge> tileEdges_;
};

/** TileExecutor::functionalAddOpSolve: the final labels, counting
 *  programs and loads into @p stats. */
inline std::vector<Value>
addOpSolve(const GraphRConfig &config_, const TilePlan &plan,
           const CooGraph &graph, const AddOpSpec &spec,
           EngineStats &stats_)
{
    const auto countReplay = [&] {
        ++(config_.programCharging == ProgramCharging::kOnce
               ? stats_.functionalTileLoads
               : stats_.functionalTilePrograms);
    };
    std::vector<Edge> tileEdges_;
    const TilePlan *plan_ = &plan;

    const VertexId nv = graph.numVertices();
    const std::uint32_t dim = config_.tiling.crossbarDim;

    EnergyLedger scratch(config_.device);
    GraphEngineArray ge(dim,
                        config_.tiling.crossbarsPerGe *
                            config_.tiling.numGe,
                        config_.device, scratch);
    if (config_.variationSigma > 0.0)
        ge.setVariation(config_.variationSigma, config_.variationSeed);
    ge.salu().configure(SaluOp::kMin);

    const std::vector<TileMeta> &tiles = plan_->meta.tiles();
    std::vector<std::optional<TileSnapshot>> kept(tiles.size());

    std::vector<Value> dist = spec.initLabels;
    std::vector<VertexId> ids;
    for (VertexId v = 0; v < nv; ++v) {
        if (spec.initActive[v])
            ids.push_back(v);
    }
    detail::RoundTiles finder(plan_->meta, dim);
    std::vector<ColumnValue> cand;

    while (!ids.empty()) {
        std::vector<Value> next = dist;
        for (const detail::RoundTile &touched : finder.collect(ids)) {
            const std::size_t t = touched.position;
            const TileMeta &meta = tiles[t];
            if (kept[t].has_value()) {
                ge.loadTile(*kept[t]);
                countReplay();
            } else {
                plan_->ordered.decodeTile(t, tileEdges_);
                if (spec.mode != WeightMode::kOriginal) {
                    const double w =
                        spec.mode == WeightMode::kUnit ? 1.0 : 0.0;
                    for (Edge &e : tileEdges_)
                        e.weight = w;
                }
                ge.programTile(tileEdges_, meta.row0, meta.col0, 0,
                               CombineMode::kMin);
                ++stats_.functionalTilePrograms;
                kept[t] = ge.saveTile();
            }
            std::uint64_t m = touched.mask;
            while (m != 0) {
                const int r = std::countr_zero(m);
                m &= m - 1;
                ge.runAddOp(
                    static_cast<std::uint32_t>(r),
                    dist[meta.row0 + static_cast<std::uint64_t>(r)],
                    0, cand);
                detail::reduceResults(ge.salu(), meta.col0, cand,
                                      kInfDistance, next);
            }
        }

        ids.clear();
        for (VertexId v = 0; v < nv; ++v) {
            if (next[v] < dist[v])
                ids.push_back(v);
        }
        dist = std::move(next);
    }
    return dist;
}

} // namespace graphr::reference

#endif // GRAPHR_TESTS_REFERENCE_DATAPATH_HH
