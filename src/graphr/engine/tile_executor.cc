#include "tile_executor.hh"

#include <algorithm>
#include <bit>
#include <optional>
#include <span>

#include "common/logging.hh"
#include "rram/graph_engine.hh"

namespace graphr
{

namespace
{

/** One tile an add-op round touches: its plan position and the
 *  rows of it whose sources are active and carry edges. */
struct RoundTile
{
    std::uint32_t position = 0;
    std::uint64_t mask = 0;
};

/**
 * Finds the tiles each add-op round touches, in plan order: plan order
 * keeps every cost sum in the order a walk over the whole table adds
 * it. A round's ids (ascending) group into tile rows, vertex v in row
 * v / C, and each row's tiles come from the table's tile-row index. A
 * round that touches few tiles sorts them into plan order; one that
 * touches at least a sixteenth of the table scatters them by position
 * and reads the positions back in order, which costs less than the
 * sort and at most sixteen steps per tile touched.
 */
class RoundTiles
{
  public:
    RoundTiles(const TileMetaTable &table, std::uint32_t dim)
        : table_(table), dim_(dim)
    {
    }

    /** The tiles whose rowMask meets the active sources @p ids, each
     *  with the rows it meets. */
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
    /** Row masks by plan position in a wide round; zero between. */
    std::vector<std::uint64_t> masks_;
};

/**
 * sALU-reduce a GE result ((column, value) pairs of the tile at
 * column @p col0, ascending) into @p reg, indexed by absolute vertex
 * id. Entries equal to @p absent — the value an edge-free column
 * reads, 0 for a MAC and +infinity for an add-op — are not reduced,
 * and neither are the padding columns past the last vertex; so the
 * op count is that of a full-width walk.
 */
void
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

/** Price accumulated events and fill the shared report fields. */
void
finalizeReport(SimReport &report, const DeviceParams &device,
               const EnergyEvents &events)
{
    EnergyLedger ledger(device);
    ledger.events() = events;
    report.events = events;
    report.energy = ledger.breakdown();
    // Peripheral (ADC/driver/controller) active power over busy time.
    report.energy.peripheral =
        device.peripheralActiveWatts * report.seconds;
    report.joules = report.energy.total();
}

} // namespace

/**
 * Functional MAC state: scratch ledger, GE array, and every tile's
 * cells once its first visit has programmed it.
 */
struct TileExecutor::MacDatapath
{
    EnergyLedger scratch;
    GraphEngineArray ge;
    std::vector<std::optional<TileSnapshot>> kept;

    MacDatapath(const GraphRConfig &config, std::size_t num_tiles,
                bool apply_variation)
        : scratch(config.device),
          ge(config.tiling.crossbarDim,
             config.tiling.crossbarsPerGe * config.tiling.numGe,
             config.device, scratch),
          kept(num_tiles)
    {
        if (apply_variation && config.variationSigma > 0.0)
            ge.setVariation(config.variationSigma, config.variationSeed);
        ge.salu().configure(SaluOp::kAdd);
    }
};

TileExecutor::TileExecutor(const GraphRConfig &config, TilePlanPtr plan)
    : config_(config), costModel_(config), plan_(std::move(plan))
{
    GRAPHR_ASSERT(plan_ != nullptr, "executor needs a plan");
}

TileExecutor::~TileExecutor() = default;
TileExecutor::TileExecutor(TileExecutor &&) noexcept = default;
TileExecutor &TileExecutor::operator=(TileExecutor &&) noexcept = default;

/** Cost sums of one MAC pass over a set of tiles. */
struct TileExecutor::MacSums
{
    EnergyEvents events;
    double loadNs = 0.0;     // program+stream phase, one sweep
    double computeNs = 0.0;  // evaluation phase, one sweep
    double combinedNs = 0.0; // all phases fused (kPerSweep)
    double programNs = 0.0;
    double streamNs = 0.0;
    std::uint64_t tiles = 0;
    std::uint64_t nnz = 0;
};

void
TileExecutor::addMacTile(MacSums &sums, const TileMeta &meta,
                         std::uint32_t passes) const
{
    // One tile yields both its per-sweep compute phase and its
    // programming/streaming (load) phase; the charging policy decides
    // whether the latter repeats per sweep.
    const TileCost cost = costModel_.macTile(meta, sums.events, passes);
    sums.programNs += cost.programNs;
    sums.streamNs += cost.streamNs;
    sums.computeNs += cost.computeNs;
    sums.combinedNs += cost.totalNs(config_.pipelineTiles);
    sums.loadNs += config_.pipelineTiles
                       ? std::max(cost.overlappedProgramNs, cost.streamNs)
                       : cost.programNs + cost.streamNs;
    ++sums.tiles;
    sums.nnz += meta.nnz;
}

SimReport
TileExecutor::finishMac(const MacSpec &spec, const MacSums &sums) const
{
    SimReport report;
    report.algorithm = spec.name;
    report.iterations = spec.sweeps;
    report.occupancy = plan_->partition.occupancy(sums.nnz, sums.tiles);

    const double sweeps_d = static_cast<double>(spec.sweeps);
    const double overhead_ns =
        costModel_.iterationOverheadNs() * sweeps_d;
    const bool once = config_.programCharging == ProgramCharging::kOnce;

    double total_ns = 0.0;
    if (once) {
        total_ns = sums.loadNs + sums.computeNs * sweeps_d + overhead_ns;
        report.programSeconds = sums.programNs * 1e-9;
        report.streamSeconds = sums.streamNs * 1e-9;
    } else {
        total_ns = sums.combinedNs * sweeps_d + overhead_ns;
        report.programSeconds = sums.programNs * 1e-9 * sweeps_d;
        report.streamSeconds = sums.streamNs * 1e-9 * sweeps_d;
    }
    report.computeSeconds = sums.computeNs * 1e-9 * sweeps_d;
    report.seconds = total_ns * 1e-9;

    report.tilesProcessed = sums.tiles * spec.sweeps;
    report.tilesSkipped =
        (plan_->partition.numTiles() - sums.tiles) * spec.sweeps;
    report.edgesProcessed = sums.nnz * spec.sweeps;

    // Split events: programming/streaming vs evaluation.
    EnergyEvents load_events;
    load_events.arrayWrites = sums.events.arrayWrites;
    load_events.memBytes = sums.events.memBytes;
    EnergyEvents compute_events = sums.events;
    compute_events.arrayWrites = 0;
    compute_events.memBytes = 0;

    EnergyEvents total;
    for (std::uint64_t s = 0; s < spec.sweeps; ++s)
        total += compute_events;
    if (once) {
        total += load_events;
    } else {
        for (std::uint64_t s = 0; s < spec.sweeps; ++s)
            total += load_events;
    }
    finalizeReport(report, config_.device, total);
    return report;
}

SimReport
TileExecutor::macReport(const MacSpec &spec) const
{
    MacSums sums;
    for (const TileMeta &meta : plan_->meta.tiles())
        addMacTile(sums, meta, spec.passesPerTile);
    return finishMac(spec, sums);
}

std::vector<SimReport>
TileExecutor::macStripeReports(const MacSpec &spec,
                               std::uint32_t num_stripes) const
{
    GRAPHR_ASSERT(num_stripes > 0, "need at least one stripe");
    const GridPartition &part = plan_->partition;
    const std::uint64_t width =
        (part.numVertices() + num_stripes - 1) / num_stripes;
    std::vector<MacSums> sums(num_stripes);

    // A tile whose columns [col0, col0 + W) fall in one stripe goes to
    // it whole, priced from its stored TileMeta. Only a tile that
    // crosses a stripe boundary is decoded: its cells ascend by
    // column, so the stripes split them into one contiguous run each.
    const std::uint32_t dim = part.crossbarDim();
    const std::uint64_t last_vertex = part.numVertices() - 1;
    std::vector<std::uint64_t> locals;
    const std::vector<TileMeta> &tiles = plan_->meta.tiles();
    for (std::size_t t = 0; t < tiles.size(); ++t) {
        const TileMeta &meta = tiles[t];
        const std::uint64_t first = meta.col0 / width;
        if (std::min(meta.col0 + part.tileWidth() - 1, last_vertex) /
                width ==
            first) {
            addMacTile(sums[first], meta, spec.passesPerTile);
            continue;
        }
        std::span<const std::uint64_t> cells =
            plan_->ordered.decodeTileLocals(t, locals);
        while (!cells.empty()) {
            const std::uint64_t stripe =
                (meta.col0 + cells.front() / dim) / width;
            // The stripe's cells are those whose tile column, local /
            // C, lies below its end (stripe + 1) * width less col0.
            const std::uint64_t bound =
                ((stripe + 1) * width - meta.col0) * dim;
            const auto run_end = std::partition_point(
                cells.begin(), cells.end(),
                [bound](std::uint64_t local) { return local < bound; });
            const std::span<const std::uint64_t> run(cells.begin(),
                                                     run_end);
            addMacTile(sums[stripe],
                       describeTile(part, meta.tileIndex, run),
                       spec.passesPerTile);
            cells = cells.subspan(run.size());
        }
    }

    std::vector<SimReport> reports(num_stripes);
    for (std::uint32_t k = 0; k < num_stripes; ++k) {
        if (sums[k].tiles > 0)
            reports[k] = finishMac(spec, sums[k]);
    }
    return reports;
}

void
TileExecutor::functionalMacSweep(const MacSpec &spec,
                                 const std::vector<Value> &input,
                                 std::vector<Value> &accum)
{
    const std::uint64_t nv = input.size();
    GRAPHR_ASSERT(accum.size() == nv, "accumulator length ",
                  accum.size(), " != input length ", nv);
    if (!mac_) {
        mac_ = std::make_unique<MacDatapath>(
            config_, plan_->meta.tiles().size(), spec.applyVariation);
    }
    GraphEngineArray &ge = mac_->ge;

    std::vector<double> in_rows(config_.tiling.crossbarDim, 0.0);
    std::vector<ColumnValue> partial; // reused across tiles (hot loop)
    const std::vector<TileMeta> &tiles = plan_->meta.tiles();
    for (std::size_t t = 0; t < tiles.size(); ++t) {
        const TileMeta &meta = tiles[t];
        std::optional<TileSnapshot> &kept = mac_->kept[t];
        if (kept.has_value()) {
            ge.loadTile(*kept);
            countReplay();
        } else {
            plan_->ordered.decodeTile(t, tileEdges_);
            if (spec.edgeScale) {
                for (Edge &e : tileEdges_)
                    e.weight = spec.edgeScale(e);
            }
            ge.programTile(tileEdges_, meta.row0, meta.col0,
                           config_.weightFracBits);
            ++stats_.functionalTilePrograms;
            kept = ge.saveTile();
        }
        for (std::uint32_t r = 0; r < config_.tiling.crossbarDim; ++r) {
            const std::uint64_t v = meta.row0 + r;
            in_rows[r] = v < nv ? input[v] : 0.0;
        }
        ge.runMac(in_rows, config_.inputFracBits, config_.weightFracBits,
                  partial);
        reduceResults(ge.salu(), meta.col0, partial, 0.0, accum);
    }
}

SimReport
TileExecutor::addOpRun(const CooGraph &graph, const AddOpSpec &spec,
                       const char *name, std::vector<Value> *labels_out)
{
    SimReport report;
    report.algorithm = name;
    report.occupancy = plan_->ordered.occupancy();

    EnergyEvents events;
    double total_ns = 0.0;
    double prog_ns = 0.0;
    double comp_ns = 0.0;
    double stream_ns = 0.0;
    const bool once = config_.programCharging == ProgramCharging::kOnce;

    // Under kOnce the whole (preprocessed) graph is programmed into
    // ReRAM a single time before the rounds begin.
    if (once) {
        EnergyEvents load_events;
        for (const TileMeta &meta : plan_->meta.tiles()) {
            const TileCost cost =
                costModel_.addOpTile(meta, 0, load_events);
            prog_ns += cost.programNs;
            stream_ns += cost.streamNs;
            total_ns += config_.pipelineTiles
                            ? std::max(cost.overlappedProgramNs,
                                       cost.streamNs)
                            : cost.programNs + cost.streamNs;
        }
        events += load_events;
    }

    // Timing walk: synchronous relaxation rounds; each round prices
    // the tiles whose source rows meet its active ids.
    const std::vector<TileMeta> &tiles = plan_->meta.tiles();
    RoundTiles finder(plan_->meta, config_.tiling.crossbarDim);
    const auto price_round = [&](std::span<const VertexId> ids) {
        if (spec.onRound)
            spec.onRound(ids);
        const std::vector<RoundTile> &round_tiles = finder.collect(ids);
        report.tilesSkipped += tiles.size() - round_tiles.size();
        for (const RoundTile &touched : round_tiles) {
            const TileMeta &meta = tiles[touched.position];
            const auto rows =
                static_cast<std::uint32_t>(std::popcount(touched.mask));
            EnergyEvents tile_events;
            const TileCost cost =
                costModel_.addOpTile(meta, rows, tile_events);
            if (once) {
                // Graph is resident: only the evaluation phase runs.
                tile_events.arrayWrites = 0;
                tile_events.memBytes = 0;
                total_ns += cost.computeNs;
            } else {
                prog_ns += cost.programNs;
                stream_ns += cost.streamNs;
                total_ns += cost.totalNs(config_.pipelineTiles);
            }
            events += tile_events;
            comp_ns += cost.computeNs;
            ++report.tilesProcessed;
            report.activeRowOps += rows;
            const std::span<const std::uint32_t> row_nnz =
                plan_->meta.rowNnz(touched.position);
            for (std::uint64_t m = touched.mask; m != 0; m &= m - 1)
                report.edgesProcessed += row_nnz[std::countr_zero(m)];
        }
        total_ns += costModel_.iterationOverheadNs();
        ++report.iterations;
    };

    // The rounds come from the recorded schedule when there is one;
    // otherwise a live sweep relaxes them here.
    std::optional<RelaxationSweep> sweep;
    if (spec.schedule != nullptr && spec.schedule->recorded()) {
        for (int r = 0; r < spec.schedule->rounds(); ++r)
            price_round(spec.schedule->round(r));
    } else {
        sweep.emplace(graph, spec.initLabels, spec.initActive, spec.mode,
                      spec.directions);
        for (; !sweep->done(); sweep->step())
            price_round(sweep->activeIds());
    }

    report.seconds = total_ns * 1e-9;
    report.programSeconds = prog_ns * 1e-9;
    report.computeSeconds = comp_ns * 1e-9;
    report.streamSeconds = stream_ns * 1e-9;
    finalizeReport(report, config_.device, events);

    if (labels_out == nullptr)
        return report;

    if (config_.functional) {
        *labels_out = functionalAddOpSolve(graph, spec);
        return report;
    }
    if (!sweep.has_value()) {
        // Timing-mode labels are computed for the call, by the
        // relaxation the schedule recorded.
        sweep.emplace(graph, spec.initLabels, spec.initActive, spec.mode,
                      spec.directions);
        while (!sweep->done())
            sweep->step();
    }
    *labels_out = sweep->dist();
    return report;
}

std::vector<Value>
TileExecutor::functionalAddOpSolve(const CooGraph &graph,
                                   const AddOpSpec &spec)
{
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
    // A tile is programmed on its first activation; every later one
    // writes its kept cells back.
    std::vector<std::optional<TileSnapshot>> kept(tiles.size());

    std::vector<Value> dist = spec.initLabels;
    std::vector<VertexId> ids; // the round's active sources, ascending
    for (VertexId v = 0; v < nv; ++v) {
        if (spec.initActive[v])
            ids.push_back(v);
    }
    RoundTiles finder(plan_->meta, dim);
    std::vector<ColumnValue> cand; // reused across rows (hot loop)

    while (!ids.empty()) {
        std::vector<Value> next = dist;
        for (const RoundTile &touched : finder.collect(ids)) {
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
                // Integer distances/weights: 0 fractional bits is
                // exact. Parallel edges merge with min (relaxation
                // semantics).
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
                reduceResults(ge.salu(), meta.col0, cand, kInfDistance,
                              next);
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

} // namespace graphr
