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

/** Bitmask of active rows [row0, row0 + dim) from an active vector. */
std::uint64_t
activeMask(const std::vector<bool> &active, std::uint64_t row0,
           std::uint32_t dim)
{
    std::uint64_t mask = 0;
    const std::uint64_t nv = active.size();
    for (std::uint32_t r = 0; r < dim; ++r) {
        const std::uint64_t v = row0 + r;
        if (v < nv && active[v])
            mask |= std::uint64_t{1} << r;
    }
    return mask;
}

/**
 * sALU-reduce a compact GE result (C values per occupied crossbar of
 * the tile at column @p col0) into @p reg, indexed by absolute vertex
 * id. Entries equal to @p absent — the value an edge-free column
 * reads, 0 for a MAC and +infinity for an add-op — are not reduced,
 * and neither are the padding columns past the last vertex; so the
 * op count is that of a full-width walk.
 */
void
reduceCompact(GraphEngineArray &ge, std::uint64_t col0,
              const std::vector<double> &compact, double absent,
              std::vector<Value> &reg)
{
    const std::uint64_t dim = ge.crossbarDim();
    const std::span<const std::uint32_t> occupied = ge.occupiedCrossbars();
    for (std::size_t k = 0; k < occupied.size(); ++k) {
        const std::uint64_t first = col0 + occupied[k] * dim;
        for (std::uint64_t c = 0; c < dim; ++c) {
            const std::uint64_t v = first + c;
            const double value = compact[k * dim + c];
            if (v < reg.size() && value != absent)
                reg[v] = ge.salu().reduce(reg[v], value);
        }
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

/** Functional MAC state: scratch ledger, GE array, resident tiles. */
struct TileExecutor::MacDatapath
{
    EnergyLedger scratch;
    GraphEngineArray ge;
    /** Per-tile resident snapshot (ProgramCharging::kOnce only). */
    std::vector<std::optional<TileSnapshot>> resident;

    MacDatapath(const GraphRConfig &config, std::size_t num_tiles,
                bool resident_mode, bool apply_variation)
        : scratch(config.device),
          ge(config.tiling.crossbarDim,
             config.tiling.crossbarsPerGe * config.tiling.numGe,
             config.device, scratch)
    {
        if (apply_variation && config.variationSigma > 0.0)
            ge.setVariation(config.variationSigma, config.variationSeed);
        ge.salu().configure(SaluOp::kAdd);
        if (resident_mode)
            resident.resize(num_tiles);
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

SimReport
TileExecutor::macReport(const MacSpec &spec) const
{
    SimReport report;
    report.algorithm = spec.name;
    report.iterations = spec.sweeps;
    report.occupancy = plan_->ordered.occupancy();

    // One pass over the tile table yields both the per-sweep compute
    // phase and the programming/streaming (load) phase; the charging
    // policy decides whether the latter repeats per sweep.
    EnergyEvents tile_events;
    double load_ns = 0.0;    // program+stream phase, one sweep
    double compute_ns = 0.0; // evaluation phase, one sweep
    double combined_ns = 0.0; // all phases fused (kPerSweep)
    double prog_ns = 0.0;
    double stream_ns = 0.0;
    for (const TileMeta &meta : plan_->meta.tiles()) {
        const TileCost cost =
            costModel_.macTile(meta, tile_events, spec.passesPerTile);
        prog_ns += cost.programNs;
        stream_ns += cost.streamNs;
        compute_ns += cost.computeNs;
        combined_ns += cost.totalNs(config_.pipelineTiles);
        load_ns += config_.pipelineTiles
                       ? std::max(cost.overlappedProgramNs,
                                  cost.streamNs)
                       : cost.programNs + cost.streamNs;
    }

    const double sweeps_d = static_cast<double>(spec.sweeps);
    const double overhead_ns =
        costModel_.iterationOverheadNs() * sweeps_d;
    const bool once = config_.programCharging == ProgramCharging::kOnce;

    double total_ns = 0.0;
    if (once) {
        total_ns = load_ns + compute_ns * sweeps_d + overhead_ns;
        report.programSeconds = prog_ns * 1e-9;
        report.streamSeconds = stream_ns * 1e-9;
    } else {
        total_ns = combined_ns * sweeps_d + overhead_ns;
        report.programSeconds = prog_ns * 1e-9 * sweeps_d;
        report.streamSeconds = stream_ns * 1e-9 * sweeps_d;
    }
    report.computeSeconds = compute_ns * 1e-9 * sweeps_d;
    report.seconds = total_ns * 1e-9;

    const auto tiles = static_cast<std::uint64_t>(
        plan_->meta.tiles().size());
    report.tilesProcessed = tiles * spec.sweeps;
    report.tilesSkipped =
        (plan_->partition.numTiles() - tiles) * spec.sweeps;
    report.edgesProcessed = plan_->meta.totalNnz() * spec.sweeps;

    // Split events: programming/streaming vs evaluation.
    EnergyEvents load_events;
    load_events.arrayWrites = tile_events.arrayWrites;
    load_events.memBytes = tile_events.memBytes;
    EnergyEvents compute_events = tile_events;
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
            config_, plan_->meta.tiles().size(), residentWeights(),
            spec.applyVariation);
    }
    GraphEngineArray &ge = mac_->ge;

    std::vector<Edge> scaled;
    std::vector<double> in_rows(config_.tiling.crossbarDim, 0.0);
    std::vector<double> partial; // reused across tiles (hot loop)
    const std::vector<TileMeta> &tiles = plan_->meta.tiles();
    for (std::size_t t = 0; t < tiles.size(); ++t) {
        const TileMeta &meta = tiles[t];
        if (residentWeights() && mac_->resident[t].has_value()) {
            ge.loadTile(*mac_->resident[t]);
            ++stats_.functionalTileLoads;
        } else {
            const TileSpan &span = plan_->ordered.tiles()[t];
            std::span<const Edge> tile_edges =
                plan_->ordered.tileEdges(span);
            if (spec.edgeScale) {
                scaled.clear();
                for (const Edge &e : tile_edges)
                    scaled.push_back(
                        Edge{e.src, e.dst, spec.edgeScale(e)});
                tile_edges = scaled;
            }
            ge.programTile(tile_edges, meta.row0, meta.col0,
                           config_.weightFracBits);
            ++stats_.functionalTilePrograms;
            if (residentWeights())
                mac_->resident[t] = ge.saveTile(config_.weightFracBits);
        }
        for (std::uint32_t r = 0; r < config_.tiling.crossbarDim; ++r) {
            const std::uint64_t v = meta.row0 + r;
            in_rows[r] = v < nv ? input[v] : 0.0;
        }
        ge.runMac(in_rows, config_.inputFracBits, config_.weightFracBits,
                  partial);
        reduceCompact(ge, meta.col0, partial, 0.0, accum);
    }
}

SimReport
TileExecutor::addOpRun(const CooGraph &graph, const AddOpSpec &spec,
                       const char *name, std::vector<Value> *labels_out)
{
    const std::uint32_t dim = config_.tiling.crossbarDim;

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

    // Timing walk: synchronous relaxation rounds; each round visits
    // every tile whose source range intersects the active set.
    RelaxationSweep sweep(graph, spec.initLabels, spec.initActive,
                          spec.mode);
    while (!sweep.done()) {
        const std::vector<bool> &active = sweep.active();
        for (const TileMeta &meta : plan_->meta.tiles()) {
            const std::uint64_t mask =
                meta.rowMask & activeMask(active, meta.row0, dim);
            if (mask == 0) {
                ++report.tilesSkipped;
                continue;
            }
            const auto rows =
                static_cast<std::uint32_t>(std::popcount(mask));
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
            std::uint64_t m = mask;
            while (m != 0) {
                const int r = std::countr_zero(m);
                report.edgesProcessed += meta.rowNnz[r];
                m &= m - 1;
            }
        }
        total_ns += costModel_.iterationOverheadNs();
        ++report.iterations;
        sweep.step();
    }

    report.seconds = total_ns * 1e-9;
    report.programSeconds = prog_ns * 1e-9;
    report.computeSeconds = comp_ns * 1e-9;
    report.streamSeconds = stream_ns * 1e-9;
    finalizeReport(report, config_.device, events);

    if (labels_out == nullptr)
        return report;

    if (!config_.functional) {
        *labels_out = sweep.dist();
        return report;
    }
    *labels_out = functionalAddOpSolve(graph, spec);
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
    // Resident mode: a tile is programmed on its first activation and
    // replayed on every later one.
    std::vector<std::optional<TileSnapshot>> snapshots(
        residentWeights() ? tiles.size() : 0);

    std::vector<Value> dist = spec.initLabels;
    std::vector<bool> active = spec.initActive;
    std::uint64_t active_count = 0;
    for (const bool a : active)
        active_count += a ? 1 : 0;
    std::vector<Edge> rewritten_edges;
    std::vector<double> cand; // reused across rows (hot loop)

    while (active_count > 0) {
        std::vector<Value> next = dist;
        for (std::size_t t = 0; t < tiles.size(); ++t) {
            const TileMeta &meta = tiles[t];
            const std::uint64_t mask =
                meta.rowMask & activeMask(active, meta.row0, dim);
            if (mask == 0)
                continue;
            if (residentWeights() && snapshots[t].has_value()) {
                ge.loadTile(*snapshots[t]);
                ++stats_.functionalTileLoads;
            } else {
                const TileSpan &span = plan_->ordered.tiles()[t];
                std::span<const Edge> tile_edges =
                    plan_->ordered.tileEdges(span);
                if (spec.mode != WeightMode::kOriginal) {
                    rewritten_edges.assign(tile_edges.begin(),
                                           tile_edges.end());
                    const double w =
                        spec.mode == WeightMode::kUnit ? 1.0 : 0.0;
                    for (Edge &e : rewritten_edges)
                        e.weight = w;
                    tile_edges = rewritten_edges;
                }
                // Integer distances/weights: 0 fractional bits is
                // exact. Parallel edges merge with min (relaxation
                // semantics).
                ge.programTile(tile_edges, meta.row0, meta.col0, 0,
                               CombineMode::kMin);
                ++stats_.functionalTilePrograms;
                if (residentWeights())
                    snapshots[t] = ge.saveTile(0);
            }
            std::uint64_t m = mask;
            while (m != 0) {
                const int r = std::countr_zero(m);
                m &= m - 1;
                ge.runAddOp(
                    static_cast<std::uint32_t>(r),
                    dist[meta.row0 + static_cast<std::uint64_t>(r)],
                    0, cand);
                reduceCompact(ge, meta.col0, cand, kInfDistance, next);
            }
        }

        active_count = 0;
        for (VertexId v = 0; v < nv; ++v) {
            active[v] = next[v] < dist[v];
            if (active[v])
                ++active_count;
        }
        dist = std::move(next);
    }
    return dist;
}

} // namespace graphr
