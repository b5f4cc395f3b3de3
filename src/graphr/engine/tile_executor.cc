#include "tile_executor.hh"

#include <algorithm>
#include <bit>
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
 * sALU-reduce one GE result, column @p v's @p value, into @p reg,
 * indexed by absolute vertex id. A value equal to @p absent — what an
 * edge-free column reads, 0 for a MAC and +infinity for an add-op —
 * is not reduced, and neither is a padding column past the last
 * vertex; so the op count is that of a full-width walk.
 */
void
reduceResult(Salu &salu, std::uint64_t v, double value, double absent,
             std::vector<Value> &reg)
{
    if (v < reg.size() && value != absent)
        reg[v] = salu.reduce(reg[v], value);
}

/** reduceResult() over a GE result's (column, value) pairs, of the
 *  tile at column @p col0. */
void
reduceResults(Salu &salu, std::uint64_t col0,
              const std::vector<ColumnValue> &results, double absent,
              std::vector<Value> &reg)
{
    for (const ColumnValue &result : results)
        reduceResult(salu, col0 + result.col, result.value, absent, reg);
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
 * Functional MAC state: scratch ledger, GE array, the run's cell
 * store, each source's programmed weight under a per-source rule
 * (MacSpec::sourceDivisors), and the sweep's quantised input.
 */
struct TileExecutor::MacDatapath
{
    EnergyLedger scratch;
    GraphEngineArray ge;
    TileCellStore store;
    Reciprocal byDim;
    std::vector<double> sourceScale;
    std::vector<FixedPoint::Raw> rawInput;

    MacDatapath(const GraphRConfig &config, const TilePlan &plan,
                const MacSpec &spec)
        : scratch(config.device),
          ge(config.tiling.crossbarDim,
             config.tiling.crossbarsPerGe * config.tiling.numGe,
             config.device, scratch),
          store(plan.meta.tiles().size(), plan.ordered.numEdges()),
          byDim(config.tiling.crossbarDim)
    {
        if (spec.applyVariation && config.variationSigma > 0.0)
            ge.setVariation(config.variationSigma, config.variationSeed);
        ge.salu().configure(SaluOp::kAdd);
        const double numerator = spec.weightNumerator.value_or(1.0);
        sourceScale.resize(spec.sourceDivisors.size());
        for (std::size_t u = 0; u < sourceScale.size(); ++u) {
            const EdgeId divisor = spec.sourceDivisors[u];
            sourceScale[u] =
                divisor == 0 ? 0.0
                             : numerator / static_cast<double>(divisor);
        }
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
TileExecutor::programMacTile(const MacSpec &spec, std::size_t t)
{
    MacDatapath &mac = *mac_;
    const TileMeta &meta = plan_->meta.tiles()[t];
    // A fixed numerator (PageRank's damping) reads no weight.
    const bool read_weights = spec.sourceDivisors.empty() ||
                              !spec.weightNumerator.has_value();
    const std::span<const std::uint64_t> locals =
        plan_->ordered.decodeTileLocals(t, locals_,
                                        read_weights ? &weights_ : nullptr);
    // Empty when every weight of the tile is 1.0, or none was read.
    const std::span<const double> weights =
        read_weights ? std::span<const double>(weights_)
                     : std::span<const double>();
    const auto program = [&](auto weight_of) {
        mac.store.program(t, locals, mac.byDim, config_.weightFracBits,
                          CombineMode::kSum, weight_of);
    };
    if (!spec.sourceDivisors.empty()) {
        if (spec.weightNumerator.has_value() || weights.empty()) {
            const double *scale = mac.sourceScale.data() + meta.row0;
            program([scale](std::size_t, std::uint32_t row, std::uint64_t) {
                return scale[row];
            });
        } else {
            const EdgeId *divisor = spec.sourceDivisors.data() + meta.row0;
            program([weights, divisor](std::size_t i, std::uint32_t row,
                                       std::uint64_t) {
                return weights[i] / static_cast<double>(divisor[row]);
            });
        }
    } else if (spec.edgeScale) {
        program([&](std::size_t i, std::uint32_t row, std::uint64_t col) {
            return spec.edgeScale(
                Edge{static_cast<VertexId>(meta.row0 + row),
                     static_cast<VertexId>(meta.col0 + col),
                     weights.empty() ? 1.0 : weights[i]});
        });
    } else {
        program([weights](std::size_t i, std::uint32_t, std::uint64_t) {
            return weights.empty() ? 1.0 : weights[i];
        });
    }
}

void
TileExecutor::functionalMacSweep(const MacSpec &spec,
                                 const std::vector<Value> &input,
                                 std::vector<Value> &accum)
{
    const std::uint64_t nv = input.size();
    GRAPHR_ASSERT(accum.size() == nv, "accumulator length ",
                  accum.size(), " != input length ", nv);
    if (!mac_)
        mac_ = std::make_unique<MacDatapath>(config_, *plan_, spec);
    MacDatapath &mac = *mac_;
    GraphEngineArray &ge = mac.ge;

    // Each vertex's input is quantised once a sweep, not once per tile
    // of its row; rows past the last vertex read 0.
    const std::uint32_t dim = config_.tiling.crossbarDim;
    const std::uint64_t rows =
        std::max<std::uint64_t>(nv, plan_->partition.numVertices());
    mac.rawInput.assign((rows + dim - 1) / dim * dim, 0);
    for (std::uint64_t v = 0; v < nv; ++v) {
        mac.rawInput[v] =
            FixedPoint::quantize(input[v], config_.inputFracBits).raw();
    }
    const std::span<const FixedPoint::Raw> raw_input = mac.rawInput;

    const std::vector<TileMeta> &tiles = plan_->meta.tiles();
    for (std::size_t t = 0; t < tiles.size(); ++t) {
        const TileMeta &meta = tiles[t];
        if (mac.store.programmed(t)) {
            countReplay();
        } else {
            programMacTile(spec, t);
            ++stats_.functionalTilePrograms;
        }
        ge.load(mac.store.tile(t));
        Salu &salu = ge.salu();
        const std::uint64_t col0 = meta.col0;
        ge.runMacRaw(raw_input.subspan(meta.row0, dim),
                     config_.inputFracBits, config_.weightFracBits,
                     [&salu, col0, &accum](std::uint32_t col, double value) {
                         reduceResult(salu, col0 + col, value, 0.0, accum);
                     });
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

    forEachRound(graph, spec, price_round,
                 config_.functional ? nullptr : labels_out);

    report.seconds = total_ns * 1e-9;
    report.programSeconds = prog_ns * 1e-9;
    report.computeSeconds = comp_ns * 1e-9;
    report.streamSeconds = stream_ns * 1e-9;
    finalizeReport(report, config_.device, events);

    if (labels_out != nullptr && config_.functional)
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
    // A tile is programmed on its first activation; every later one
    // reads its cells in place. Integer distances and weights: 0
    // fractional bits is exact. Parallel edges merge with min
    // (relaxation semantics).
    TileCellStore store(tiles.size(), plan_->ordered.numEdges());
    const Reciprocal by_dim(dim);
    const bool weighted = spec.mode == WeightMode::kOriginal;
    const double fixed_weight = spec.mode == WeightMode::kZero ? 0.0 : 1.0;

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
            if (store.programmed(t)) {
                countReplay();
            } else {
                const std::span<const std::uint64_t> locals =
                    plan_->ordered.decodeTileLocals(
                        t, locals_, weighted ? &weights_ : nullptr);
                if (weighted && !weights_.empty()) {
                    store.program(t, locals, by_dim, 0, CombineMode::kMin,
                                  [this](std::size_t i, std::uint32_t,
                                         std::uint64_t) {
                                      return weights_[i];
                                  });
                } else {
                    store.program(t, locals, by_dim, 0, CombineMode::kMin,
                                  [fixed_weight](std::size_t, std::uint32_t,
                                                 std::uint64_t) {
                                      return fixed_weight;
                                  });
                }
                ++stats_.functionalTilePrograms;
            }
            ge.load(store.tile(t));
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
