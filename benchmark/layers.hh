/**
 * @file
 * The traced run's view of the program: a sweep or a request broken
 * into the public calls it consists of, each under its own span, a
 * probe that calls the layer functions the operation does not reach,
 * and the per-layer metrics computed from those spans.
 *
 * Span names are the per-layer vocabulary (README.md):
 *   driver.sweep / driver.run   one operation (the root span)
 *   driver.resolve              driver::resolveDataset
 *   driver.report_json          writeResultsJson / resultsResponse
 *   graph.fingerprint           graphFingerprint
 *   engine.plan_get             PlanCache::get (args say whether it
 *                               sorted, loaded or hit memory)
 *   graph.prepare               TilePlan(graph, tiling)
 *   store.save / store.load     PlanStore::save / PlanStore::load
 *   graphr.<backend>_run        Backend::run, plans already resident
 *   algorithms.golden, engine.mac_walk, engine.addop_walk,
 *   engine.functional_mac_sweep the calls Backend::run hides
 * A span carries the edges it processed as its "edges" argument.
 */

#ifndef GRAPHR_BENCHMARK_LAYERS_HH
#define GRAPHR_BENCHMARK_LAYERS_HH

#include <string>
#include <vector>

#include "driver/backend.hh"
#include "driver/dataset.hh"
#include "graph/coo.hh"
#include "graphr/config.hh"
#include "harness.hh"
#include "trace.hh"

namespace graphr::bench
{

/**
 * Destination stripes of @p graph over @p nodes nodes, as the
 * multinode backend partitions it. The harness needs them only to
 * acquire those plans under their own spans; should the backend's
 * partitioning change, its plan lookups simply move back inside the
 * graphr.multinode_run span.
 */
std::vector<CooGraph> destinationStripes(const CooGraph &graph,
                                         std::uint32_t nodes);

/**
 * Make every plan of @p graphs resident in PlanCache, one layer call
 * per span. A plan the attached store holds is loaded by
 * PlanCache::get; one it lacks is prepared by PlanCache::get with the
 * store detached and then written with PlanStore::save — the work the
 * attached path does in one call, split so sort and save are timed
 * apart.
 */
void acquirePlans(Tracer &tracer,
                  const std::vector<const CooGraph *> &graphs,
                  const TilingParams &tiling);

/** Counter deltas of one operation, attached to its root span. */
void attachCounts(Tracer::Span &root, const Counts &before);

/**
 * Call every layer function an operation hides or may not reach once
 * on @p dataset, each under a span of the request "probe": the golden
 * algorithms, a TilePlan build, a PlanStore save and load in
 * @p store_dir, the TileExecutor timing walks, one functional MAC
 * sweep, and Backend::run (spmv) of each GraphR backend not in
 * @p op_backends. Every per-layer time is then measured on every
 * workload, on that workload's own input. Throws when the store does
 * not load back the plan it saved.
 */
void probeLayers(Tracer &tracer, const driver::ResolvedDataset &dataset,
                 const driver::BackendOptions &options,
                 const std::vector<std::string> &op_backends,
                 const std::string &store_dir);

/** Bytes on disk per stored edge over every artifact in @p dir. */
double storeBytesPerEdge(const std::string &dir);

/**
 * Per-layer metrics. Times are means per call over every span of the
 * run (operations and probe); rates are edges over the summed time of
 * those calls; counts are means per operation over @p ops (the
 * request ids of the root spans).
 */
void reportLayers(const Tracer &tracer, const std::vector<std::string> &ops,
                  Report &report);

} // namespace graphr::bench

#endif // GRAPHR_BENCHMARK_LAYERS_HH
