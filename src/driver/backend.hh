/**
 * @file
 * Backend registry: execution targets a workload can run on.
 *
 * One interface wraps every model in the repo:
 *  - "graphr"    single GraphR node (graphr/node)
 *  - "multinode" GraphR cluster with stripe partitioning
 *  - "outofcore" GraphR node + disk block streaming
 *  - "cpu"       GridGraph-style Xeon baseline
 *  - "gpu"       Gunrock/CuMF-style Tesla K40c baseline
 *  - "pim"       Tesseract-style HMC baseline
 *
 * Every backend accepts every registered workload, so a sweep can
 * cross-product the full algorithm x backend matrix (paper Tables
 * 2/4/5 in one invocation).
 */

#ifndef GRAPHR_DRIVER_BACKEND_HH
#define GRAPHR_DRIVER_BACKEND_HH

#include <memory>
#include <string>
#include <vector>

#include "baselines/cpu_model.hh"
#include "baselines/gpu_model.hh"
#include "baselines/pim_model.hh"
#include "driver/dataset.hh"
#include "driver/run_result.hh"
#include "driver/workload.hh"
#include "graphr/config.hh"
#include "graphr/multi_node.hh"
#include "graphr/out_of_core.hh"

namespace graphr::driver
{

/** Shared knobs for instantiating any backend. */
struct BackendOptions
{
    /** GraphR node configuration (graphr/multinode/outofcore). */
    GraphRConfig config;
    /** Cluster size for "multinode". */
    std::uint32_t numNodes = 4;
    LinkParams link;
    /** Disk model for "outofcore". */
    StorageParams storage;
    CpuParams cpu;
    GpuParams gpu;
    PimParams pim;
};

/** An execution target: runs a workload on a graph. */
class Backend
{
  public:
    virtual ~Backend() = default;

    /** Registry name ("graphr", "cpu", ...). */
    virtual const std::string &name() const = 0;

    /**
     * Execute the workload on the dataset and return the unified
     * result (workload/backend/dataset/vertices/edges prefilled).
     * Throws DriverError on invalid requests (e.g. out-of-range
     * source vertex). Safe to call from several threads at once: a
     * parallel sweep shares one backend per name across its workers.
     */
    virtual RunResult run(const Workload &workload,
                          const ResolvedDataset &dataset) = 0;
};

/** Registry names, in canonical order. */
const std::vector<std::string> &allBackendNames();

/** Instantiate by name; throws DriverError listing valid names. */
std::unique_ptr<Backend> makeBackend(const std::string &name,
                                     const BackendOptions &options);

} // namespace graphr::driver

#endif // GRAPHR_DRIVER_BACKEND_HH
