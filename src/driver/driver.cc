#include "driver.hh"

#include <algorithm>
#include <memory>
#include <mutex>
#include <sstream>

#include "common/thread_pool.hh"
#include "graphr/engine/plan_cache.hh"

namespace graphr::driver
{

namespace
{

std::vector<std::string>
expandNames(const std::vector<std::string> &names,
            const std::vector<std::string> &registry,
            const std::string &what)
{
    std::vector<std::string> out;
    for (const std::string &name : names) {
        if (name == "all") {
            for (const std::string &r : registry) {
                if (std::find(out.begin(), out.end(), r) == out.end())
                    out.push_back(r);
            }
            continue;
        }
        if (std::find(registry.begin(), registry.end(), name) ==
            registry.end()) {
            std::string msg =
                "unknown " + what + " '" + name + "' (known:";
            for (const std::string &r : registry)
                msg += " " + r;
            msg += ")";
            throw DriverError(msg);
        }
        if (std::find(out.begin(), out.end(), name) == out.end())
            out.push_back(name);
    }
    if (out.empty())
        throw DriverError("no " + what + " selected");
    return out;
}

/**
 * One progress line, built off-stream and written in a single
 * mutex-guarded call so concurrent workers never interleave
 * mid-line. Byte-identical to the serial "running ... ..." + endl.
 */
void
announceRun(std::ostream *progress, std::mutex &progress_mutex,
            const std::string &workload, const std::string &backend,
            const std::string &dataset)
{
    if (progress == nullptr)
        return;
    std::ostringstream line;
    line << "running " << workload << " x " << backend << " x "
         << dataset << " ...\n";
    const std::lock_guard<std::mutex> lock(progress_mutex);
    *progress << line.str() << std::flush;
}

} // namespace

std::vector<std::string>
expandWorkloadNames(const std::vector<std::string> &names)
{
    return expandNames(names, allWorkloadNames(), "workload");
}

std::vector<std::string>
expandBackendNames(const std::vector<std::string> &names)
{
    return expandNames(names, allBackendNames(), "backend");
}

void
installPlanStore(const StoreSpec &spec)
{
    // A request-scoped override (graphr_serve tenant namespaces) wins
    // over any spec-carried directory: the worker task has already
    // bound this thread to the tenant's store, and re-pointing the
    // process-wide store from under concurrent requests is exactly
    // the hazard the override exists to avoid.
    if (PlanCache::storeOverrideActive())
        return;
    if (spec.planDir.empty()) {
        PlanCache::instance().setStore(nullptr);
        return;
    }
    // Re-installing the directory that is already attached keeps the
    // resident store (and its cumulative statistics): a long-lived
    // graphr_serve process runs every request through here.
    const std::shared_ptr<PlanStore> current =
        PlanCache::instance().store();
    if (current && current->directory() == spec.planDir)
        return;
    try {
        PlanCache::instance().setStore(
            std::make_shared<PlanStore>(spec.planDir));
    } catch (const StoreError &err) {
        throw DriverError(std::string("cannot use --plan-dir: ") +
                          err.what());
    }
}

RunResult
runOne(const RunSpec &spec)
{
    installPlanStore(spec.store);
    const Workload workload = makeWorkload(spec.workload, spec.params);
    const ResolvedDataset dataset =
        resolveDataset(spec.dataset, spec.scale, spec.seed);
    const std::unique_ptr<Backend> backend =
        makeBackend(spec.backend, spec.backendOptions);
    return backend->run(workload, dataset);
}

std::vector<RunResult>
runSweep(const SweepSpec &spec, std::ostream *progress,
         DatasetCache *datasets)
{
    if (spec.datasets.empty())
        throw DriverError("sweep needs at least one dataset");
    installPlanStore(spec.store);

    const std::vector<std::string> workload_names =
        expandWorkloadNames(spec.workloads);
    const std::vector<std::string> backend_names =
        expandBackendNames(spec.backends);

    // Validate every name and parse parameters before the first
    // (possibly expensive) run.
    std::vector<Workload> workloads;
    for (const std::string &name : workload_names)
        workloads.push_back(makeWorkload(name, spec.params));
    std::vector<std::unique_ptr<Backend>> backends;
    for (const std::string &name : backend_names)
        backends.push_back(makeBackend(name, spec.backendOptions));

    // Each distinct dataset is looked up by the first run that names
    // it; the others wait for it (LruCache's build-once contract), and
    // a resolution error reaches every run that names the dataset. At
    // one job a dataset is dropped when the next one is looked up, so
    // the sweep holds one graph at a time.
    const unsigned jobs = ThreadPool::effectiveJobs(spec.jobs);
    LruCache<std::string, ResolvedDataset, std::hash<std::string>>
        sweep_datasets(jobs == 1 ? 1 : spec.datasets.size());

    // The cross product, dataset-major: run i writes only result slot
    // i, so the results come back in spec order at any job count.
    const std::size_t runs_per_dataset = workloads.size() * backends.size();
    std::vector<RunResult> results(spec.datasets.size() * runs_per_dataset);
    std::mutex progress_mutex;
    forEachIndex(results.size(), jobs, [&](std::size_t i) {
        const std::string &dataset_spec =
            spec.datasets[i / runs_per_dataset];
        const Workload &workload =
            workloads[i % runs_per_dataset / backends.size()];
        Backend &backend = *backends[i % backends.size()];
        const DatasetPtr dataset =
            sweep_datasets.getOrBuild(dataset_spec, [&] {
                return resolveShared(dataset_spec, spec.scale, spec.seed,
                                     datasets);
            });
        announceRun(progress, progress_mutex, workload.name,
                    backend.name(), dataset->name);
        results[i] = backend.run(workload, *dataset);
    });
    return results;
}

} // namespace graphr::driver
