/**
 * @file
 * Run manifest: one JSON document per bench run — the canonical
 * machine-readable record (`BENCH_*.json` format) behind every figure
 * binary. Captures platform info, build flags, thread count, per-task
 * seconds, all observability counters, and the per-figure result rows
 * that the ASCII tables print.
 *
 * Schema (`mdbench-manifest-v1`):
 *
 *     {
 *       "schema": "mdbench-manifest-v1",
 *       "program": "<bench binary name>",
 *       "platform": { "hostname", "os", "kernel", "arch",
 *                     "hardware_threads", "compiler" },
 *       "build": { "type", "sanitize", "native_arch", "simd",
 *                  "precision" },
 *       "threads": <thread-pool size>,
 *       "engine": { "simd_width", "pack_width", "precision",
 *                   "sort_every", "rank_exec", "comm_overlap",
 *                   "threads" },
 *       "tasks": { "<Task name>": seconds, ... all 8 },
 *       "counters": { "<counter name>": value, ... all registered },
 *       "trace": { "recorded": n, "dropped": n },
 *       "tables": [ { "tag", "headers": [...], "rows": [[...], ...] } ]
 *     }
 */

#ifndef MDBENCH_OBS_MANIFEST_H
#define MDBENCH_OBS_MANIFEST_H

#include <ostream>
#include <string>
#include <vector>

#include "util/engine_config.h"
#include "util/table.h"

namespace mdbench {

/** Manifest schema identifier emitted in every document. */
inline constexpr const char *kManifestSchema = "mdbench-manifest-v1";

/** Host platform description recorded in the manifest. */
struct HostInfo
{
    std::string hostname;
    std::string os;
    std::string kernel;
    std::string arch;
    std::string compiler;
    int hardwareThreads = 0;
};

/** Collect the information of the machine running this process. */
HostInfo collectHostInfo();

class RunManifest
{
  public:
    explicit RunManifest(std::string program);

    /** Record a result table (figure/table rows) under @p tag. */
    void addTable(const std::string &tag, const Table &table);

    /**
     * Snapshot the process-wide state: the default EngineConfig
     * (EngineConfig::fromEnv()) and thread-pool size, global task
     * seconds, all counters, and trace buffer statistics. Called once,
     * after the run's work is done.
     */
    void captureRuntime();

    /** Serialize the manifest JSON document. */
    void write(std::ostream &os) const;

    /**
     * Write to @p path.
     * @return false (with a warning) when the file cannot be opened.
     */
    bool writeFile(const std::string &path) const;

  private:
    struct TableRecord
    {
        std::string tag;
        std::vector<std::string> headers;
        std::vector<std::vector<std::string>> rows;
    };

    std::string program_;
    HostInfo host_;
    int threads_ = 0;
    EngineConfig config_;     ///< default config at captureRuntime()
    std::vector<double> taskSeconds_;   ///< kNumTasks entries
    std::vector<std::uint64_t> counts_; ///< kNumCounters entries
    std::uint64_t traceRecorded_ = 0;
    std::uint64_t traceDropped_ = 0;
    std::vector<TableRecord> tables_;
};

/**
 * The manifest of the bench run in progress (set by BenchRun), or
 * nullptr. emitTable() mirrors every printed table into it so figure
 * rows land in the manifest without per-bench plumbing.
 */
RunManifest *activeManifest();

/** Install (or clear, with nullptr) the active manifest. */
void setActiveManifest(RunManifest *manifest);

} // namespace mdbench

#endif // MDBENCH_OBS_MANIFEST_H
