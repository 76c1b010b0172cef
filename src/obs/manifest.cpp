#include "obs/manifest.h"

#include <fstream>
#include <thread>

#include "obs/counters.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/precision.h"
#include "util/simd.h"
#include "util/thread_pool.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/utsname.h>
#include <unistd.h>
#endif

// Build description injected by the top-level CMakeLists; fall back to
// unknowns so the file also compiles standalone.
#ifndef MDBENCH_BUILD_TYPE
#define MDBENCH_BUILD_TYPE "unknown"
#endif
#ifndef MDBENCH_BUILD_SANITIZE
#define MDBENCH_BUILD_SANITIZE ""
#endif
#ifndef MDBENCH_BUILD_NATIVE_ARCH
#define MDBENCH_BUILD_NATIVE_ARCH 0
#endif

namespace mdbench {

namespace {

RunManifest *gActiveManifest = nullptr;

} // namespace

HostInfo
collectHostInfo()
{
    HostInfo info;
    info.hardwareThreads =
        static_cast<int>(std::thread::hardware_concurrency());
#if defined(__unix__) || defined(__APPLE__)
    struct utsname names;
    if (uname(&names) == 0) {
        info.os = names.sysname;
        info.kernel = names.release;
        info.arch = names.machine;
        info.hostname = names.nodename;
    }
    char host[256] = {0};
    if (info.hostname.empty() && gethostname(host, sizeof(host) - 1) == 0)
        info.hostname = host;
#endif
    if (info.os.empty())
        info.os = "unknown";
#if defined(__VERSION__)
    info.compiler = __VERSION__;
#else
    info.compiler = "unknown";
#endif
    return info;
}

RunManifest::RunManifest(std::string program)
    : program_(std::move(program)), host_(collectHostInfo())
{
}

void
RunManifest::addTable(const std::string &tag, const Table &table)
{
    TableRecord record;
    record.tag = tag;
    record.headers = table.headers();
    record.rows = table.rowData();
    tables_.push_back(std::move(record));
}

void
RunManifest::captureRuntime()
{
    threads_ = ThreadPool::threads();
    precision_ = precisionName(precisionTier());
    const auto tasks = globalTaskSeconds();
    taskSeconds_.assign(tasks.begin(), tasks.end());
    counts_.resize(kNumCounters);
    for (std::size_t c = 0; c < kNumCounters; ++c)
        counts_[c] = counterValue(static_cast<Counter>(c));
    traceRecorded_ = traceRecordedEvents();
    traceDropped_ = traceDroppedEvents();
}

void
RunManifest::write(std::ostream &os) const
{
    JsonWriter json(os);
    json.beginObject();
    json.key("schema").value(kManifestSchema);
    json.key("program").value(program_);

    json.key("platform").beginObject();
    json.key("hostname").value(host_.hostname);
    json.key("os").value(host_.os);
    json.key("kernel").value(host_.kernel);
    json.key("arch").value(host_.arch);
    json.key("hardware_threads").value(host_.hardwareThreads);
    json.key("compiler").value(host_.compiler);
    json.endObject();

    json.key("build").beginObject();
    json.key("type").value(MDBENCH_BUILD_TYPE);
    json.key("sanitize").value(MDBENCH_BUILD_SANITIZE);
    json.key("native_arch").value(MDBENCH_BUILD_NATIVE_ARCH != 0);
    json.key("simd").value(simdIsaName());
    json.key("precision").value(precision_.empty() ? "double"
                                                   : precision_.c_str());
    json.endObject();

    json.key("threads").value(threads_);

    json.key("tasks").beginObject();
    for (std::size_t t = 0; t < kNumTasks; ++t) {
        json.key(taskName(static_cast<Task>(t)))
            .value(t < taskSeconds_.size() ? taskSeconds_[t] : 0.0);
    }
    json.endObject();

    json.key("counters").beginObject();
    for (std::size_t c = 0; c < kNumCounters; ++c) {
        json.key(counterName(static_cast<Counter>(c)))
            .value(c < counts_.size() ? counts_[c] : std::uint64_t{0});
    }
    json.endObject();

    json.key("trace").beginObject();
    json.key("recorded").value(traceRecorded_);
    json.key("dropped").value(traceDropped_);
    json.endObject();

    json.key("tables").beginArray();
    for (const auto &table : tables_) {
        json.beginObject();
        json.key("tag").value(table.tag);
        json.key("headers").beginArray();
        for (const auto &header : table.headers)
            json.value(header);
        json.endArray();
        json.key("rows").beginArray();
        for (const auto &row : table.rows) {
            json.beginArray();
            for (const auto &cell : row)
                json.value(cell);
            json.endArray();
        }
        json.endArray();
        json.endObject();
    }
    json.endArray();

    json.endObject();
    os << '\n';
}

bool
RunManifest::writeFile(const std::string &path) const
{
    std::ofstream file(path);
    if (!file) {
        warn("manifest: cannot open " + path + " for writing");
        return false;
    }
    write(file);
    return file.good();
}

RunManifest *
activeManifest()
{
    return gActiveManifest;
}

void
setActiveManifest(RunManifest *manifest)
{
    gActiveManifest = manifest;
}

} // namespace mdbench
