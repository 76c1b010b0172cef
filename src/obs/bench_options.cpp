#include "obs/bench_options.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "obs/trace.h"
#include "util/error.h"
#include "util/logging.h"

namespace mdbench {

namespace {

/**
 * Match `--name value` / `--name=value` at argv[i]; on a hit, store the
 * value and the number of argv slots consumed (1 or 2).
 */
bool
matchValueFlag(int argc, char **argv, int i, const char *name,
               std::string &value, int &consumed)
{
    const std::size_t len = std::strlen(name);
    if (std::strncmp(argv[i], name, len) != 0)
        return false;
    if (argv[i][len] == '=') {
        value = argv[i] + len + 1;
        consumed = 1;
        return true;
    }
    if (argv[i][len] == '\0') {
        require(i + 1 < argc,
                std::string(name) + " requires a value argument");
        value = argv[i + 1];
        consumed = 2;
        return true;
    }
    return false;
}

} // namespace

BenchOptions
parseBenchOptions(int &argc, char **argv)
{
    BenchOptions options;
    int out = 1;
    for (int i = 1; i < argc;) {
        int consumed = 1;
        if (matchValueFlag(argc, argv, i, "--trace", options.tracePath,
                           consumed) ||
            matchValueFlag(argc, argv, i, "--manifest",
                           options.manifestPath, consumed) ||
            matchValueFlag(argc, argv, i, "--log-level", options.logLevel,
                           consumed)) {
            i += consumed;
            continue;
        }
        if (std::strcmp(argv[i], "--quick") == 0) {
            options.quick = true;
            ++i;
            continue;
        }
        if (std::strcmp(argv[i], "--help") == 0) {
            options.help = true;
            // keep --help visible to wrapped parsers (google-benchmark)
        }
        argv[out++] = argv[i++];
    }
    argc = out;
    argv[argc] = nullptr;

    if (!options.logLevel.empty()) {
        const auto level = parseLogLevel(options.logLevel);
        require(level.has_value(),
                "invalid --log-level '" + options.logLevel +
                    "' (want silent|warn|inform|debug or 0-3)");
        setLogLevel(*level);
    }
    return options;
}

const char *
benchOptionsUsage()
{
    return "shared bench options:\n"
           "  --trace FILE      write a Chrome trace_event JSON "
           "(chrome://tracing, Perfetto)\n"
           "  --manifest FILE   write the run manifest JSON "
           "(mdbench-manifest-v1)\n"
           "  --log-level L     silent|warn|inform|debug or 0-3 "
           "(overrides MDBENCH_LOG_LEVEL)\n"
           "  --quick           smoke-test size, for benches that have "
           "one\n";
}

namespace {

/**
 * parseBenchOptions, with misuse reported as a usage error (exit 2): a
 * bench with no parser of its own takes no argument but the shared
 * flags, so a typo cannot silently run the full sweep.
 */
BenchOptions
parseOrExit(int &argc, char **argv, const std::string &program,
            BenchHelp help)
{
    try {
        BenchOptions options = parseBenchOptions(argc, argv);
        if (help == BenchHelp::Exit && !options.help && argc > 1)
            fatal(std::string("unknown argument '") + argv[1] + "'");
        return options;
    } catch (const FatalError &error) {
        std::fprintf(stderr, "%s: %s\n%s", program.c_str(), error.what(),
                     benchOptionsUsage());
        std::exit(2);
    }
}

} // namespace

BenchRun::BenchRun(int &argc, char **argv, const std::string &program,
                   BenchHelp help)
    : options_(parseOrExit(argc, argv, program, help)), manifest_(program)
{
    if (options_.help) {
        std::fputs(benchOptionsUsage(), stdout);
        if (help == BenchHelp::Exit)
            std::exit(0);
    }
    if (!options_.tracePath.empty())
        traceEnable();
    setActiveManifest(&manifest_);
}

BenchRun::~BenchRun()
{
    setActiveManifest(nullptr);
    if (!options_.tracePath.empty())
        traceDisable();
    manifest_.captureRuntime();
    if (!options_.manifestPath.empty() &&
        manifest_.writeFile(options_.manifestPath)) {
        std::fprintf(stderr, "manifest written to %s\n",
                     options_.manifestPath.c_str());
    }
    if (!options_.tracePath.empty() &&
        writeChromeTrace(options_.tracePath)) {
        std::fprintf(stderr, "trace written to %s\n",
                     options_.tracePath.c_str());
    }
}

} // namespace mdbench
