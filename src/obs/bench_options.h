/**
 * @file
 * Shared command-line options for every bench binary: `--trace FILE`,
 * `--manifest FILE`, `--log-level LEVEL`, `--quick` (and `--help` for
 * the shared flags). BenchRun
 * is the one-liner each bench main creates; it parses and strips the
 * shared flags, rejects any other argument (unless the bench passes
 * them on to a wrapped parser, e.g. google-benchmark's), enables the
 * tracer, installs the active manifest, and writes both output files
 * when the run ends.
 */

#ifndef MDBENCH_OBS_BENCH_OPTIONS_H
#define MDBENCH_OBS_BENCH_OPTIONS_H

#include <string>

#include "obs/manifest.h"

namespace mdbench {

/** The shared flags, parsed. */
struct BenchOptions
{
    std::string tracePath;    ///< --trace FILE (empty = no trace)
    std::string manifestPath; ///< --manifest FILE (empty = no manifest)
    std::string logLevel;     ///< --log-level LEVEL (empty = unchanged)
    bool help = false;        ///< --help seen
    bool quick = false;       ///< --quick seen (smoke-test size)
};

/**
 * Parse the shared flags out of @p argv, compacting it in place and
 * decrementing @p argc (both `--flag value` and `--flag=value` forms).
 * Unrecognized arguments are kept in order. fatal() on a shared flag
 * with a missing value or an invalid --log-level.
 */
BenchOptions parseBenchOptions(int &argc, char **argv);

/** Usage text for the shared flags. */
const char *benchOptionsUsage();

/** Whether a bench wraps another parser (`--help`, unknown flags). */
enum class BenchHelp
{
    Exit,   ///< no parser of its own: `--help` exits 0, unknown flags 2
    PassOn, ///< continue with `--help` and unknown flags left in argv
};

/**
 * RAII driver of one observable bench run. Construct first thing in
 * main(); destruction (normal return) finalizes the manifest and
 * writes the requested output files.
 *
 * A misused shared flag (missing value, invalid --log-level) or, under BenchHelp::Exit, an argument that is no
 * shared flag prints the error and the usage to stderr and exits 2.
 */
class BenchRun
{
  public:
    BenchRun(int &argc, char **argv, const std::string &program,
             BenchHelp help = BenchHelp::Exit);
    ~BenchRun();

    BenchRun(const BenchRun &) = delete;
    BenchRun &operator=(const BenchRun &) = delete;

    RunManifest &manifest() { return manifest_; }
    const BenchOptions &options() const { return options_; }

  private:
    BenchOptions options_;
    RunManifest manifest_;
};

} // namespace mdbench

#endif // MDBENCH_OBS_BENCH_OPTIONS_H
