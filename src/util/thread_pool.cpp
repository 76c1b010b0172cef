#include "util/thread_pool.h"

#include <algorithm>

#include "obs/counters.h"
#include "obs/trace.h"
#include "util/engine_config.h"

namespace mdbench {

namespace {

/** True on any thread currently executing inside a parallel region. */
thread_local bool tlInParallelRegion = false;

int
defaultThreadCount()
{
    if (const int n = EngineEnv::process().threads)
        return n;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw >= 1 ? static_cast<int>(hw) : 1;
}

} // namespace

SliceRange::SliceRange(std::size_t begin, std::size_t end, std::size_t grain)
    : begin_(begin), range_(end > begin ? end - begin : 0)
{
    if (range_ == 0) {
        count_ = 0;
        return;
    }
    const std::size_t g = std::max<std::size_t>(grain, 1);
    // At least `grain` elements per slice, at most kMaxSlices slices.
    count_ = static_cast<int>(
        std::min<std::size_t>(std::max<std::size_t>(range_ / g, 1),
                              static_cast<std::size_t>(kMaxSlices)));
}

ThreadPool::ThreadPool(int nthreads)
{
    resize(nthreads);
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    wake_.notify_all();
    for (auto &worker : workers_)
        worker.join();
}

void
ThreadPool::resize(int nthreads)
{
    if (nthreads <= 0)
        nthreads = defaultThreadCount();
    if (nthreads == nthreads_ && nthreads_ == 1 + static_cast<int>(workers_.size()))
        return;

    // Join the existing crew, then (re)hire.
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    wake_.notify_all();
    for (auto &worker : workers_)
        worker.join();
    workers_.clear();

    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = false;
        nthreads_ = nthreads;
    }
    workers_.reserve(static_cast<std::size_t>(nthreads - 1));
    for (int t = 1; t < nthreads; ++t)
        workers_.emplace_back([this] { workerLoop(); });
}

void
ThreadPool::workerLoop()
{
    std::uint64_t seenGeneration = 0;
    for (;;) {
        SliceRange slices(0, 0, 1);
        const SliceFn *fn = nullptr;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            wake_.wait(lock, [&] {
                return stop_ || generation_ != seenGeneration;
            });
            if (stop_)
                return;
            seenGeneration = generation_;
            // A stale wakeup can land after the region already drained
            // and the caller tore it down; there is nothing to do then.
            if (fn_ == nullptr)
                continue;
            slices = jobSlices_; // by value: outlives the caller's copy
            fn = fn_;
        }
        // Dereferencing fn is safe even if the region completes
        // concurrently: claims are generation-tagged (see claim_), so
        // this thread either claims a slice of generation
        // seenGeneration — keeping pendingSlices_ above zero and the
        // caller (whose frame owns the function object) blocked until
        // this thread's own decrement — or touches neither fn nor the
        // region's accounting.
        runSlices(slices, *fn, seenGeneration);
    }
}

void
ThreadPool::runSlices(const SliceRange &slices, const SliceFn &fn,
                      std::uint64_t generation)
{
    tlInParallelRegion = true;
    int completed = 0;
    std::exception_ptr error;
    bool traced = false;
    std::uint64_t claim = claim_.load(std::memory_order_relaxed);
    for (;;) {
        // Claim the next slice only while the claim word still belongs
        // to our region; a single compare-exchange makes the
        // generation check and the claim atomic.
        if ((claim >> 32) != (generation & 0xffffffffu))
            break;
        const int s = static_cast<int>(claim & 0xffffffffu);
        if (s >= slices.count())
            break;
        if (!claim_.compare_exchange_weak(claim, claim + 1,
                                          std::memory_order_relaxed))
            continue; // claim reloaded; maybe another slice, maybe done
        // One scope per thread that claimed work, so a trace shows
        // which threads carried every region. Opened only after a
        // successful claim and closed before the accounting flush
        // below, so every ring write of a pool thread is ordered
        // before the caller can leave the region (and a stale-woken
        // thread that claimed nothing writes no events at all).
        if (!traced && traceEnabled()) {
            traced = true;
            traceBegin("pool", "slices");
        }
        if (!error) {
            try {
                fn(slices.begin(s), slices.end(s), s);
            } catch (...) {
                // Record and drain the remaining slices without running
                // them, so the region still terminates promptly.
                error = std::current_exception();
            }
        }
        ++completed;
        claim = claim_.load(std::memory_order_relaxed);
    }
    tlInParallelRegion = false;
    if (traced)
        traceEnd("pool", "slices");
    if (completed == 0) {
        // No claims (errors only arise from claimed slices): this
        // region's accounting is none of our business — and with a
        // stale generation, the region may already be torn down.
        return;
    }
    counterAdd(Counter::PoolSlices, static_cast<std::uint64_t>(completed));

    std::lock_guard<std::mutex> lock(mutex_);
    if (error && !firstError_)
        firstError_ = error;
    pendingSlices_ -= completed;
    if (pendingSlices_ == 0)
        done_.notify_all();
}

void
ThreadPool::run(const SliceRange &slices, const SliceFn &fn)
{
    if (slices.count() == 0)
        return;
    counterAdd(Counter::PoolRegions);
    // Inline execution: single-threaded pools, single-slice ranges, and
    // nested calls from inside a region (workers must not block on
    // their own pool).
    if (nthreads_ == 1 || slices.count() == 1 || tlInParallelRegion) {
        TraceScope trace("pool", "region_inline");
        counterAdd(Counter::PoolSlices,
                   static_cast<std::uint64_t>(slices.count()));
        for (int s = 0; s < slices.count(); ++s)
            fn(slices.begin(s), slices.end(s), s);
        return;
    }

    TraceScope trace("pool", "region");
    std::uint64_t generation;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        jobSlices_ = slices;
        fn_ = &fn;
        pendingSlices_ = slices.count();
        firstError_ = nullptr;
        generation = ++generation_;
        claim_.store((generation & 0xffffffffu) << 32,
                     std::memory_order_relaxed);
    }
    wake_.notify_all();

    // The caller is thread 0 of the crew.
    runSlices(slices, fn, generation);

    std::exception_ptr error;
    {
        std::unique_lock<std::mutex> lock(mutex_);
        done_.wait(lock, [&] { return pendingSlices_ == 0; });
        fn_ = nullptr;
        error = firstError_;
        firstError_ = nullptr;
    }
    if (error)
        std::rethrow_exception(error);
}

void
ThreadPool::parallelFor(std::size_t begin, std::size_t end, std::size_t grain,
                        const SliceFn &fn)
{
    run(SliceRange(begin, end, grain), fn);
}

ThreadPool &
ThreadPool::global()
{
    static ThreadPool pool;
    return pool;
}

void
ThreadPool::setThreads(int nthreads)
{
    global().resize(nthreads);
}

int
ThreadPool::threads()
{
    return global().size();
}

ThreadPool::InlineRegionScope::InlineRegionScope(int slices) noexcept
{
    counterAdd(Counter::PoolRegions);
    counterAdd(Counter::PoolSlices, static_cast<std::uint64_t>(slices));
    if (traceEnabled()) {
        traced_ = true;
        traceBegin("pool", "region_inline");
    }
}

ThreadPool::InlineRegionScope::~InlineRegionScope() noexcept
{
    if (traced_)
        traceEnd("pool", "region_inline");
}

} // namespace mdbench
