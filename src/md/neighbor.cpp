#include "md/neighbor.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstring>
#include <numeric>
#include <type_traits>
#include <utility>

#include "md/simulation.h"
#include "obs/counters.h"
#include "obs/trace.h"
#include "util/error.h"
#include "util/simd.h"
#include "util/thread_pool.h"

namespace mdbench {

namespace {

/** Grain for the per-atom neighbor loops (no reduction scratch). */
constexpr std::size_t kNeighborGrain = 128;

/**
 * Trailing slots kept readable past the logical end of the bin-ordered
 * arrays so the W-wide filter can always load a whole chunk; the lanes
 * beyond a bin's end are masked off, never consumed.
 */
constexpr std::size_t kSimdPad = 16;

/**
 * Bins are half the build cutoff wide, so every pair within the cutoff
 * lies at most two bins apart on each axis: the stencil is the 5×5×5
 * block of bins around the atom's own (full lists), or its dz >= 0
 * upper half (half lists, see fillRowSimdImpl).
 */
constexpr int kStencilReach = 2;

/** Stencil (dy, dz) rows, each one contiguous x-run of bins. */
constexpr int kStencilRows = (2 * kStencilReach + 1) * (2 * kStencilReach + 1);

/**
 * Slices of the parallel counting sort. Fixed, not the pool's slice
 * count, so the per-(slice, bin) histogram stays 8 × nbins at any
 * thread count.
 */
constexpr std::size_t kSortSlices = 8;

/**
 * Uniform grid of bins at least half the build cutoff wide, over the
 * extent of the atoms it bins (see makeBinGrid).
 */
struct BinGrid
{
    mdbench::Vec3 lo;
    int nb[3];
    double inv[3];
    std::size_t nbins;

    std::array<int, 3>
    cellOf(const mdbench::Vec3 &pos) const
    {
        int bx = static_cast<int>((pos.x - lo.x) * inv[0]);
        int by = static_cast<int>((pos.y - lo.y) * inv[1]);
        int bz = static_cast<int>((pos.z - lo.z) * inv[2]);
        bx = std::clamp(bx, 0, nb[0] - 1);
        by = std::clamp(by, 0, nb[1] - 1);
        bz = std::clamp(bz, 0, nb[2] - 1);
        return {bx, by, bz};
    }

    std::size_t
    flatten(int bx, int by, int bz) const
    {
        return (static_cast<std::size_t>(bz) * nb[1] + by) * nb[0] + bx;
    }
};

/**
 * The grid rule shared by the list build and the spatial sort: span
 * the bounding box of x[0, n), clamped to the box plus a ghost shell of
 * one cutoff, with bins at least cut / 2 wide. A rank of a decomposed
 * run therefore bins only its own region and halo, not the global box.
 * Atoms outside the grid clamp into its edge bins; clamping is
 * monotone, so atoms within the cutoff still land at most two bins
 * apart.
 */
BinGrid
makeBinGrid(const mdbench::Box &box, double cut, const mdbench::Vec3 *x,
            std::size_t n)
{
    const mdbench::Vec3 shellLo = box.lo() - mdbench::Vec3{cut, cut, cut};
    const mdbench::Vec3 shellHi = box.hi() + mdbench::Vec3{cut, cut, cut};
    double lo[3] = {shellLo.x, shellLo.y, shellLo.z};
    double hi[3] = {shellHi.x, shellHi.y, shellHi.z};
    if (n > 0) {
        double minX[3] = {x[0].x, x[0].y, x[0].z};
        double maxX[3] = {x[0].x, x[0].y, x[0].z};
        for (std::size_t i = 1; i < n; ++i) {
            const double p[3] = {x[i].x, x[i].y, x[i].z};
            for (int axis = 0; axis < 3; ++axis) {
                minX[axis] = std::min(minX[axis], p[axis]);
                maxX[axis] = std::max(maxX[axis], p[axis]);
            }
        }
        for (int axis = 0; axis < 3; ++axis) {
            lo[axis] = std::max(lo[axis], minX[axis]);
            hi[axis] = std::min(hi[axis], maxX[axis]);
        }
    }
    BinGrid grid;
    grid.lo = {lo[0], lo[1], lo[2]};
    const double edge = 0.5 * cut;
    for (int axis = 0; axis < 3; ++axis) {
        const double len = std::max(hi[axis] - lo[axis], 0.0);
        grid.nb[axis] = std::max(1, static_cast<int>(len / edge));
        grid.inv[axis] = len > 0.0 ? grid.nb[axis] / len : 0.0;
    }
    grid.nbins =
        static_cast<std::size_t>(grid.nb[0]) * grid.nb[1] * grid.nb[2];
    return grid;
}

/**
 * Counting-sort binning over the shared pool: per-slice bin histograms,
 * a serial (bin, slice) prefix that assigns each slice a scatter cursor
 * per bin, then a parallel scatter into a contiguous per-bin atom
 * array. Slices are a fixed partition of the atom range (at most
 * kSortSlices) and walk atoms ascending, so within a bin atoms end up
 * in ascending index order and the output is bitwise the same at any
 * slicing. A single-threaded pool, or fewer than 4 grains of atoms,
 * takes one slice, which is the plain serial sort. Shared by the list
 * build (over owned + ghost atoms) and the spatial sort (over owned
 * atoms only), so both bin by the same grid rule.
 */
void
countingSortBinsParallel(const BinGrid &grid, const mdbench::Vec3 *x,
                         std::size_t n, ThreadPool &pool,
                         std::vector<std::uint32_t> &binOf,
                         std::vector<std::uint32_t> &binStart,
                         std::vector<std::uint32_t> &binSliceCount,
                         std::vector<std::uint32_t> &binAtoms)
{
    const bool serial = pool.size() == 1 || n < 4 * kNeighborGrain;
    const SliceRange slices(
        0, n,
        serial ? n
               : std::max(kNeighborGrain,
                          (n + kSortSlices - 1) / kSortSlices));
    const std::size_t nslices = static_cast<std::size_t>(slices.count());
    const std::size_t nbins = grid.nbins;
    binOf.resize(n);
    binSliceCount.assign(nslices * nbins, 0);
    pool.run(slices, [&](std::size_t begin, std::size_t end, int s) {
        std::uint32_t *counts = binSliceCount.data() + s * nbins;
        for (std::size_t i = begin; i < end; ++i) {
            const auto b = grid.cellOf(x[i]);
            const std::uint32_t flat =
                static_cast<std::uint32_t>(grid.flatten(b[0], b[1], b[2]));
            binOf[i] = flat;
            ++counts[flat];
        }
    });
    // Serial prefix over (bin, slice): leaves each slice's per-bin
    // scatter cursor in its histogram slot and the bin offsets in
    // binStart, matching the serial prefix bin for bin.
    binStart.resize(nbins + 1);
    binStart[0] = 0;
    std::uint32_t running = 0;
    for (std::size_t b = 0; b < nbins; ++b) {
        for (std::size_t s = 0; s < nslices; ++s) {
            const std::uint32_t count = binSliceCount[s * nbins + b];
            binSliceCount[s * nbins + b] = running;
            running += count;
        }
        binStart[b + 1] = running;
    }
    binAtoms.resize(n);
    pool.run(slices, [&](std::size_t begin, std::size_t end, int s) {
        std::uint32_t *cursor = binSliceCount.data() + s * nbins;
        for (std::size_t i = begin; i < end; ++i)
            binAtoms[cursor[binOf[i]]++] = static_cast<std::uint32_t>(i);
    });
}

/** Everything the row fills read, hoisted once per build. */
struct BuildCtx
{
    const BinGrid &grid;
    bool full; ///< full list: walk the whole stencil, skip only i
    const std::uint32_t *binStart; ///< CSR bin offsets
    const std::uint32_t *binAtoms; ///< bin-ordered atom ids (+ pad)
    const mdbench::Vec3 *x;        ///< positions in atom order
    const std::int64_t *tag;       ///< global tags in atom order
    std::size_t nlocal;
    double cutSq;
    /**
     * Special lists resolved over the owned atoms: row i's excluded
     * partner tags are specialTags[specialOffsets[i] ..
     * specialOffsets[i + 1]). Null when the system has no exclusions.
     */
    const std::uint32_t *specialOffsets = nullptr;
    const std::int64_t *specialTags = nullptr;
    const double *sx = nullptr; ///< bin-ordered x coordinates (+ pad)
    const double *sy = nullptr; ///< bin-ordered y coordinates (+ pad)
    const double *sz = nullptr; ///< bin-ordered z coordinates (+ pad)

    /** Excluded partner tags of owned atom @p i as [first, second). */
    std::pair<const std::int64_t *, const std::int64_t *>
    special(std::size_t i) const
    {
        if (specialOffsets == nullptr)
            return {nullptr, nullptr};
        return {specialTags + specialOffsets[i],
                specialTags + specialOffsets[i + 1]};
    }
};

/** @p count rounded up to a whole number of @p padWidth slots. */
inline std::size_t
paddedLength(std::size_t count, int padWidth)
{
    const auto w = static_cast<std::size_t>(std::max(padWidth, 1));
    return (count + w - 1) / w * w;
}

/** Per-build candidate and exclusion totals. */
struct BuildTally
{
    std::size_t candidates = 0; ///< stencil slots examined
    std::size_t excluded = 0;   ///< in-range pairs dropped as special

    BuildTally &
    operator+=(const BuildTally &o)
    {
        candidates += o.candidates;
        excluded += o.excluded;
        return *this;
    }
};

/**
 * The stencil of atom @p i as contiguous binAtoms runs. flatten() is
 * x-fastest, so the dx = -2..2 bins of every (dy, dz) row are one dense
 * range of bin ids and therefore one dense range of bin-ordered slots:
 * at most 25 runs instead of 125 bins. A half list walks only the
 * dz >= 0 rows, 15 runs: cellOf is monotone in z, so no atom in i's
 * upper half-space sits in a lower z-bin. Runs are clamped to the
 * grid, so an axis with fewer than five bins visits each bin once.
 */
struct StencilRuns
{
    std::array<std::uint32_t, kStencilRows> lo; ///< first slot of each run
    std::array<std::uint32_t, kStencilRows> hi; ///< one past the last slot
    int count = 0;
    std::uint32_t total = 0; ///< candidate slots across all runs
};

inline StencilRuns
stencilRuns(const BuildCtx &c, const mdbench::Vec3 &xi)
{
    const auto bi = c.grid.cellOf(xi);
    const int *nb = c.grid.nb;
    const int x0 = std::max(bi[0] - kStencilReach, 0);
    const int x1 = std::min(bi[0] + kStencilReach, nb[0] - 1);
    StencilRuns runs;
    for (int dz = c.full ? -kStencilReach : 0; dz <= kStencilReach; ++dz) {
        const int bz = bi[2] + dz;
        if (bz < 0 || bz >= nb[2])
            continue;
        for (int dy = -kStencilReach; dy <= kStencilReach; ++dy) {
            const int by = bi[1] + dy;
            if (by < 0 || by >= nb[1])
                continue;
            const std::size_t bin = c.grid.flatten(x0, by, bz);
            const std::uint32_t beg = c.binStart[bin];
            const std::uint32_t end =
                c.binStart[bin + static_cast<std::size_t>(x1 - x0) + 1];
            if (beg == end)
                continue;
            runs.lo[static_cast<std::size_t>(runs.count)] = beg;
            runs.hi[static_cast<std::size_t>(runs.count)] = end;
            ++runs.count;
            runs.total += end - beg;
        }
    }
    return runs;
}

/**
 * Fully vectorized CSR row fill for atom @p i: every stencil candidate
 * is tested in a W-wide chunk of the bin-ordered staging — contiguous
 * loads, no gathers — and the whole inclusion predicate
 * (distance, then the half-list ownership rule) is evaluated as lane
 * masks. With Special set (row i has special partners), the accepted
 * lanes whose tag is one of them are dropped before the append and
 * counted into @p excluded. Accepted lanes append through
 * compressStore in ascending lane order, so every W emits the rows of
 * the W = 1 instantiation — the reference the wider ones are tested
 * against — in the same order (modulo the documented 1-ulp ISA fma
 * contraction at the build cutoff). Widths 0 and 1 run W = 1 itself.
 *
 * Half-list ownership: j is kept when it lies in the upper half-space
 * of i — greater z, then greater y, then greater x — with j > i
 * deciding exactly equal coordinates. Exactly one side of every local
 * pair passes, and so does exactly one of the two mirrored copies of a
 * pair across a periodic boundary. A ghost id always exceeds every
 * owned id, so a ghost at i's exact position is kept. The == compares
 * treat ±0.0 as equal.
 *
 * Chunks start at each run's first slot and lanes are independent, so
 * the result does not depend on W's chunk phase; lanes past the run
 * end read the next bin's staged records (or the pad at the array
 * end) and are masked off by the lane-index compare before they can
 * contribute.
 *
 * The caller precomputes @p runs and charges runs.total to the
 * counters.
 */
template <int W, bool Full, bool Special>
inline std::uint32_t
fillRowSimdImpl(const BuildCtx &c, std::size_t i, const StencilRuns &runs,
                std::uint32_t *dst, std::size_t &excluded)
{
    using D = mdbench::Simd<double, W>;
    using M = mdbench::SimdMask<double, W>;
    using I = mdbench::SimdIndex<W>;

    const mdbench::Vec3 xi = c.x[i];
    const D xiV(xi.x), yiV(xi.y), ziV(xi.z);
    const D cutSqV(c.cutSq);
    const std::uint32_t i32 = static_cast<std::uint32_t>(i);
    const auto [special, specialEnd] = c.special(i);
    std::uint32_t n = 0;
    const auto chunk = [&](std::uint32_t at, int laneMask) {
        const I ids = I::load(c.binAtoms + at);
        const D xj = D::loadu(c.sx + at);
        const D yj = D::loadu(c.sy + at);
        const D zj = D::loadu(c.sz + at);
        const D ddx = xj - xiV;
        const D ddy = yj - yiV;
        const D ddz = zj - ziV;
        const D rsq = D::fma(ddz, ddz, D::fma(ddy, ddy, ddx * ddx));
        const M dist = rsq < cutSqV;
        // Most candidates fail the distance test (the acceptance ratio
        // is ~0.2), so one lane at a time skips the ownership algebra
        // for them; wider chunks rarely have every lane out of range.
        if constexpr (W == 1) {
            if (dist.bits() == 0)
                return;
        }
        M inc;
        if constexpr (Full) {
            // Full list: every in-range candidate except i itself.
            inc = M::fromIndexEQ(ids, i32).andnot(dist);
        } else {
            // Half list: the ownership rule lane for lane, the index
            // order deciding only exactly equal coordinates (which also
            // drops i itself).
            const M idGT = M::fromIndexGT(ids, i32);
            const M upper =
                (zj > ziV) |
                ((zj == ziV) &
                 ((yj > yiV) |
                  ((yj == yiV) & ((xj > xiV) | ((xj == xiV) & idGT)))));
            inc = dist & upper;
        }
        int bits = inc.bits() & laneMask;
        if constexpr (Special) {
            for (int m = bits; m != 0; m &= m - 1) {
                const int l = std::countr_zero(static_cast<unsigned>(m));
                if (std::find(special, specialEnd,
                              c.tag[c.binAtoms[at + l]]) != specialEnd) {
                    bits &= ~(1 << l);
                    ++excluded;
                }
            }
        }
        n += static_cast<std::uint32_t>(compressStore(dst + n, ids, bits));
    };
    constexpr int kFullMask = (1 << W) - 1;
    for (int run = 0; run < runs.count; ++run) {
        const std::uint32_t runEnd = runs.hi[static_cast<std::size_t>(run)];
        std::uint32_t idx = runs.lo[static_cast<std::size_t>(run)];
        // Whole chunks need no lane-validity mask; the single tail
        // chunk keeps only its first runEnd - idx lanes (the rest read
        // the next bin's staged records, or the pad at the array end).
        // W = 1 has no tail, and its single call site lets gcc inline
        // the chunk (out of line, the width-0 build ran twice as slow
        // as the row walk the W = 1 fill replaced).
        for (; idx + W <= runEnd; idx += W)
            chunk(idx, kFullMask);
        if (W > 1 && idx < runEnd)
            chunk(idx, (1 << (runEnd - idx)) - 1);
    }
    return n;
}

/**
 * Row fill for atom @p i: only rows with special partners take the
 * instantiation that tests accepted lanes against them, so rows (and
 * systems) without exclusions run the plain predicate.
 */
template <int W, bool Full>
inline std::uint32_t
fillRowSimd(const BuildCtx &c, std::size_t i, const StencilRuns &runs,
            std::uint32_t *dst, std::size_t &excluded)
{
    const auto [special, specialEnd] = c.special(i);
    if (special != specialEnd)
        return fillRowSimdImpl<W, Full, true>(c, i, runs, dst, excluded);
    return fillRowSimdImpl<W, Full, false>(c, i, runs, dst, excluded);
}

/**
 * One-pass CSR fill over all owned atoms: every candidate is tested
 * once. Row slices run on the pool. Slice s writes its rows into its own
 * region of the list, sized from what the same rows held in the
 * previous build (whose offsets the list still holds) plus 1/16 and 64
 * slots of slack. From the first row that might not fit, it writes to a
 * spill buffer instead; a single-threaded pool runs one slice, which
 * grows the list in place. Each slice's region part and spill are then
 * moved to where the slice starts in the final list: the slices that
 * move up first, from the top down, then the rest from the bottom up,
 * an order in which no move overwrites a slice not yet moved. The list
 * is the concatenation of the rows in index order, bitwise independent
 * of the slicing and the thread count, and it never needs a second copy
 * of itself. A threaded build with no previous list counts its rows
 * first, so its regions fit and peak memory stays at one list. Each row
 * is written padded: its ids, then list.sentinel up to a multiple of
 * list.padWidth (DESIGN.md §12).
 *
 * @p fillRow(i, runs, dst, excluded) writes row i's ids — at most
 * runs.total entries — at dst and returns their count.
 */
template <class FillRow>
void
fillRows(NeighborList &list, const BuildCtx &ctx, ThreadPool &pool,
         BuildTally &tally, const FillRow &fillRow)
{
    constexpr std::size_t kMax = SliceRange::kMaxSlices;
    const std::size_t nlocal = ctx.nlocal;
    const int w = list.padWidth;
    const std::uint32_t sentinel = list.sentinel;
    const SliceRange slices(0, nlocal,
                            pool.size() == 1 ? nlocal : kNeighborGrain);
    const auto n = static_cast<std::size_t>(slices.count());
    // Slice s fills [region[s], region[s + 1]) and ends up at
    // [base[s], base[s + 1]); used[s] entries, fit[s] of them in its
    // region and the rest in spill[s].
    std::array<std::size_t, kMax + 1> region{};
    std::array<std::size_t, kMax + 1> base{};
    std::array<std::size_t, kMax> used{};
    std::array<std::size_t, kMax> fit{};
    std::array<std::vector<std::uint32_t>, kMax> spill;
    std::array<BuildTally, kMax> sliceTally{};
    // Entries rows [b, e) held in the previous build; rows past its end
    // count as average rows.
    const std::size_t prevRows =
        list.offsets.empty() ? 0 : list.offsets.size() - 1;
    const std::size_t prevCount = prevRows ? list.offsets[prevRows] : 0;
    const auto prevHeld = [&](std::size_t b, std::size_t e) {
        const std::size_t cb = std::min(b, prevRows);
        const std::size_t ce = std::min(e, prevRows);
        return list.offsets[ce] - list.offsets[cb] +
               (e - b - (ce - cb)) * prevCount / prevRows;
    };
    if (prevCount == 0 && n > 1) {
        // Padded counts plus room for the slice's largest row bound, so
        // no row spills on its bound alone.
        pool.run(slices, [&](std::size_t begin, std::size_t end, int si) {
            const auto s = static_cast<std::size_t>(si);
            std::vector<std::uint32_t> row;
            std::size_t excluded = 0;
            for (std::size_t i = begin; i < end; ++i) {
                const StencilRuns runs = stencilRuns(ctx, ctx.x[i]);
                row.resize(std::max<std::size_t>(row.size(), runs.total));
                used[s] += paddedLength(
                    fillRow(i, runs, row.data(), excluded), w);
            }
            used[s] += paddedLength(row.size(), w);
        });
    }
    for (std::size_t s = 0; s < n; ++s) {
        const int si = static_cast<int>(s);
        const std::size_t held =
            prevCount == 0 ? used[s]
                           : prevHeld(slices.begin(si), slices.end(si));
        region[s + 1] =
            region[s] + held + (prevCount == 0 ? 0 : held / 16 + 64);
    }
    list.offsets.assign(nlocal + 1, 0);
    list.counts.resize(nlocal);
    list.neighbors.resize(region[n]);
    std::uint32_t *nbrs = list.neighbors.data();
    std::uint32_t *offsets = list.offsets.data();
    std::uint32_t *counts = list.counts.data();
    pool.run(slices, [&](std::size_t begin, std::size_t end, int si) {
        const auto s = static_cast<std::size_t>(si);
        std::uint32_t *own = nbrs + region[s];
        std::vector<std::uint32_t> &over = spill[s];
        std::size_t room = region[s + 1] - region[s];
        BuildTally t;
        std::size_t cursor = 0;
        for (std::size_t i = begin; i < end; ++i) {
            const StencilRuns runs = stencilRuns(ctx, ctx.x[i]);
            t.candidates += runs.total;
            const std::size_t rowRoom = paddedLength(runs.total, w);
            if (cursor + rowRoom > room && n == 1) {
                // The only slice grows the list itself, to what the
                // rows filled so far project for all rows plus 1/16 (at
                // least by an eighth), and reserves exactly that: a
                // doubling step would leave the peak footprint up to
                // twice the list.
                const std::size_t need = cursor + rowRoom;
                const std::size_t projected =
                    i == 0 ? 0
                           : cursor * (nlocal + nlocal / 16) / i + rowRoom;
                const std::size_t grown =
                    std::max({need, room + room / 8, projected});
                list.neighbors.reserve(grown);
                list.neighbors.resize(grown);
                own = list.neighbors.data();
                room = list.neighbors.size();
            } else if (cursor + rowRoom > room) {
                // This row and every later one go to the spill buffer.
                room = std::min(room, cursor);
                const std::size_t need = cursor - room + rowRoom;
                if (over.size() < need)
                    over.resize(std::max(2 * over.size(), need));
            }
            std::uint32_t *dst =
                cursor < room ? own + cursor : over.data() + (cursor - room);
            const std::uint32_t count = fillRow(i, runs, dst, t.excluded);
            const std::size_t rowEnd = paddedLength(count, w);
            for (std::size_t k = count; k < rowEnd; ++k)
                dst[k] = sentinel;
            counts[i] = count;
            cursor += rowEnd;
            offsets[i + 1] = static_cast<std::uint32_t>(cursor);
        }
        used[s] = cursor;
        fit[s] = std::min(room, cursor);
        sliceTally[s] = t;
    });
    for (std::size_t s = 0; s < n; ++s) {
        base[s + 1] = base[s] + used[s];
        tally += sliceTally[s];
    }
    list.neighbors.resize(std::max(region[n], base[n]));
    nbrs = list.neighbors.data();
    const auto place = [&](std::size_t s) {
        if (base[s] != region[s]) {
            std::memmove(nbrs + base[s], nbrs + region[s],
                         fit[s] * sizeof(std::uint32_t));
        }
        std::copy(spill[s].data(), spill[s].data() + (used[s] - fit[s]),
                  nbrs + base[s] + fit[s]);
        for (std::size_t i = slices.begin(static_cast<int>(s));
             i < slices.end(static_cast<int>(s)); ++i)
            offsets[i + 1] += static_cast<std::uint32_t>(base[s]);
    };
    for (std::size_t s = n; s-- > 0;) {
        if (base[s] > region[s])
            place(s);
    }
    for (std::size_t s = 0; s < n; ++s) {
        if (base[s] <= region[s])
            place(s);
    }
    list.neighbors.resize(base[n]);
    list.pairs = std::accumulate(list.counts.begin(), list.counts.end(),
                                 std::size_t{0});
    list.paddedSlots = base[n] - list.pairs;
}

/** Width × flavor dispatch for the vectorized build. */
void
dispatchBuildRows(int filterW, bool full, NeighborList &list,
                  const BuildCtx &ctx, ThreadPool &pool,
                  BuildTally &tally)
{
    auto run = [&](auto widthTag, auto fullTag) {
        constexpr int W = decltype(widthTag)::value;
        constexpr bool Full = decltype(fullTag)::value;
        fillRows(list, ctx, pool, tally,
                 [&](std::size_t i, const StencilRuns &runs,
                     std::uint32_t *dst, std::size_t &excluded) {
                     return fillRowSimd<W, Full>(ctx, i, runs, dst,
                                                 excluded);
                 });
    };
    auto width = [&](auto fullTag) {
        if (filterW == 8)
            run(std::integral_constant<int, 8>{}, fullTag);
        else if (filterW == 4)
            run(std::integral_constant<int, 4>{}, fullTag);
        else if (filterW == 2)
            run(std::integral_constant<int, 2>{}, fullTag);
        else
            run(std::integral_constant<int, 1>{}, fullTag);
    };
    if (full)
        width(std::true_type{});
    else
        width(std::false_type{});
}

/**
 * Pad @p list's rows to @p width (0 = no padding) at sim.config's tier,
 * installing the AtomStore pad slot the sentinel ids gather from: it
 * sits far beyond the box on every axis, so even after atoms drift
 * between rebuilds no real position comes within the build cutoff of
 * it, and the kernels' r² mask zeroes every sentinel lane. Width 0, or
 * no owned atoms, records the double tier.
 */
void
setPadding(mdbench::Simulation &sim, mdbench::NeighborList &list, int width)
{
    list.padWidth = sim.atoms.nlocal() == 0 ? 0 : std::max(width, 0);
    list.packTier = list.padWidth >= 1 ? sim.config.precision
                                       : mdbench::Precision::Double;
    list.sentinel = 0;
    if (list.padWidth >= 1) {
        const mdbench::Vec3 padPos = sim.box.hi() + sim.box.lengths() +
                                     mdbench::Vec3{1.0e6, 1.0e6, 1.0e6};
        list.sentinel =
            static_cast<std::uint32_t>(sim.atoms.ensurePadAtom(padPos));
    }
}

/**
 * Lay out @p list's row starts, pair total and padded slots from its
 * counts; sizing and filling the rows is left to the caller.
 */
void
layoutRows(mdbench::NeighborList &list)
{
    const std::size_t nrows = list.counts.size();
    list.offsets.resize(nrows + 1);
    list.offsets[0] = 0;
    list.pairs = 0;
    for (std::size_t i = 0; i < nrows; ++i) {
        list.offsets[i + 1] = list.offsets[i] + static_cast<std::uint32_t>(
                                  paddedLength(list.counts[i], list.padWidth));
        list.pairs += list.counts[i];
    }
    list.paddedSlots = list.offsets[nrows] - list.pairs;
}

/**
 * Write row @p i of a laid-out @p list: its counts[i] ids from @p ids
 * (which may overlap the row), then the sentinel up to the next row.
 */
void
copyRow(mdbench::NeighborList &list, std::size_t i, const std::uint32_t *ids)
{
    std::uint32_t *row = list.neighbors.data() + list.offsets[i];
    std::memmove(row, ids, list.counts[i] * sizeof(std::uint32_t));
    std::fill(row + list.counts[i],
              list.neighbors.data() + list.offsets[i + 1], list.sentinel);
}

} // namespace

void
countSimdLaneUse(const NeighborList &list, int traversals)
{
    if (list.padWidth == 0)
        return;
    const std::size_t t = static_cast<std::size_t>(traversals);
    counterAdd(Counter::PairSimdLanesActive, t * list.pairCount());
    counterAdd(Counter::PairSimdPaddingWaste, t * list.paddedSlots);
}

double
NeighborList::neighborsPerAtom() const
{
    const std::size_t n = offsets.empty() ? 0 : offsets.size() - 1;
    if (n == 0)
        return 0.0;
    // Half lists store each physical pair once, so each pair contributes
    // a neighbor to both of its atoms.
    const double perPair = full ? 1.0 : 2.0;
    return perPair * static_cast<double>(pairCount()) /
           static_cast<double>(n);
}

bool
Neighbor::checkTrigger(const Simulation &sim) const
{
    TraceScope trace("neigh", "trigger_check");
    counterAdd(Counter::NeighTriggerChecks);
    const AtomStore &atoms = sim.atoms;
    if (lastBuildPos_.size() != atoms.nlocal())
        return true;
    const double trigger = triggerDistance();
    const double triggerSq = trigger * trigger;
    // Serial, with an early exit. A pooled max-displacement reduction
    // saves little even at 32k atoms, and its pool region every step
    // costs more than the whole scan on small systems.
    for (std::size_t i = 0; i < atoms.nlocal(); ++i) {
        if ((atoms.x[i] - lastBuildPos_[i]).normSq() > triggerSq)
            return true;
    }
    return false;
}

void
Neighbor::build(Simulation &sim)
{
    TraceScope trace("neigh", "build");
    buildImpl(sim);
}

void
Neighbor::buildImpl(Simulation &sim)
{
    AtomStore &atoms = sim.atoms;
    const std::size_t nlocal = atoms.nlocal();
    const std::size_t nall = atoms.nall();

    const double cut = cutoff + skin;
    require(cut > 0.0, "neighbor build cutoff must be positive");
    const double cutSq = cut * cut;

    ThreadPool &pool = ThreadPool::global();

    // The fill pads list_'s rows as it writes them; in split mode it is
    // filled unpadded and buildSplitLists pads the sublists. Installing
    // the pad slot may reallocate the positions, so x is taken after.
    splitBuilt_ = false;
    setPadding(sim, list_, splitGhostPairs ? 0 : sim.config.packWidth());

    // Bin the owned and ghost atoms at half the build cutoff.
    const Vec3 *x = atoms.x.data();
    const BinGrid grid = makeBinGrid(sim.box, cut, x, nall);
    countingSortBinsParallel(grid, x, nall, pool, binOf_, binStart_,
                             binSliceCount_, binAtoms_);
    // Readable (masked-off) slots past the last bin for whole-chunk
    // loads; zero ids point at a real record but never pass the
    // lane-validity mask.
    binAtoms_.resize(nall + kSimdPad, 0);

    list_.full = full;
    list_.buildCutoff = cut;

    // Raw pointers into the bin structures: the fill loops append to a
    // member vector, so indexing the members directly would force the
    // compiler to re-load their data pointers every iteration.
    BuildCtx ctx{grid, full, binStart_.data(), binAtoms_.data(), x,
                 atoms.tag.data(), nlocal, cutSq};

    // Resolve the special lists once per build into a CSR over the
    // owned atoms; the fills drop accepted candidates whose tag is in
    // row i's list.
    if (sim.topology.exclusionCount() > 0) {
        specialOffsets_.assign(nlocal + 1, 0);
        specialTags_.clear();
        for (std::size_t i = 0; i < nlocal; ++i) {
            const auto partners = sim.topology.specialPartners(atoms.tag[i]);
            specialTags_.insert(specialTags_.end(), partners.begin(),
                                partners.end());
            specialOffsets_[i + 1] =
                static_cast<std::uint32_t>(specialTags_.size());
        }
        ctx.specialOffsets = specialOffsets_.data();
        ctx.specialTags = specialTags_.data();
    }

    // W-wide candidate filter width: the dominant cost of the bin walk
    // is the per-candidate r² check. Widths 0/1 run the W = 1 fill,
    // the reference every wider fill is tested against.
    const int filterW = [&sim] {
        const int dw = sim.config.laneWidth(false);
        if (dw >= 8)
            return 8;
        if (dw >= 4)
            return 4;
        return dw == 2 ? 2 : 1;
    }();
    BuildTally tally;
    {
        // Candidate coordinates are staged once in bin order as three SoA
        // runs, so the per-run chunks are plain contiguous vector loads and
        // accepted lanes compress straight into the CSR rows. The three
        // arrays share one aligned allocation (records() hands out 4
        // doubles per slot).
        TraceScope filterTrace("neigh", "build_filter");
        const std::size_t stride = nall + kSimdPad;
        double *sx = buildStage_.records(stride);
        double *sy = sx + stride;
        double *sz = sy + stride;
        const std::uint32_t *binAtoms = ctx.binAtoms;
        pool.parallelFor(0, nall, 4 * kNeighborGrain,
                         [&](std::size_t begin, std::size_t end, int) {
                             for (std::size_t k = begin; k < end; ++k) {
                                 const Vec3 &p = x[binAtoms[k]];
                                 sx[k] = p.x;
                                 sy[k] = p.y;
                                 sz[k] = p.z;
                             }
                         });
        for (std::size_t k = nall; k < stride; ++k) {
            sx[k] = 0.0;
            sy[k] = 0.0;
            sz[k] = 0.0;
        }
        ctx.sx = sx;
        ctx.sy = sy;
        ctx.sz = sz;
        dispatchBuildRows(filterW, full, list_, ctx, pool, tally);
    }
    counterAdd(Counter::NeighBuilds);
    counterAdd(Counter::NeighPairs, list_.pairCount());
    counterAdd(Counter::NeighBuildCandidates, tally.candidates);
    counterAdd(Counter::NeighBuildAccepted, list_.pairCount());
    counterAdd(Counter::NeighExcludedPairs, tally.excluded);
    if (splitGhostPairs)
        buildSplitLists(sim);
    else
        counterAdd(Counter::NeighPaddedSlots, list_.paddedSlots);

    lastBuildPos_.assign(atoms.x.begin(), atoms.x.begin() + nlocal);
    ++buildCount_;
    ++buildsSinceSort_;
    if (firstBuildStep_ < 0)
        firstBuildStep_ = sim.step;
    lastBuildStep_ = sim.step;
}

void
Neighbor::buildSplitLists(Simulation &sim)
{
    const std::size_t nlocal = sim.atoms.nlocal();
    const auto owned = static_cast<std::uint32_t>(nlocal);
    const std::uint32_t *nbrs = list_.neighbors.data();
    for (NeighborList *sub : {&interiorList_, &boundaryList_}) {
        sub->full = list_.full;
        sub->buildCutoff = list_.buildCutoff;
        setPadding(sim, *sub, sim.config.packWidth());
        sub->counts.resize(nlocal);
    }
    ThreadPool &pool = ThreadPool::global();
    const auto count = [&](std::size_t begin, std::size_t end, int) {
        for (std::size_t i = begin; i < end; ++i) {
            const auto [b, e] = list_.range(i);
            const auto inner = static_cast<std::uint32_t>(std::count_if(
                nbrs + b, nbrs + e,
                [owned](std::uint32_t j) { return j < owned; }));
            interiorList_.counts[i] = inner;
            boundaryList_.counts[i] = e - b - inner;
        }
    };
    pool.parallelFor(0, nlocal, kNeighborGrain, count);
    for (NeighborList *sub : {&interiorList_, &boundaryList_}) {
        layoutRows(*sub);
        sub->neighbors.resize(sub->offsets[nlocal]);
        counterAdd(Counter::NeighPaddedSlots, sub->paddedSlots);
    }
    // One pass over each main row deals its ids to the two sublist rows
    // in the row's order, then pads both rows.
    std::uint32_t *const inIds = interiorList_.neighbors.data();
    std::uint32_t *const bdIds = boundaryList_.neighbors.data();
    const std::uint32_t *const inRows = interiorList_.offsets.data();
    const std::uint32_t *const bdRows = boundaryList_.offsets.data();
    const std::uint32_t pad = interiorList_.sentinel;
    const auto deal = [&](std::size_t begin, std::size_t end, int) {
        for (std::size_t i = begin; i < end; ++i) {
            const auto [b, e] = list_.range(i);
            std::uint32_t *in = inIds + inRows[i];
            std::uint32_t *bd = bdIds + bdRows[i];
            for (std::uint32_t k = b; k < e; ++k) {
                const std::uint32_t j = nbrs[k];
                if (j < owned)
                    *in++ = j;
                else
                    *bd++ = j;
            }
            std::fill(in, inIds + inRows[i + 1], pad);
            std::fill(bd, bdIds + bdRows[i + 1], pad);
        }
    };
    pool.parallelFor(0, nlocal, kNeighborGrain, deal);
    splitBuilt_ = true;
}

void
Neighbor::ensureFreshPacking(Simulation &sim)
{
    if (buildCount_ == 0 || splitGhostPairs)
        return;
    // Width 0 pads nothing and records the double tier.
    const int width = sim.config.packWidth();
    const Precision tier =
        width >= 1 ? sim.config.precision : Precision::Double;
    if (width == list_.padWidth && tier == list_.packTier)
        return;
    // The config changed since the build: lay the rows out again at the
    // new width and move each one, those that move up first from the top
    // down, then the rest from the bottom up, so that no row overwrites
    // one not yet moved.
    const std::vector<std::uint32_t> from = list_.offsets;
    const std::size_t nlocal = list_.counts.size();
    setPadding(sim, list_, width);
    layoutRows(list_);
    list_.neighbors.resize(std::max(from[nlocal], list_.offsets[nlocal]));
    const auto move = [&](std::size_t i) {
        copyRow(list_, i, list_.neighbors.data() + from[i]);
    };
    for (std::size_t i = nlocal; i-- > 0;) {
        if (list_.offsets[i] > from[i])
            move(i);
    }
    for (std::size_t i = 0; i < nlocal; ++i) {
        if (list_.offsets[i] <= from[i])
            move(i);
    }
    list_.neighbors.resize(list_.offsets[nlocal]);
    counterAdd(Counter::NeighPaddedSlots, list_.paddedSlots);
}

void
Neighbor::computeSortOrder(const Simulation &sim,
                           std::vector<std::uint32_t> &order)
{
    const AtomStore &atoms = sim.atoms;
    const double cut = cutoff + skin;
    require(cut > 0.0, "sort order needs a positive neighbor cutoff");
    // The build's grid rule over the owned atoms (no ghosts exist at
    // sort time): the neighbor ids of spatially close atoms become
    // close indices, so the pair-kernel x[j] gathers walk the position
    // array nearly monotonically (LAMMPS `atom_modify sort` / MD-Bench
    // layout).
    const BinGrid grid =
        makeBinGrid(sim.box, cut, atoms.x.data(), atoms.nlocal());
    countingSortBinsParallel(grid, atoms.x.data(), atoms.nlocal(),
                             ThreadPool::global(), binOf_, binStart_,
                             binSliceCount_, binAtoms_);
    order.assign(binAtoms_.begin(), binAtoms_.end());
}

void
Neighbor::noteSortApplied()
{
    buildsSinceSort_ = 0;
    ++sortCount_;
    // Saved build positions are indexed by the pre-sort order; drop
    // them so any trigger check before the next build forces a rebuild
    // instead of comparing unrelated atoms.
    lastBuildPos_.clear();
}

double
Neighbor::averageRebuildInterval() const
{
    if (buildCount_ < 2)
        return 0.0;
    return static_cast<double>(lastBuildStep_ - firstBuildStep_) /
           static_cast<double>(buildCount_ - 1);
}

} // namespace mdbench
