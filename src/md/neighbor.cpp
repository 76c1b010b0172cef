#include "md/neighbor.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <cstring>
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
 * upper half (half lists, see upperHalf).
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
 * Counting-sort binning: bin counts -> prefix sum -> scatter into a
 * contiguous per-bin atom array. Within a bin atoms end up in ascending
 * index order (the scatter walks atoms in order), and the contiguous
 * layout streams better than chasing head/next chains. Shared by the
 * list build (over owned + ghost atoms) and the spatial sort (over
 * owned atoms only), so both bin by the same grid rule.
 */
void
countingSortBins(const BinGrid &grid, const mdbench::Vec3 *x, std::size_t n,
                 std::vector<std::uint32_t> &binOf,
                 std::vector<std::uint32_t> &binStart,
                 std::vector<std::uint32_t> &binCursor,
                 std::vector<std::uint32_t> &binAtoms)
{
    binOf.resize(n);
    binStart.assign(grid.nbins + 1, 0);
    for (std::size_t i = 0; i < n; ++i) {
        const auto b = grid.cellOf(x[i]);
        const std::uint32_t flat =
            static_cast<std::uint32_t>(grid.flatten(b[0], b[1], b[2]));
        binOf[i] = flat;
        ++binStart[flat + 1];
    }
    for (std::size_t b = 0; b < grid.nbins; ++b)
        binStart[b + 1] += binStart[b];
    binAtoms.resize(n);
    binCursor.assign(binStart.begin(), binStart.end() - 1);
    for (std::size_t i = 0; i < n; ++i)
        binAtoms[binCursor[binOf[i]]++] = static_cast<std::uint32_t>(i);
}

/**
 * Threaded counting sort over the shared pool, bitwise identical to
 * the serial version: per-slice histograms, a serial (bin, slice)
 * prefix that assigns each slice a scatter cursor per bin, then a
 * parallel scatter. Slices are a fixed partition of the atom range
 * (at most kSortSlices) and walk atoms ascending, so within a bin the
 * final order is ascending atom index exactly as the serial scatter
 * produces.
 */
void
countingSortBinsParallel(const BinGrid &grid, const mdbench::Vec3 *x,
                         std::size_t n, ThreadPool &pool,
                         std::vector<std::uint32_t> &binOf,
                         std::vector<std::uint32_t> &binStart,
                         std::vector<std::uint32_t> &binSliceCount,
                         std::vector<std::uint32_t> &binAtoms)
{
    const SliceRange slices(
        0, n, std::max(kNeighborGrain, (n + kSortSlices - 1) / kSortSlices));
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

/**
 * Half-list ownership: true when @p xj lies in the upper half-space of
 * @p xi — greater z, then greater y, then greater x — with @p jAfterI
 * (j > i) deciding exactly equal coordinates. Exactly one side of every
 * local pair passes, and so does exactly one of the two mirrored
 * copies of a pair across a periodic boundary. A ghost id always
 * exceeds every owned id, so a ghost at i's exact position is kept.
 * The == compares treat ±0.0 as equal, like the vector masks.
 */
inline bool
upperHalf(const mdbench::Vec3 &xj, const mdbench::Vec3 &xi, bool jAfterI)
{
    if (xj.z != xi.z)
        return xj.z > xi.z;
    if (xj.y != xi.y)
        return xj.y > xi.y;
    if (xj.x != xi.x)
        return xj.x > xi.x;
    return jAfterI;
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
 * upper half-space (upperHalf) sits in a lower z-bin. Runs are clamped
 * to the grid, so an axis with fewer than five bins visits each bin
 * once. Walking a run ascending visits exactly the bins the scalar
 * oracle visits, in its order.
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
 * transpose loads, no gathers — and the whole inclusion predicate
 * (distance, then the half-list upperHalf ownership rule) is evaluated
 * as lane masks. With Special set (row i has special
 * partners), the accepted lanes whose tag is one of them are dropped
 * before the append and counted into @p excluded. Accepted lanes
 * append through compressStore in ascending lane order, which is
 * exactly the scalar walk's emit order, so the produced rows are
 * identical to the scalar oracle's (modulo the documented 1-ulp ISA
 * fma contraction at the build cutoff).
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
        M inc;
        if constexpr (Full) {
            // Full list: every in-range candidate except i itself.
            inc = M::fromIndexEQ(ids, i32).andnot(dist);
        } else {
            // Half list: upperHalf lane for lane, the index order
            // deciding only exactly equal coordinates (which also drops
            // i itself).
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
        for (; idx + W <= runEnd; idx += W)
            chunk(idx, kFullMask);
        if (idx < runEnd)
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
 * first, so its regions fit and peak memory stays at one list.
 *
 * @p fillRow(i, runs, dst, excluded) writes row i — at most runs.total
 * entries — at dst and returns its length.
 */
template <class FillRow>
void
fillRows(NeighborList &list, const BuildCtx &ctx, ThreadPool &pool,
         BuildTally &tally, const FillRow &fillRow)
{
    constexpr std::size_t kMax = SliceRange::kMaxSlices;
    const std::size_t nlocal = ctx.nlocal;
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
        // Counts plus room for the slice's largest row bound
        // (runs.total), so no row spills on its bound alone.
        pool.run(slices, [&](std::size_t begin, std::size_t end, int si) {
            const auto s = static_cast<std::size_t>(si);
            std::vector<std::uint32_t> row;
            std::size_t excluded = 0;
            for (std::size_t i = begin; i < end; ++i) {
                const StencilRuns runs = stencilRuns(ctx, ctx.x[i]);
                row.resize(std::max<std::size_t>(row.size(), runs.total));
                used[s] += fillRow(i, runs, row.data(), excluded);
            }
            used[s] += row.size();
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
    list.neighbors.resize(region[n]);
    std::uint32_t *nbrs = list.neighbors.data();
    std::uint32_t *offsets = list.offsets.data();
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
            if (cursor + runs.total > room && n == 1) {
                // The only slice grows the list itself, to what the
                // rows filled so far project for all rows plus 1/16 (at
                // least by an eighth), and reserves exactly that: a
                // doubling step would leave the peak footprint up to
                // twice the list.
                const std::size_t need = cursor + runs.total;
                const std::size_t projected =
                    i == 0 ? 0
                           : cursor * (nlocal + nlocal / 16) / i +
                                 runs.total;
                const std::size_t grown =
                    std::max({need, room + room / 8, projected});
                list.neighbors.reserve(grown);
                list.neighbors.resize(grown);
                own = list.neighbors.data();
                room = list.neighbors.size();
            } else if (cursor + runs.total > room) {
                // This row and every later one go to the spill buffer.
                room = std::min(room, cursor);
                const std::size_t need = cursor - room + runs.total;
                if (over.size() < need)
                    over.resize(std::max(2 * over.size(), need));
            }
            std::uint32_t *dst =
                cursor < room ? own + cursor : over.data() + (cursor - room);
            cursor += fillRow(i, runs, dst, t.excluded);
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
        else
            run(std::integral_constant<int, 2>{}, fullTag);
    };
    if (full)
        width(std::true_type{});
    else
        width(std::false_type{});
}

/**
 * Scalar stencil-walk build: the bitwise oracle (width knob 0/1). It
 * walks the same stencilRuns as the vectorized fill, in the same
 * order, one candidate at a time, with the same inclusion and special
 * list rules. Kept out of line and marked noinline for the same reason
 * Neighbor::buildImpl is: inlined into the build with the vectorized
 * staging, gcc's function-size estimate passes its large-function
 * limits and the hot candidate loop stops being unrolled.
 */
[[gnu::noinline]] void
buildRowsScalar(NeighborList &list, const BuildCtx &c, ThreadPool &pool,
                BuildTally &tally)
{
    const mdbench::Vec3 *x = c.x;
    const bool full = c.full;

    auto fillRow = [&](std::size_t i, const StencilRuns &runs,
                       std::uint32_t *dst, std::size_t &excluded) {
        const mdbench::Vec3 xi = x[i];
        const auto [special, specialEnd] = c.special(i);
        std::uint32_t n = 0;
        for (int run = 0; run < runs.count; ++run) {
            const std::uint32_t runEnd =
                runs.hi[static_cast<std::size_t>(run)];
            for (std::uint32_t idx = runs.lo[static_cast<std::size_t>(run)];
                 idx < runEnd; ++idx) {
                const std::size_t ju = c.binAtoms[idx];
                if (ju == i)
                    continue;
                // One load serves both the distance check and the
                // half-list ownership rule (Newton on); the distance
                // test goes first because it rejects most candidates
                // with one predictable branch.
                const mdbench::Vec3 xj = x[ju];
                if ((xj - xi).normSq() >= c.cutSq)
                    continue;
                if (!full && !upperHalf(xj, xi, ju > i))
                    continue;
                if (special != specialEnd &&
                    std::find(special, specialEnd, c.tag[ju]) !=
                        specialEnd) {
                    ++excluded;
                    continue;
                }
                dst[n++] = static_cast<std::uint32_t>(ju);
            }
        }
        return n;
    };
    fillRows(list, c, pool, tally, fillRow);
}

} // namespace

void
countSimdLaneUse(const NeighborList &list, int traversals)
{
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
    return perPair * static_cast<double>(neighbors.size()) /
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
    const AtomStore &atoms = sim.atoms;
    const std::size_t nlocal = atoms.nlocal();
    const std::size_t nall = atoms.nall();

    const double cut = cutoff + skin;
    require(cut > 0.0, "neighbor build cutoff must be positive");
    const double cutSq = cut * cut;

    ThreadPool &pool = ThreadPool::global();

    // Bin the owned and ghost atoms at half the build cutoff.
    const Vec3 *x = atoms.x.data();
    const BinGrid grid = makeBinGrid(sim.box, cut, x, nall);
    if (pool.size() > 1 && nall >= 4 * kNeighborGrain) {
        countingSortBinsParallel(grid, x, nall, pool, binOf_, binStart_,
                                 binSliceCount_, binAtoms_);
    } else {
        countingSortBins(grid, x, nall, binOf_, binStart_, binCursor_,
                         binAtoms_);
    }
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
    // is the per-candidate r² check. Widths 0/1 keep the scalar walk as
    // the bitwise oracle.
    const int filterW = [] {
        const int dw = simdWidthFor(false);
        if (dw >= 8)
            return 8;
        if (dw >= 4)
            return 4;
        return dw == 2 ? 2 : 0;
    }();
    BuildTally tally;
    if (filterW >= 2 && nlocal > 0) {
        // Fully vectorized build: candidate coordinates are staged once
        // in bin order as three SoA runs, so the per-run chunks are
        // plain contiguous vector loads and accepted lanes compress
        // straight into the CSR rows. The three arrays share one
        // aligned allocation (records() hands out 4 doubles per slot).
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
    } else {
        TraceScope filterTrace("neigh", "build_filter");
        buildRowsScalar(list_, ctx, pool, tally);
    }
    counterAdd(Counter::NeighBuilds);
    counterAdd(Counter::NeighPairs, list_.neighbors.size());
    counterAdd(Counter::NeighBuildCandidates, tally.candidates);
    counterAdd(Counter::NeighBuildAccepted, list_.neighbors.size());
    counterAdd(Counter::NeighExcludedPairs, tally.excluded);

    packLists(sim);

    lastBuildPos_.assign(atoms.x.begin(), atoms.x.begin() + nlocal);
    ++buildCount_;
    ++buildsSinceSort_;
    if (firstBuildStep_ < 0)
        firstBuildStep_ = sim.step;
    lastBuildStep_ = sim.step;
}

void
Neighbor::packLists(Simulation &sim)
{
    if (splitGhostPairs) {
        // Ranks that split interior/boundary work pack each sublist
        // separately. The main list keeps no packing — the force
        // drivers only ever traverse the sublists.
        list_.packedOffsets.clear();
        list_.packedNeighbors.clear();
        list_.padWidth = 0;
        list_.paddedSlots = 0;
        buildSplitLists(sim);
        packPadded(sim, interiorList_);
        packPadded(sim, boundaryList_);
    } else {
        splitBuilt_ = false;
        packPadded(sim, list_);
    }
    // Record the knob values the packing was built with so
    // ensureFreshPacking can detect a stale packing without rebuilding.
    packedTier_ = precisionTier();
    packedWidth_ = simdWidthFor(packedTier_ != Precision::Double);
}

void
Neighbor::buildSplitLists(const Simulation &sim)
{
    const std::uint32_t nlocal =
        static_cast<std::uint32_t>(sim.atoms.nlocal());
    for (NeighborList *sub : {&interiorList_, &boundaryList_}) {
        sub->full = list_.full;
        sub->buildCutoff = list_.buildCutoff;
        sub->offsets.assign(nlocal + 1, 0);
        sub->neighbors.clear();
    }
    interiorList_.neighbors.reserve(list_.neighbors.size());
    for (std::uint32_t i = 0; i < nlocal; ++i) {
        const auto range = list_.range(i);
        for (std::uint32_t k = range.first; k < range.second; ++k) {
            const std::uint32_t j = list_.neighbors[k];
            (j < nlocal ? interiorList_ : boundaryList_)
                .neighbors.push_back(j);
        }
        interiorList_.offsets[i + 1] =
            static_cast<std::uint32_t>(interiorList_.neighbors.size());
        boundaryList_.offsets[i + 1] =
            static_cast<std::uint32_t>(boundaryList_.neighbors.size());
    }
    splitBuilt_ = true;
}

void
Neighbor::ensureFreshPacking(Simulation &sim)
{
    if (buildCount_ == 0 || splitGhostPairs)
        return;
    const Precision tier = precisionTier();
    const int width = simdWidthFor(tier != Precision::Double);
    if (width == packedWidth_ && tier == packedTier_)
        return;
    // A knob changed between builds: re-derive the packing from the
    // plain list.
    packLists(sim);
}

void
Neighbor::packPadded(Simulation &sim, NeighborList &list)
{
    const std::size_t nlocal = sim.atoms.nlocal();
    // Float tiers pack at the float-lane width (twice the double-lane
    // width at a given ISA level, the precision × SIMD synergy); the
    // tier is recorded on the list so kernels dispatch on the geometry
    // that was actually built.
    const Precision tier = precisionTier();
    const int width = simdWidthFor(tier != Precision::Double);
    list.padWidth = width;
    list.packTier = tier;
    if (width < 1 || nlocal == 0) {
        list.packedOffsets.clear();
        list.packedNeighbors.clear();
        list.paddedSlots = 0;
        list.sentinel = 0;
        list.padWidth = 0;
        list.packTier = Precision::Double;
        return;
    }
    TraceScope trace("neigh", "pack_padded");

    // The pad slot sits far beyond the box on every axis, so even after
    // atoms drift between rebuilds no real position comes within the
    // build cutoff of it: the kernels' r² mask is false for every
    // sentinel lane and padding contributes exact zeros.
    const Vec3 span = sim.box.lengths();
    const Vec3 padPos = sim.box.hi() + span + Vec3{1.0e6, 1.0e6, 1.0e6};
    list.sentinel =
        static_cast<std::uint32_t>(sim.atoms.ensurePadAtom(padPos));

    const std::uint32_t w = static_cast<std::uint32_t>(width);
    list.packedOffsets.resize(nlocal + 1);
    list.packedOffsets[0] = 0;
    for (std::size_t i = 0; i < nlocal; ++i) {
        const std::uint32_t count = list.offsets[i + 1] - list.offsets[i];
        const std::uint32_t padded = (count + w - 1) / w * w;
        list.packedOffsets[i + 1] = list.packedOffsets[i] + padded;
    }
    list.packedNeighbors.resize(list.packedOffsets[nlocal]);
    const std::uint32_t *src = list.neighbors.data();
    std::uint32_t *dst = list.packedNeighbors.data();
    const std::uint32_t sentinel = list.sentinel;
    ThreadPool::global().parallelFor(
        0, nlocal, kNeighborGrain,
        [&](std::size_t begin, std::size_t end, int) {
            for (std::size_t i = begin; i < end; ++i) {
                const std::uint32_t rowBegin = list.offsets[i];
                const std::uint32_t count = list.offsets[i + 1] - rowBegin;
                std::uint32_t cursor = list.packedOffsets[i];
                const std::uint32_t rowEnd = list.packedOffsets[i + 1];
                for (std::uint32_t k = 0; k < count; ++k)
                    dst[cursor++] = src[rowBegin + k];
                while (cursor < rowEnd)
                    dst[cursor++] = sentinel;
            }
        });
    list.paddedSlots = list.packedNeighbors.size() - list.neighbors.size();
    counterAdd(Counter::NeighPaddedSlots, list.paddedSlots);
}

int
Neighbor::defaultSortEvery()
{
    if (const char *env = std::getenv("MDBENCH_SORT_EVERY")) {
        const int every = std::atoi(env);
        if (every > 0)
            return every;
    }
    return 0;
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
    countingSortBins(grid, atoms.x.data(), atoms.nlocal(), binOf_,
                     binStart_, binCursor_, binAtoms_);
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
