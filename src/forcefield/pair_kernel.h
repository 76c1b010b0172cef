/**
 * @file
 * The skeleton every SIMD pair kernel shares (DESIGN.md §12-13): one
 * tier × width dispatcher, the precision tier's energy/virial
 * accumulation rule, and the row-level Newton scatter and force flush
 * around each style's own per-pair arithmetic.
 *
 * Hot-loop rule for everything here: kernels build these helpers inside
 * the slice lambda, and the helpers hold values or raw pointers, never
 * references to closure state. The force scatters store through double
 * pointers, so anything reached through the closure would have to be
 * reloaded after every such store.
 */

#ifndef MDBENCH_FORCEFIELD_PAIR_KERNEL_H
#define MDBENCH_FORCEFIELD_PAIR_KERNEL_H

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <string>
#include <type_traits>

#include "md/neighbor.h"
#include "md/vec3.h"
#include "obs/trace.h"
#include "util/error.h"
#include "util/precision.h"
#include "util/simd.h"
#include "util/thread_pool.h"

namespace mdbench {

/**
 * Run the kernel @p list was padded for: `kernel.template
 * operator()<P, W>()`, one templated body per style. padWidth 0 (SIMD
 * layer off) runs <PrecisionDouble, 1> over the unpadded rows at every
 * tier. Padded widths run W = padWidth with P the policy of the list's
 * recorded packTier — not the live global, so a knob flip between
 * build and compute cannot mismatch the padded geometry — under a
 * `pair`/`simd` trace scope. The generic backend compiles every width
 * on every build, so forced widths run on portable and sanitizer
 * builds too.
 */
template <typename KernelFn>
void
dispatchPairKernel(const NeighborList &list, KernelFn &&kernel)
{
    if (list.padWidth == 0)
        return kernel.template operator()<PrecisionDouble, 1>();
    TraceScope simdTrace("pair", "simd");
    const auto width = [&]<typename P>() {
        switch (list.padWidth) {
          case 1: return kernel.template operator()<P, 1>();
          case 2: return kernel.template operator()<P, 2>();
          case 4: return kernel.template operator()<P, 4>();
          case 8: return kernel.template operator()<P, 8>();
          case 16: return kernel.template operator()<P, 16>();
          default:
            panic("no pair kernel for packed width " +
                  std::to_string(list.padWidth));
        }
    };
    switch (list.packTier) {
      case Precision::Mixed:
        return width.template operator()<PrecisionMixed>();
      case Precision::Single:
        return width.template operator()<PrecisionSingle>();
      default:
        return width.template operator()<PrecisionDouble>();
    }
}

/**
 * Energy/virial accumulation of precision tier P for N quantities.
 * Kernels add each group's masked terms to `sums[q]` and call endRow()
 * after every neighbor row; total(q) is the slice's sum.
 *
 * - Double tier: slice-long lane stripes, summed once per slice. At
 *   W = 1 (and so at width 0) this is one plain running sum.
 * - Float tiers: per-row stripes, flushed at each row end into P::acc
 *   scalars (double for mixed, float for single), which bounds float
 *   accumulation error at the row length.
 */
template <typename P, int W, int N>
class TierSums
{
    static_assert(N == 2 || N == 3);
    using real = typename P::real;
    using acc = typename P::acc;
    using D = Simd<real, W>;
    static constexpr bool kSliceStripes = std::is_same_v<real, double>;

  public:
    TierSums() { stripes_.fill(D(real(0))); }

    D &operator[](int q) { return stripes_[q]; }

    void
    endRow()
    {
        if constexpr (!kSliceStripes) {
            real s[3] = {};
            if constexpr (N == 2)
                sumPair(stripes_[0], stripes_[1], s[0], s[1]);
            else
                sumXyz(stripes_[0], stripes_[1], stripes_[2], s[0], s[1],
                       s[2]);
            for (int q = 0; q < N; ++q) {
                rows_[q] += static_cast<acc>(s[q]);
                stripes_[q] = D(real(0));
            }
        }
    }

    double
    total(int q) const
    {
        if constexpr (kSliceStripes)
            return stripes_[q].sum();
        else
            return static_cast<double>(rows_[q]);
    }

  private:
    std::array<D, N> stripes_;
    std::array<acc, N> rows_{};
};

/**
 * Call fn(l) for every set bit l of @p bits in ascending lane order,
 * which is the row's ascending neighbor order, so the order of j-side
 * updates does not depend on W.
 */
template <typename Fn>
inline void
forEachLane(int bits, Fn &&fn)
{
    for (int rest = bits; rest; rest &= rest - 1)
        fn(std::countr_zero(static_cast<unsigned>(rest)));
}

/**
 * Newton scatter of the W-wide group at packed slot @p k: subtract lane
 * l's pair force from fw.at(pk[k + l]) for every lane of @p active,
 * ascending. The pair terms are spilled once; masked lanes (including
 * the sentinel) get no store at all, so a rejected pair touches no
 * force. Float-tier terms widen at the store. The group is passed as
 * base + slot, not as one pointer: the kernel keeps both live anyway,
 * and a third register spills the group counter out of the hot loop.
 */
template <typename T, int W>
inline void
newtonScatter(ReduceScratch<Vec3>::Accumulator &fw, const std::uint32_t *pk,
              std::uint32_t k, int active, const Simd<T, W> &fx,
              const Simd<T, W> &fy, const Simd<T, W> &fz)
{
    alignas(64) T sx[W], sy[W], sz[W];
    fx.storeu(sx);
    fy.storeu(sy);
    fz.storeu(sz);
    forEachLane(active, [&](int l) {
        Vec3 &fj = fw.at(pk[k + l]);
        fj.x -= sx[l];
        fj.y -= sy[l];
        fj.z -= sz[l];
    });
}

/**
 * One-component form for symmetric per-atom sums (EAM pass-1 host
 * densities): adds lane l's value to sum.at(pk[k + l]).
 */
template <typename T, int W>
inline void
newtonScatter(ReduceScratch<double>::Accumulator &sum,
              const std::uint32_t *pk, std::uint32_t k, int active,
              const Simd<T, W> &v)
{
    alignas(64) T sv[W];
    v.storeu(sv);
    forEachLane(active, [&](int l) { sum.at(pk[k + l]) += sv[l]; });
}

/**
 * One chunk of a cutoff-compacted row: the arithmetic loop runs
 * ids[0, count) (count a multiple of W) and the next chunk starts at
 * packed slot `next`.
 */
struct CompactedRow
{
    const std::uint32_t *ids;
    std::uint32_t count;
    std::uint32_t next;
};

/**
 * Per-row cutoff compaction for kernels whose per-pair arithmetic is
 * heavy enough to pay for a second position load (EAM splines, charmm
 * erfc and switching; lj/cut is not). compact() walks W-groups of the
 * packed row, keeps the ids with r² < cutSq — the kernels' own test
 * and fma association — in ascending order through compressStore, and
 * pads the tail with the sentinel, so the kernel runs its masked
 * arithmetic on in-cutoff pairs only. Rows longer than kChunk come back
 * in chunks of the fixed buffer, each padded on its own. W = 1 hands
 * back the row itself: its whole-group skip already drops every
 * rejected pair, so widths 0 and 1 run exactly the uncompacted loop.
 * slots() is the padded length handed back so far, which the kernels
 * charge to pair.compacted_slots once per slice.
 */
template <typename T, int W>
class CutoffRows
{
    using D = Simd<T, W>;

  public:
    /**
     * Packed slots compacted per call: the fixed buffer's length, above
     * every row of the suite's workloads (the Rhodo proxy's half rows
     * reach ~530 as its NPT box contracts).
     */
    static constexpr std::uint32_t kChunk = 1024;
    static_assert(kChunk % W == 0);

    CutoffRows(const T *xpk, const std::uint32_t *pk, T cutSq,
               std::uint32_t sentinel)
        : xpk_(xpk), pk_(pk), cutSq_(cutSq), sentinel_(sentinel)
    {
    }

    /**
     * The in-cutoff ids of pk[begin, end) around the atom at (xi, yi,
     * zi), at most kChunk packed slots of it per call.
     */
    CompactedRow
    compact(std::uint32_t begin, std::uint32_t end, const D &xi,
            const D &yi, const D &zi)
    {
        if constexpr (W == 1) {
            slots_ += end - begin;
            return {pk_ + begin, end - begin, end};
        } else {
            const std::uint32_t stop = begin + std::min(end - begin, kChunk);
            std::uint32_t n = 0;
            for (std::uint32_t k = begin; k < stop; k += W) {
                D xj, yj, zj;
                loadXyz(xpk_, pk_ + k, xj, yj, zj);
                const D dx = xi - xj;
                const D dy = yi - yj;
                const D dz = zi - zj;
                const D r2 = D::fma(dz, dz, D::fma(dy, dy, dx * dx));
                // Unqualified: the ISA overloads are not templates.
                n += static_cast<std::uint32_t>(compressStore(
                    buf_ + n, SimdIndex<W>::load(pk_ + k),
                    (r2 < cutSq_).bits()));
            }
            for (; n % W != 0; ++n)
                buf_[n] = sentinel_;
            slots_ += n;
            return {buf_, n, stop};
        }
    }

    std::uint64_t slots() const { return slots_; }

  private:
    const T *xpk_;
    const std::uint32_t *pk_;
    D cutSq_;
    std::uint32_t sentinel_;
    std::uint64_t slots_ = 0;
    alignas(64) std::uint32_t buf_[W == 1 ? 1 : kChunk];
};

/**
 * Add a row's force stripes to @p fi. Per-atom forces are always
 * double, so on float tiers this is the once-per-atom widening.
 */
template <typename T, int W>
inline void
flushRowForce(Vec3 &fi, const Simd<T, W> &fx, const Simd<T, W> &fy,
              const Simd<T, W> &fz)
{
    T sx, sy, sz;
    sumXyz(fx, fy, fz, sx, sy, sz);
    fi.x += sx;
    fi.y += sy;
    fi.z += sz;
}

} // namespace mdbench

#endif // MDBENCH_FORCEFIELD_PAIR_KERNEL_H
