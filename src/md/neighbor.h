/**
 * @file
 * Binned neighbor-list construction with a skin distance.
 *
 * Implements the cutoff + skin scheme described in Section 2 of the paper:
 * lists hold every pair within (cutoff + skin) and are rebuilt only when
 * some atom has moved more than half the skin since the last build.
 */

#ifndef MDBENCH_MD_NEIGHBOR_H
#define MDBENCH_MD_NEIGHBOR_H

#include <cstdint>
#include <vector>

#include "md/vec3.h"
#include "md/xpack.h"
#include "util/precision.h"

namespace mdbench {

class Simulation;

/**
 * CSR neighbor list over the owned atoms.
 *
 * Half lists contain each physical pair once (forces applied to both
 * sides via Newton's third law); full lists contain each pair twice,
 * once per side (used by gran/hooke/history, which the paper notes does
 * not exploit Newton's third law, and by lj/cut, whose kernel then
 * writes only the i side and needs no force scatter).
 *
 * One layout serves every consumer (DESIGN.md §12), LAMMPS' row start
 * plus `numneigh` over one array: row i starts at offsets[i], holds its
 * counts[i] real neighbor ids and then copies of `sentinel` up to
 * offsets[i + 1], a multiple of padWidth further on. The sentinel is
 * the index of the AtomStore pad slot, an inert atom placed far outside
 * every cutoff, so the SIMD kernels' distance masks zero the padding
 * lanes. Widths 0 (SIMD layer off) and 1 pad nothing.
 */
struct NeighborList
{
    std::vector<std::uint32_t> offsets;   ///< row starts, size nlocal + 1
    std::vector<std::uint32_t> counts;    ///< real ids in each row
    std::vector<std::uint32_t> neighbors; ///< rows (owned or ghost ids)
    bool full = false;                    ///< full vs half list
    double buildCutoff = 0.0;             ///< cutoff + skin used at build
    int padWidth = 0;              ///< rows padded to this (0 = layer off)
    std::uint32_t sentinel = 0;    ///< pad-slot index filling padded slots
    std::size_t pairs = 0;         ///< real ids across all rows (Σ counts)
    std::size_t paddedSlots = 0;   ///< sentinel entries across all rows

    /**
     * Precision tier the rows were padded for (util/precision.h; Double
     * when padWidth is 0). Float tiers pad at the float-lane width
     * (twice the double-lane width at a given ISA level); kernels
     * dispatch on this recorded tier rather than the simulation's
     * config, so a config change between build and compute cannot
     * mismatch the padded geometry.
     */
    Precision packTier = Precision::Double;

    /** Real neighbors of atom @p i as a begin/end index pair. */
    std::pair<std::uint32_t, std::uint32_t>
    range(std::size_t i) const
    {
        return {offsets[i], offsets[i] + counts[i]};
    }

    /** Raw CSR rows: row i is neighbors[offsets[i] .. offsets[i + 1]). */
    struct Rows
    {
        const std::uint32_t *offsets = nullptr;
        const std::uint32_t *neighbors = nullptr;
    };

    /**
     * The rows the pair kernels traverse, padding included: whole
     * W-wide groups at padWidth W, the real ids alone at widths 0 and 1
     * (width 0 runs the W = 1 kernel over them).
     */
    Rows rows() const { return {offsets.data(), neighbors.data()}; }

    /** True when the rows were padded at width @p w. */
    bool packedFor(int w) const { return padWidth == w && padWidth >= 1; }

    /** Total stored pairs (excludes padding). */
    std::size_t pairCount() const { return pairs; }

    /** Average neighbors per owned atom. */
    double neighborsPerAtom() const;
};

/**
 * Charge the SIMD lane-utilization counters for @p traversals padded
 * traversals of @p list (pair.simd_lanes_active += pairs,
 * pair.simd_padding_waste += padded sentinel slots, each ×
 * traversals). Shared by every vectorized kernel so the accounting is
 * uniform: charged per kernel *invocation* — once per list traversal,
 * twice for EAM's two radial passes — never per list build, which
 * keeps manifest lane-utilization ratios comparable across sortEvery
 * and rebuild-interval settings. Charges nothing at padWidth 0: with
 * the SIMD layer off there are no lanes to count.
 */
void countSimdLaneUse(const NeighborList &list, int traversals = 1);

/**
 * Neighbor-list manager: binning, rebuild policy, and build statistics.
 */
class Neighbor
{
  public:
    /** Pair-style interaction cutoff (excludes skin). */
    double cutoff = 0.0;

    /** Extra margin stored in the list (paper Table 2 "Neighbor skin"). */
    double skin = 0.3;

    /** Build a full list (each pair twice) instead of a half list. */
    bool full = false;

    /**
     * Partition every build into interior/boundary sublists (DESIGN.md
     * §17): a pair is *boundary* when its j side is a ghost — it reads
     * halo data — and *interior* otherwise. Decomposed ranks set this
     * so the force drivers can compute interior pairs while the halo
     * exchange is in flight and finish the boundary pairs after it
     * lands. The main list is then filled unpadded and each sublist is
     * written padded from it; the two-pass arithmetic stays a fixed
     * regrouping of the one-pass per-row sums at any schedule because
     * the sublists preserve the build's per-row neighbor order.
     */
    bool splitGhostPairs = false;

    /** True when the current build produced the sublists. */
    bool splitActive() const { return splitBuilt_; }

    /** Pairs whose j side is owned (computable before the halo). */
    const NeighborList &interiorList() const { return interiorList_; }

    /** Pairs whose j side is a ghost (need fresh halo positions). */
    const NeighborList &boundaryList() const { return boundaryList_; }

    /** Rebuild at most every this many steps (0 = purely distance based). */
    int every = 1;

    /**
     * True when a sort policy of interval @p every (Simulation's
     * config.sortEvery, > 0) asks for a reorder before the next build.
     * The very first build is always due: the initial atom order is
     * whatever the builder (or a restart file) produced, so an enabled
     * policy establishes spatial order at setup and then re-sorts
     * every @p every rebuilds.
     */
    bool
    sortDue(int every) const
    {
        return every > 0 && (buildCount_ == 0 || buildsSinceSort_ >= every);
    }

    /**
     * Counting-sort bin ordering of the owned atoms: order[k] is the
     * old index of the atom that belongs at index k when atoms are
     * grouped by ascending spatial bin (ties by ascending old index).
     * Reuses the build's binning arrays; the traversal depends only on
     * positions, never on threading.
     */
    void computeSortOrder(const Simulation &sim,
                          std::vector<std::uint32_t> &order);

    /**
     * Record that the owned atoms were reordered: resets the sort
     * interval and invalidates lastBuildPos_ (its indices no longer
     * match), so the next trigger check forces a rebuild.
     */
    void noteSortApplied();

    /** Number of spatial sorts applied since construction. */
    long sortCount() const { return sortCount_; }

    /** Distance the fastest atom may travel before a rebuild triggers. */
    double triggerDistance() const { return 0.5 * skin; }

    /** True when any owned atom moved more than triggerDistance(). */
    bool checkTrigger(const Simulation &sim) const;

    /** Build the list from the current owned + ghost atoms. */
    void build(Simulation &sim);

    /** The current list. */
    const NeighborList &list() const { return list_; }

    /** Number of builds since construction. */
    long buildCount() const { return buildCount_; }

    /** Steps at which builds happened (statistics for the harness). */
    double averageRebuildInterval() const;

    /**
     * Re-pad the list in place from its counts when sim.config's pack
     * width or precision tier differs from what the list records
     * (padWidth, packTier) — called by the force loop before every
     * pair compute, so a config change between builds can never leave
     * a kernel traversing stale-width geometry. It never rebuilds:
     * build counters and the trigger state stay as they are.
     */
    void ensureFreshPacking(Simulation &sim);

  private:
    /**
     * The build proper. Kept out of line behind the traced build()
     * wrapper: extra calls in the same function push gcc's size
     * estimate past its large-function limit and it stops unrolling
     * the hot fill loop (~10% on the serial build).
     */
    [[gnu::noinline]] void buildImpl(Simulation &sim);

    /**
     * Write the padded interiorList_/boundaryList_ from the unpadded
     * list_, partitioned by j side.
     */
    void buildSplitLists(Simulation &sim);

    NeighborList list_;
    NeighborList interiorList_; ///< owned-j pairs (splitGhostPairs)
    NeighborList boundaryList_; ///< ghost-j pairs (splitGhostPairs)
    bool splitBuilt_ = false;
    std::vector<Vec3> lastBuildPos_;

    // Counting-sort binning state, persistent across builds so the
    // arrays are allocation-free in steady state.
    std::vector<std::uint32_t> binOf_;     ///< flat bin of each atom
    std::vector<std::uint32_t> binStart_;  ///< CSR bin offsets (nbins + 1)
    std::vector<std::uint32_t> binAtoms_;  ///< atoms grouped by bin

    /** Per-(slice, bin) histograms for the parallel counting sort. */
    std::vector<std::uint32_t> binSliceCount_;

    /**
     * Special lists resolved over the owned atoms at each build (only
     * for systems with exclusions): row i's excluded partner tags are
     * specialTags_[specialOffsets_[i] .. specialOffsets_[i + 1]).
     */
    std::vector<std::uint32_t> specialOffsets_;
    std::vector<std::int64_t> specialTags_;

    /** Bin-ordered [x, y, z, 0] records staged for the SIMD filter. */
    XPack<double> buildStage_;

    long buildsSinceSort_ = 0;
    long sortCount_ = 0;
    long buildCount_ = 0;
    long lastBuildStep_ = 0;
    long firstBuildStep_ = -1;

    friend class Simulation;
};

} // namespace mdbench

#endif // MDBENCH_MD_NEIGHBOR_H
