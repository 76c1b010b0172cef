/**
 * @file
 * Particle-particle particle-mesh long-range solver
 * (LAMMPS `kspace_style pppm`), the O(N log N) method behind the
 * Rhodopsin workload and the paper's error-threshold sensitivity study.
 *
 * The mesh part uses B-spline charge assignment of configurable order,
 * an exact B-spline (Euler-spline) deconvolution in the influence
 * function, and ik differentiation with two inverse FFTs: the real
 * fields E_x and E_y travel packed as E_x + i E_y in one complex
 * transform, E_z in the other. This is the make_rho / poisson /
 * interpolate pipeline whose GPU kernels (make_rho, particle_map,
 * interp) the paper profiles in Figure 8.
 */

#ifndef MDBENCH_KSPACE_PPPM_H
#define MDBENCH_KSPACE_PPPM_H

#include <cstdint>
#include <memory>
#include <vector>

#include "kspace/fft3d.h"
#include "kspace/plan.h"
#include "md/styles.h"

namespace mdbench {

/**
 * PPPM solver with grid size chosen from the relative error threshold.
 */
class Pppm : public KspaceStyle
{
  public:
    /**
     * @param accuracy Relative force error threshold (the paper sweeps
     *                 1e-4 .. 1e-7 in Section 7).
     * @param order    B-spline assignment order (LAMMPS default 5).
     */
    explicit Pppm(double accuracy, int order = 5);

    std::string name() const override { return "pppm"; }
    void setup(Simulation &sim) override;
    void compute(Simulation &sim) override;
    double splittingParameter() const override { return gEwald_; }
    double accuracy() const override { return accuracy_; }

    /** Mesh points per axis chosen by setup(). */
    const int *grid() const { return plan_.grid; }

    /** Assignment order. */
    int order() const { return order_; }

    /** Workload statistics of the last compute (for the harness). */
    struct Stats
    {
        long gridPoints = 0;
        /// 3-D FFTs per step: 1 forward + 2 inverse (E_x + i E_y, E_z)
        long fftCount = 0;
    };
    const Stats &stats() const { return stats_; }

    /** Largest supported assignment order. */
    static constexpr int kMaxOrder = 7;

    /**
     * B-spline stencil of one particle along one axis: weight w[a]
     * belongs to mesh node node[a], already wrapped into [0, n).
     */
    struct AxisWeights
    {
        int node[8] = {};
        double w[8] = {};
    };

    /**
     * Stencil of a particle at mesh coordinate @p u (in mesh spacings
     * from the box origin) on an axis of @p n nodes. Public so tests can
     * check it against the Cox-de Boor recursion.
     */
    AxisWeights weightsFor(double u, int n) const;

  private:
    /**
     * The solve proper, out of line behind the traced compute()
     * wrapper: probe calls in the same function push gcc's size
     * estimate over its large-function limit and the charge-mapping
     * and interpolation loops lose their unrolling.
     */
    [[gnu::noinline]] void computeImpl(Simulation &sim);

    void buildInfluence(const Vec3 &boxLength);

    double accuracy_;
    int order_;
    /// coeff_[m][d]: the f^d coefficient of M_p(f + m), f in [0, 1).
    double coeff_[kMaxOrder][kMaxOrder] = {};
    double gEwald_ = 0.0;
    KspacePlan plan_;
    std::unique_ptr<Fft3d> fft_;
    std::vector<double> influence_;   ///< energy-convention G(k) per mode
    std::vector<Vec3> kvec_;          ///< signed k vector per mode
    std::vector<Complex> rho_;        ///< charge mesh / scratch
    std::vector<Complex> fieldXY_;    ///< E_x + i E_y mesh
    std::vector<Complex> fieldZ_;     ///< E_z mesh (real part)
    Stats stats_;
    Vec3 setupBoxLength_{0, 0, 0};

    // Per-step scratch, persistent to amortize allocation.
    std::vector<AxisWeights> wx_;     ///< per-atom stencil, x axis
    std::vector<AxisWeights> wy_;     ///< per-atom stencil, y axis
    std::vector<AxisWeights> wz_;     ///< per-atom stencil, z axis
    /// CSR of charge contributions keyed by wrapped z-plane: the scatter
    /// parallelizes over plane slabs with exclusive grid ownership (see
    /// computeImpl). Entries encode (atom << 3 | stencil offset).
    std::vector<std::uint32_t> planeStart_;
    std::vector<std::uint32_t> planeCursor_;
    std::vector<std::uint64_t> planeEntries_;
};

} // namespace mdbench

#endif // MDBENCH_KSPACE_PPPM_H
