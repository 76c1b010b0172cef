#include "kspace/pppm.h"

#include <cmath>

#include "md/simulation.h"
#include "obs/counters.h"
#include "obs/trace.h"
#include "util/error.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace mdbench {

Pppm::Pppm(double accuracy, int order) : accuracy_(accuracy), order_(order)
{
    require(accuracy > 0.0, "pppm accuracy must be positive");
    require(order >= 1 && order <= kMaxOrder,
            "pppm order must be in [1, 7]");

    // Cox-de Boor over polynomials in f: after round n, coeff_[m] holds
    // the coefficients of M_n(f + m) = ((f + m) M_{n-1}(f + m) +
    // (n - f - m) M_{n-1}(f + m - 1)) / (n - 1). Descending m reads
    // coeff_[m - 1] before this round overwrites it.
    coeff_[0][0] = 1.0;
    for (int n = 2; n <= order; ++n) {
        for (int m = n - 1; m >= 0; --m) {
            double next[kMaxOrder] = {};
            for (int d = 0; d + 1 < n; ++d) {
                next[d] += m * coeff_[m][d];
                next[d + 1] += coeff_[m][d];
                if (m > 0) {
                    next[d] += (n - m) * coeff_[m - 1][d];
                    next[d + 1] -= coeff_[m - 1][d];
                }
            }
            for (int d = 0; d < n; ++d)
                coeff_[m][d] = next[d] / (n - 1);
        }
    }
}

Pppm::AxisWeights
Pppm::weightsFor(double u, int n) const
{
    AxisWeights out;
    const int p = order_;
    const int jstart = static_cast<int>(std::floor(u - 0.5 * p)) + 1;
    const double f = u - jstart + 0.5 * p - (p - 1);

    // M_p(f + m) by Horner over the coefficients built at construction;
    // it belongs to node jstart + (p - 1 - m). The one modulo wraps the
    // first node; the rest count up and reset at n, so the mesh stages
    // index through node[] with no division.
    int node = jstart % n;
    if (node < 0)
        node += n;
    for (int m = 0; m < p; ++m) {
        const double *c = coeff_[m];
        double w = c[p - 1];
        for (int d = p - 2; d >= 0; --d)
            w = w * f + c[d];
        out.w[p - 1 - m] = w;
        out.node[m] = node;
        if (++node == n)
            node = 0;
    }
    return out;
}

void
Pppm::buildInfluence(const Vec3 &boxLength)
{
    const int nx = plan_.grid[0];
    const int ny = plan_.grid[1];
    const int nz = plan_.grid[2];
    const double lengths[3] = {boxLength.x, boxLength.y, boxLength.z};

    // Per-axis Euler-spline deconvolution factors |W(m)|^2, from the
    // integer samples M_p(k) = coeff_[k][0].
    std::vector<double> denom[3];
    for (int axis = 0; axis < 3; ++axis) {
        const int n = plan_.grid[axis];
        denom[axis].resize(n);
        for (int m = 0; m < n; ++m) {
            if (order_ == 1) {
                denom[axis][m] = 1.0;
                continue;
            }
            double real = 0.0;
            double imag = 0.0;
            for (int k = 1; k <= order_ - 1; ++k) {
                const double weight = coeff_[k][0];
                const double angle = 2.0 * M_PI * m * k / n;
                real += weight * std::cos(angle);
                imag += weight * std::sin(angle);
            }
            denom[axis][m] = real * real + imag * imag;
        }
    }

    influence_.assign(size_t(nx) * ny * nz, 0.0);
    kvec_.assign(size_t(nx) * ny * nz, Vec3{});
    const double gsqInv4 = 1.0 / (4.0 * gEwald_ * gEwald_);
    // Each z-plane of the table is written by exactly one slice, so the
    // parallel build is trivially identical at any thread count.
    ThreadPool::global().parallelFor(
        0, static_cast<std::size_t>(nz), 1,
        [&](std::size_t mzBegin, std::size_t mzEnd, int) {
            for (std::size_t mz = mzBegin; mz < mzEnd; ++mz) {
                const int sz = static_cast<int>(mz) <= nz / 2
                                   ? static_cast<int>(mz)
                                   : static_cast<int>(mz) - nz;
                for (int my = 0; my < ny; ++my) {
                    const int sy = my <= ny / 2 ? my : my - ny;
                    for (int mx = 0; mx < nx; ++mx) {
                        const int sx = mx <= nx / 2 ? mx : mx - nx;
                        const std::size_t idx =
                            (mz * ny + my) * nx + mx;
                        if (sx == 0 && sy == 0 && sz == 0)
                            continue;
                        const Vec3 k{2.0 * M_PI * sx / lengths[0],
                                     2.0 * M_PI * sy / lengths[1],
                                     2.0 * M_PI * sz / lengths[2]};
                        const double ksq = k.normSq();
                        const double d =
                            denom[0][mx] * denom[1][my] * denom[2][mz];
                        if (d < 1e-12)
                            continue; // Nyquist-degenerate mode
                        // An even axis's Nyquist index is its own mirror
                        // (n/2 = -n/2 mod n), so i*k there has no
                        // Hermitian partner: zero that component to keep
                        // the field spectra Hermitian, as the packed
                        // E_x + i E_y inverse transform needs.
                        kvec_[idx] = Vec3{2 * mx == nx ? 0.0 : k.x,
                                          2 * my == ny ? 0.0 : k.y,
                                          2 * static_cast<int>(mz) == nz
                                              ? 0.0
                                              : k.z};
                        influence_[idx] = 4.0 * M_PI *
                                          std::exp(-ksq * gsqInv4) /
                                          (ksq * d);
                    }
                }
            }
        });
    setupBoxLength_ = boxLength;
}

void
Pppm::setup(Simulation &sim)
{
    KspaceProblem problem;
    problem.boxLength = sim.box.lengths();
    problem.natoms = static_cast<long>(sim.atoms.nlocal());
    problem.qqr2e = sim.units.qqr2e;
    problem.cutoff = sim.pair ? sim.pair->cutoff() : sim.neighbor.cutoff;
    problem.accuracy = accuracy_;
    problem.order = order_;
    double qsum = 0.0;
    problem.qSqSum = 0.0;
    for (std::size_t i = 0; i < sim.atoms.nlocal(); ++i) {
        qsum += sim.atoms.q[i];
        problem.qSqSum += sim.atoms.q[i] * sim.atoms.q[i];
    }
    if (std::fabs(qsum) > 1e-8 * std::sqrt(problem.qSqSum))
        warn("pppm: system is not charge neutral");

    plan_ = planKspace(problem);
    gEwald_ = plan_.gEwald;
    fft_ = std::make_unique<Fft3d>(plan_.grid[0], plan_.grid[1],
                                   plan_.grid[2]);
    rho_.assign(fft_->size(), Complex{});
    fieldXY_.assign(fft_->size(), Complex{});
    fieldZ_.assign(fft_->size(), Complex{});
    buildInfluence(sim.box.lengths());
    inform("pppm: grid " + std::to_string(plan_.grid[0]) + "x" +
           std::to_string(plan_.grid[1]) + "x" +
           std::to_string(plan_.grid[2]) +
           " g_ewald " + std::to_string(gEwald_));
}

void
Pppm::compute(Simulation &sim)
{
    ensure(fft_ != nullptr, "pppm compute before setup");
    TraceScope trace("kspace", "pppm");
    counterAdd(Counter::KspaceSolves);
    computeImpl(sim);
}

void
Pppm::computeImpl(Simulation &sim)
{
    resetAccumulators();
    stats_ = Stats{};

    AtomStore &atoms = sim.atoms;
    const std::size_t nlocal = atoms.nlocal();
    const Vec3 len = sim.box.lengths();

    // NPT dilates the box; refresh the influence function when it moved.
    const Vec3 drift = len - setupBoxLength_;
    if (std::fabs(drift.x) > 1e-3 * len.x ||
        std::fabs(drift.y) > 1e-3 * len.y ||
        std::fabs(drift.z) > 1e-3 * len.z) {
        buildInfluence(len);
    }

    const int nx = plan_.grid[0];
    const int ny = plan_.grid[1];
    const int nz = plan_.grid[2];
    const double invH[3] = {nx / len.x, ny / len.y, nz / len.z};

    ThreadPool &pool = ThreadPool::global();
    const SliceRange atomSlices(0, nlocal, forceKernelGrain(nlocal));

    // particle_map: per-atom stencil weights along each axis, plus the
    // q^2 sum via per-slice partials (fixed slice partition + ascending
    // fold = the summation tree is independent of the thread count).
    wx_.resize(nlocal);
    wy_.resize(nlocal);
    wz_.resize(nlocal);
    SlicePartials<double> qsqParts;
    {
        TraceScope map("kspace", "particle_map");
        pool.run(atomSlices,
                 [&](std::size_t begin, std::size_t end, int s) {
                     double qsq = 0.0;
                     for (std::size_t i = begin; i < end; ++i) {
                         const Vec3 pos = sim.box.wrap(atoms.x[i]);
                         wx_[i] = weightsFor((pos.x - sim.box.lo().x) *
                                                 invH[0],
                                             nx);
                         wy_[i] = weightsFor((pos.y - sim.box.lo().y) *
                                                 invH[1],
                                             ny);
                         wz_[i] = weightsFor((pos.z - sim.box.lo().z) *
                                                 invH[2],
                                             nz);
                         qsq += atoms.q[i] * atoms.q[i];
                     }
                     qsqParts[s] = qsq;
                 });
    }
    const double qsqsum = qsqParts.fold(atomSlices);

    // make_rho: scatter charges to the mesh with exclusive z-plane
    // ownership. A serial counting pass buckets every (atom, z-offset)
    // contribution by its wrapped plane in ascending (atom, offset)
    // order; the parallel scatter then walks plane slabs, so each grid
    // cell is written by exactly one slice and accumulates its
    // contributions in the same ascending atom order as a serial
    // scatter — bitwise identical at any thread count.
    {
        TraceScope scatter("kspace", "make_rho");
        Complex *rho = rho_.data();
        pool.parallelFor(0, rho_.size(), 4096,
                         [&](std::size_t begin, std::size_t end, int) {
                             for (std::size_t m = begin; m < end; ++m)
                                 rho[m] = Complex{};
                         });

        planeStart_.assign(static_cast<std::size_t>(nz) + 1, 0);
        for (std::size_t i = 0; i < nlocal; ++i) {
            if (atoms.q[i] == 0.0)
                continue;
            for (int c = 0; c < order_; ++c)
                ++planeStart_[static_cast<std::size_t>(wz_[i].node[c]) + 1];
        }
        for (int z = 0; z < nz; ++z)
            planeStart_[static_cast<std::size_t>(z) + 1] +=
                planeStart_[static_cast<std::size_t>(z)];
        planeCursor_.assign(planeStart_.begin(), planeStart_.end() - 1);
        planeEntries_.resize(
            planeStart_[static_cast<std::size_t>(nz)]);
        for (std::size_t i = 0; i < nlocal; ++i) {
            if (atoms.q[i] == 0.0)
                continue;
            for (int c = 0; c < order_; ++c) {
                planeEntries_[planeCursor_[static_cast<std::size_t>(
                    wz_[i].node[c])]++] =
                    (static_cast<std::uint64_t>(i) << 3) |
                    static_cast<std::uint64_t>(c);
            }
        }

        const SliceRange slabs(0, static_cast<std::size_t>(nz), 1);
        pool.run(slabs, [&](std::size_t zBegin, std::size_t zEnd, int) {
            for (std::size_t z = zBegin; z < zEnd; ++z) {
                Complex *plane = rho + z * ny * nx;
                for (std::uint32_t e = planeStart_[z];
                     e < planeStart_[z + 1]; ++e) {
                    const std::uint64_t entry = planeEntries_[e];
                    const std::size_t i =
                        static_cast<std::size_t>(entry >> 3);
                    const int c = static_cast<int>(entry & 7);
                    const AxisWeights &sx = wx_[i];
                    const AxisWeights &sy = wy_[i];
                    const double qz = atoms.q[i] * wz_[i].w[c];
                    for (int b = 0; b < order_; ++b) {
                        const double qyz = qz * sy.w[b];
                        Complex *row =
                            plane + static_cast<std::size_t>(sy.node[b]) * nx;
                        for (int a = 0; a < order_; ++a)
                            row[sx.node[a]] += qyz * sx.w[a];
                    }
                }
            }
        });
    }

    const double qqr2e = sim.units.qqr2e;
    const double volume = sim.box.volume();

    // poisson: forward FFT, influence multiply with ik-differentiated
    // field spectra (independent per mode; energy via per-slice
    // partials), then two inverse FFTs: the real fields E_x and E_y
    // share one complex grid as E_x + i E_y, E_z has the other. The
    // FFTs batch their 1-D lines across the pool internally.
    {
        TraceScope poisson("kspace", "poisson");
        fft_->forward(rho_);
        ++stats_.fftCount;

        // The inverse FFTs are unnormalized, so 1/volume is the whole
        // field scale.
        const double fieldScale = 1.0 / volume;
        const Complex *rho = rho_.data();
        const double *influence = influence_.data();
        const Vec3 *kvec = kvec_.data();
        Complex *fieldXY = fieldXY_.data();
        Complex *fieldZ = fieldZ_.data();
        const SliceRange modeSlices(0, influence_.size(), 2048);
        SlicePartials<double> energyParts;
        pool.run(modeSlices,
                 [&](std::size_t begin, std::size_t end, int s) {
                     double energy = 0.0;
                     for (std::size_t m = begin; m < end; ++m) {
                         const Complex rhoK = rho[m];
                         const double g = influence[m];
                         if (g == 0.0) {
                             fieldXY[m] = fieldZ[m] = Complex{};
                             continue;
                         }
                         energy += 0.5 * qqr2e / volume * g *
                                   std::norm(rhoK);
                         const Complex phi = rhoK * (g * fieldScale);
                         // E(k) = -i k phi per axis; E_x + i E_y is
                         // (k_x + i k_y)(phi.im - i phi.re).
                         const Vec3 &k = kvec[m];
                         fieldXY[m] =
                             Complex(k.x * phi.imag() + k.y * phi.real(),
                                     k.y * phi.imag() - k.x * phi.real());
                         fieldZ[m] =
                             Complex(k.z * phi.imag(), -k.z * phi.real());
                     }
                     energyParts[s] = energy;
                 });
        energy_ = energyParts.fold(modeSlices, energy_);

        fft_->inverse(fieldXY_);
        fft_->inverse(fieldZ_);
        stats_.fftCount += 2;
    }

    // interp: fields back to the particles. Embarrassingly parallel —
    // atom i only reads the meshes and writes f[i].
    {
        TraceScope interp("kspace", "interp");
        const Complex *fieldXY = fieldXY_.data();
        const Complex *fieldZ = fieldZ_.data();
        pool.run(atomSlices, [&](std::size_t begin, std::size_t end,
                                 int) {
            for (std::size_t i = begin; i < end; ++i) {
                const double q = atoms.q[i];
                if (q == 0.0)
                    continue;
                const AxisWeights &sx = wx_[i];
                const AxisWeights &sy = wy_[i];
                const AxisWeights &sz = wz_[i];
                Vec3 e{};
                for (int c = 0; c < order_; ++c) {
                    const std::size_t plane =
                        static_cast<std::size_t>(sz.node[c]) * ny;
                    for (int b = 0; b < order_; ++b) {
                        const double wyz = sz.w[c] * sy.w[b];
                        const std::size_t row =
                            (plane + static_cast<std::size_t>(sy.node[b])) *
                            nx;
                        for (int a = 0; a < order_; ++a) {
                            const double weight = wyz * sx.w[a];
                            const std::size_t cell =
                                row + static_cast<std::size_t>(sx.node[a]);
                            e.x += weight * fieldXY[cell].real();
                            e.y += weight * fieldXY[cell].imag();
                            e.z += weight * fieldZ[cell].real();
                        }
                    }
                }
                atoms.f[i] += e * (q * qqr2e);
            }
        });
    }

    // Self-energy correction; virial via the 1/r homogeneity argument
    // (documented in DESIGN.md).
    energy_ -= qqr2e * gEwald_ / std::sqrt(M_PI) * qsqsum;
    virial_ = energy_;
    stats_.gridPoints = static_cast<long>(fft_->size());
}

} // namespace mdbench
