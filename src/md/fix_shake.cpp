#include "md/fix_shake.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <string>
#include <utility>

#include "md/simulation.h"
#include "obs/counters.h"
#include "util/error.h"
#include "util/thread_pool.h"

namespace mdbench {

namespace {

/** Clusters per pool slice (a water cluster solve is ~0.4 us). */
constexpr std::size_t kClusterGrain = 32;

constexpr std::size_t kMaxM = FixShake::kMaxClusterConstraints;

/**
 * Solve the @p m x @p m system a y = b by Gaussian elimination with
 * partial pivoting; @p b is overwritten with y and @p a destroyed. A
 * zero pivot means the cluster's constraint directions are linearly
 * dependent, so it panics.
 */
void
solveDense(std::size_t m, double (&a)[kMaxM][kMaxM], double (&b)[kMaxM])
{
    for (std::size_t col = 0; col < m; ++col) {
        std::size_t pivot = col;
        for (std::size_t row = col + 1; row < m; ++row)
            if (std::fabs(a[row][col]) > std::fabs(a[pivot][col]))
                pivot = row;
        // Not ensure(): its std::string argument would be built on every
        // call of this per-cluster routine.
        if (!(std::fabs(a[pivot][col]) > 1e-12))
            panic("shake cluster degenerate (singular constraint matrix)");
        if (pivot != col) {
            std::swap_ranges(a[col], a[col] + m, a[pivot]);
            std::swap(b[pivot], b[col]);
        }
        const double inv = 1.0 / a[col][col];
        for (std::size_t row = col + 1; row < m; ++row) {
            const double factor = a[row][col] * inv;
            for (std::size_t k = col + 1; k < m; ++k)
                a[row][k] -= factor * a[col][k];
            b[row] -= factor * b[col];
        }
    }
    for (std::size_t row = m; row-- > 0;) {
        double sum = b[row];
        for (std::size_t k = row + 1; k < m; ++k)
            sum -= a[row][k] * b[k];
        b[row] = sum / a[row][row];
    }
}

} // namespace

FixShake::FixShake(double tolerance, int maxIterations)
    : tolerance_(tolerance), maxIterations_(maxIterations)
{
    require(tolerance > 0.0, "shake tolerance must be positive");
    require(maxIterations > 0, "shake iteration cap must be positive");
}

void
FixShake::setup(Simulation &sim)
{
    // Enforce the constraints on the initial configuration as well, so a
    // slightly off-manifold builder output does not inject energy.
    savePositions(sim);
    solvePositions(sim);
    solveVelocities(sim);
}

void
FixShake::preIntegrate(Simulation &sim)
{
    savePositions(sim);
}

void
FixShake::initialIntegrate(Simulation &sim)
{
    solvePositions(sim);
}

void
FixShake::finalIntegrate(Simulation &sim)
{
    solveVelocities(sim);
}

void
FixShake::onAtomsReordered(Simulation &, const std::vector<std::uint32_t> &)
{
    // The tag map is rebuilt only after the reorder, so the clusters
    // cannot be resolved here; the next solve re-resolves them.
    resolvedAt_ = -1;
}

long
FixShake::removedDof(const Simulation &sim) const
{
    long n = 0;
    for (const auto &cluster : sim.topology.shakeClusters)
        n += static_cast<long>(cluster.constraints.size());
    return n;
}

void
FixShake::savePositions(const Simulation &sim)
{
    const auto &x = sim.atoms.x;
    savedPos_.assign(x.begin(), x.begin() + sim.atoms.nlocal());
}

void
FixShake::resolveClusters(const Simulation &sim)
{
    if (resolvedAt_ == sim.reneighborCount())
        return;
    const AtomStore &atoms = sim.atoms;
    const Topology &topo = sim.topology;
    clusterBegin_.assign(1, 0);
    atom_.clear();
    invMass_.clear();
    constraints_.clear();

    for (const auto &cluster : topo.shakeClusters) {
        const auto first = static_cast<std::uint32_t>(atom_.size());
        for (const std::int64_t tag : cluster.tags) {
            const std::int64_t local = topo.indexOf(tag);
            ensure(local >= 0, "shake cluster atom not found");
            const auto i = static_cast<std::size_t>(local);
            ensure(i < atoms.nlocal(),
                   "shake clusters must not span rank boundaries");
            atom_.push_back(i);
            invMass_.push_back(1.0 / atoms.massOf(i));
        }
        if (cluster.constraints.size() > kMaxClusterConstraints)
            fatal("shake cluster has more than " +
                  std::to_string(kMaxClusterConstraints) + " constraints");
        const auto size = static_cast<int>(cluster.tags.size());
        for (const auto &con : cluster.constraints) {
            require(con.i >= 0 && con.i < size && con.j >= 0 &&
                        con.j < size,
                    "shake constraint names an atom outside its cluster");
            require(con.i != con.j,
                    "shake constraint joins an atom to itself");
            require(con.distance > 0.0,
                    "shake constraint distance must be positive");
            constraints_.push_back(
                {first + static_cast<std::uint32_t>(con.i),
                 first + static_cast<std::uint32_t>(con.j), con.distance});
        }
        clusterBegin_.push_back(
            static_cast<std::uint32_t>(constraints_.size()));
    }
    resolvedAt_ = sim.reneighborCount();
}

double
FixShake::coupling(const SlotConstraint &p, const SlotConstraint &k) const
{
    // Moving constraint k's atoms by +/- lambda_k r_k / m changes p's
    // displacement by coupling(p, k) lambda_k r_k: the atoms p and k
    // share, signed by which end each one is in either constraint.
    double c = 0.0;
    if (p.a == k.a)
        c += invMass_[p.a];
    if (p.a == k.b)
        c -= invMass_[p.a];
    if (p.b == k.a)
        c -= invMass_[p.b];
    if (p.b == k.b)
        c += invMass_[p.b];
    return c;
}

int
FixShake::solveClusterPositions(std::size_t c, const Box &box, Vec3 *x,
                                Vec3 *v, double invDt, double &worst) const
{
    const SlotConstraint *con = constraints_.data() + clusterBegin_[c];
    const std::size_t m = clusterBegin_[c + 1] - clusterBegin_[c];

    // Constraint p must end at |s_p + sum_k C_pk lambda_k r0_k| = d_p,
    // with s_p the drifted and r0_k the saved displacement. Everything
    // the Newton iteration needs is in the Gram terms r0_k . r0_l and
    // s_p . r0_k, so it runs on lambda alone and moves the atoms once.
    Vec3 r0[kMaxM];
    Vec3 s[kMaxM];
    double excess[kMaxM] = {}; // |s_p|^2 - d_p^2
    double coup[kMaxM][kMaxM] = {};
    double gram[kMaxM][kMaxM] = {};
    double drift[kMaxM][kMaxM] = {}; // s_p . r0_k
    double lambda[kMaxM] = {};
    double jac[kMaxM][kMaxM] = {};
    double step[kMaxM] = {};
    for (std::size_t p = 0; p < m; ++p) {
        const std::size_t a = atom_[con[p].a];
        const std::size_t b = atom_[con[p].b];
        r0[p] = box.minimumImage(savedPos_[a] - savedPos_[b]);
        s[p] = box.minimumImage(x[a] - x[b]);
        excess[p] = s[p].normSq() - con[p].distance * con[p].distance;
    }
    for (std::size_t p = 0; p < m; ++p) {
        for (std::size_t k = 0; k < m; ++k) {
            coup[p][k] = coupling(con[p], con[k]);
            gram[p][k] = r0[p].dot(r0[k]);
            drift[p][k] = s[p].dot(r0[k]);
        }
    }

    int iter = 0;
    for (; iter < maxIterations_; ++iter) {
        // With u_p the displacement lambda predicts and w_pk = u_p . r0_k:
        // f_p = |u_p|^2 - d_p^2 and df_p/dlambda_k = 2 C_pk w_pk.
        bool converged = true;
        for (std::size_t p = 0; p < m; ++p) {
            double cl[kMaxM] = {};
            for (std::size_t l = 0; l < m; ++l)
                cl[l] = coup[p][l] * lambda[l];
            double f = excess[p];
            for (std::size_t k = 0; k < m; ++k) {
                double w = drift[p][k];
                for (std::size_t l = 0; l < m; ++l)
                    w += cl[l] * gram[l][k];
                jac[p][k] = 2.0 * coup[p][k] * w;
                f += cl[k] * (drift[p][k] + w);
            }
            const double dsq = con[p].distance * con[p].distance;
            if (std::fabs(f) > tolerance_ * dsq)
                converged = false;
            step[p] = -f;
        }
        if (converged)
            break;
        solveDense(m, jac, step);
        for (std::size_t p = 0; p < m; ++p)
            lambda[p] += step[p];
    }

    for (std::size_t k = 0; k < m; ++k) {
        const std::size_t a = atom_[con[k].a];
        const std::size_t b = atom_[con[k].b];
        const Vec3 dA = r0[k] * (lambda[k] * invMass_[con[k].a]);
        const Vec3 dB = r0[k] * (-lambda[k] * invMass_[con[k].b]);
        x[a] += dA;
        x[b] += dB;
        v[a] += dA * invDt;
        v[b] += dB * invDt;
    }
    for (std::size_t p = 0; p < m; ++p) {
        const Vec3 rab =
            box.minimumImage(x[atom_[con[p].a]] - x[atom_[con[p].b]]);
        const double dsq = con[p].distance * con[p].distance;
        worst = std::max(worst, std::fabs(rab.normSq() - dsq) / dsq);
    }
    return iter;
}

void
FixShake::solveClusterVelocities(std::size_t c, const Box &box,
                                 const Vec3 *x, Vec3 *v) const
{
    const SlotConstraint *con = constraints_.data() + clusterBegin_[c];
    const std::size_t m = clusterBegin_[c + 1] - clusterBegin_[c];

    // v_a -= mu_k r_k / m_a, v_b += mu_k r_k / m_b for every constraint
    // k zeroes every r_p . (v_a - v_b) when A mu = (r_p . (v_a - v_b))
    // with A_pk = C_pk r_p . r_k.
    Vec3 r[kMaxM];
    double mu[kMaxM] = {};
    double mat[kMaxM][kMaxM] = {};
    for (std::size_t p = 0; p < m; ++p) {
        const std::size_t a = atom_[con[p].a];
        const std::size_t b = atom_[con[p].b];
        r[p] = box.minimumImage(x[a] - x[b]);
        mu[p] = r[p].dot(v[a] - v[b]);
    }
    for (std::size_t p = 0; p < m; ++p)
        for (std::size_t k = 0; k < m; ++k)
            mat[p][k] = coupling(con[p], con[k]) * r[p].dot(r[k]);
    solveDense(m, mat, mu);
    for (std::size_t k = 0; k < m; ++k) {
        v[atom_[con[k].a]] -= r[k] * (mu[k] * invMass_[con[k].a]);
        v[atom_[con[k].b]] += r[k] * (mu[k] * invMass_[con[k].b]);
    }
}

void
FixShake::solvePositions(Simulation &sim)
{
    resolveClusters(sim);
    const Box &box = sim.box;
    Vec3 *x = sim.atoms.x.data();
    Vec3 *v = sim.atoms.v.data();
    const double invDt = 1.0 / sim.dt;

    // Each slice records its own largest residual; a max is independent
    // of the order the slices are folded in.
    std::array<double, SliceRange::kMaxSlices> sliceResidual{};
    ThreadPool::global().parallelFor(
        0, clusterBegin_.size() - 1, kClusterGrain,
        [&](std::size_t c0, std::size_t c1, int slice) {
            double worst = 0.0;
            std::uint64_t iterations = 0;
            for (std::size_t c = c0; c < c1; ++c)
                iterations += static_cast<std::uint64_t>(
                    solveClusterPositions(c, box, x, v, invDt, worst));
            sliceResidual[static_cast<std::size_t>(slice)] = worst;
            counterAdd(Counter::ModifyShakeIterations, iterations);
        });
    maxResidual_ = 0.0;
    for (const double residual : sliceResidual)
        maxResidual_ = std::max(maxResidual_, residual);
}

void
FixShake::solveVelocities(Simulation &sim)
{
    resolveClusters(sim);
    const Box &box = sim.box;
    const Vec3 *x = sim.atoms.x.data();
    Vec3 *v = sim.atoms.v.data();

    ThreadPool::global().parallelFor(
        0, clusterBegin_.size() - 1, kClusterGrain,
        [&](std::size_t c0, std::size_t c1, int) {
            for (std::size_t c = c0; c < c1; ++c)
                solveClusterVelocities(c, box, x, v);
        });
}

} // namespace mdbench
