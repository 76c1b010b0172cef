#include "md/fix_shake.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "md/simulation.h"
#include "util/error.h"
#include "util/thread_pool.h"

namespace mdbench {

namespace {

/** Clusters per pool slice (a water cluster is ~0.5-2 us of sweeps). */
constexpr std::size_t kClusterGrain = 32;

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
    rabFixed_.resize(constraints_.size());
    rattleDenom_.resize(constraints_.size());
    resolvedAt_ = sim.reneighborCount();
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
            for (std::size_t c = c0; c < c1; ++c) {
                const std::uint32_t n0 = clusterBegin_[c];
                const std::uint32_t n1 = clusterBegin_[c + 1];
                for (std::uint32_t n = n0; n < n1; ++n) {
                    const SlotConstraint &con = constraints_[n];
                    rabFixed_[n] = box.minimumImage(
                        savedPos_[atom_[con.a]] - savedPos_[atom_[con.b]]);
                }
                for (int iter = 0; iter < maxIterations_; ++iter) {
                    bool converged = true;
                    for (std::uint32_t n = n0; n < n1; ++n) {
                        const SlotConstraint &con = constraints_[n];
                        const std::size_t a = atom_[con.a];
                        const std::size_t b = atom_[con.b];
                        const double dsq = con.distance * con.distance;
                        const Vec3 rab = box.minimumImage(x[a] - x[b]);
                        const double diff = rab.normSq() - dsq;
                        if (std::fabs(diff) <= tolerance_ * dsq)
                            continue;
                        converged = false;
                        const Vec3 &rabOld = rabFixed_[n];
                        const double invMa = invMass_[con.a];
                        const double invMb = invMass_[con.b];
                        const double denom =
                            2.0 * (invMa + invMb) * rab.dot(rabOld);
                        // Not ensure(): its std::string argument would
                        // be built on every pass of this inner loop.
                        if (!(std::fabs(denom) > 1e-12))
                            panic("shake constraint degenerate "
                                  "(perpendicular drift)");
                        const double g = diff / denom;
                        const Vec3 dA = rabOld * (-g * invMa);
                        const Vec3 dB = rabOld * (g * invMb);
                        x[a] += dA;
                        x[b] += dB;
                        v[a] += dA * invDt;
                        v[b] += dB * invDt;
                    }
                    if (converged)
                        break;
                }
                for (std::uint32_t n = n0; n < n1; ++n) {
                    const SlotConstraint &con = constraints_[n];
                    const Vec3 rab = box.minimumImage(x[atom_[con.a]] -
                                                      x[atom_[con.b]]);
                    const double dsq = con.distance * con.distance;
                    worst = std::max(worst,
                                     std::fabs(rab.normSq() - dsq) / dsq);
                }
            }
            sliceResidual[static_cast<std::size_t>(slice)] = worst;
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
            for (std::size_t c = c0; c < c1; ++c) {
                const std::uint32_t n0 = clusterBegin_[c];
                const std::uint32_t n1 = clusterBegin_[c + 1];
                // Positions are fixed here: rab and the denominator are
                // sweep invariants.
                for (std::uint32_t n = n0; n < n1; ++n) {
                    const SlotConstraint &con = constraints_[n];
                    const Vec3 rab = box.minimumImage(x[atom_[con.a]] -
                                                      x[atom_[con.b]]);
                    rabFixed_[n] = rab;
                    rattleDenom_[n] = rab.normSq() * (invMass_[con.a] +
                                                      invMass_[con.b]);
                }
                for (int iter = 0; iter < maxIterations_; ++iter) {
                    bool converged = true;
                    for (std::uint32_t n = n0; n < n1; ++n) {
                        const SlotConstraint &con = constraints_[n];
                        const std::size_t a = atom_[con.a];
                        const std::size_t b = atom_[con.b];
                        const Vec3 &rab = rabFixed_[n];
                        const Vec3 vab = v[a] - v[b];
                        const double invMa = invMass_[con.a];
                        const double invMb = invMass_[con.b];
                        const double k = rab.dot(vab) / rattleDenom_[n];
                        if (std::fabs(k) <= tolerance_)
                            continue;
                        converged = false;
                        v[a] -= rab * (k * invMa);
                        v[b] += rab * (k * invMb);
                    }
                    if (converged)
                        break;
                }
            }
        });
}

} // namespace mdbench
