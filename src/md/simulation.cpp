#include "md/simulation.h"

#include <algorithm>
#include <cmath>

#include "obs/counters.h"
#include "obs/task_scope.h"
#include "obs/trace.h"
#include "util/error.h"
#include "util/thread_pool.h"

namespace mdbench {

Simulation::Simulation()
{
    comm = std::make_unique<SerialComm>();
}

int
Simulation::threadCount() const
{
    return ThreadPool::threads();
}

double
Simulation::commCutoff() const
{
    // Ghosts must cover every pair the neighbor list may hold; bonded
    // interactions are assumed shorter than the pair cutoff + skin (true
    // for all five benchmark workloads).
    return neighbor.cutoff + neighbor.skin;
}

bool
Simulation::maybeSortAtoms()
{
    if (config.sortEvery <= 0)
        return false;
    if (!neighbor.sortDue(config.sortEvery) || atoms.nghost() != 0) {
        counterAdd(Counter::SortSkipped);
        return false;
    }
    TaskScope scope(timer, Task::Neigh);
    TraceScope trace("neigh", "spatial_sort");
    neighbor.computeSortOrder(*this, sortOrder_);
    atoms.applyPermutation(sortOrder_);
    for (auto &fix : fixes)
        fix->onAtomsReordered(*this, sortOrder_);
    neighbor.noteSortApplied();
    counterAdd(Counter::SortApplied);
    return true;
}

void
Simulation::reneighbor()
{
    {
        TaskScope scope(timer, Task::Comm);
        comm->exchange(*this);
    }
    // Between exchange and borders the owned atoms are wrapped and no
    // ghosts exist: the only point in the step where a reorder cannot
    // invalidate live indices (ghost records, neighbor list, tag map
    // are all rebuilt below).
    maybeSortAtoms();
    {
        TaskScope scope(timer, Task::Comm);
        comm->borders(*this);
        topology.buildTagMap(atoms);
    }
    {
        TaskScope scope(timer, Task::Neigh);
        neighbor.build(*this);
    }
    ++reneighborCount_;
}

void
Simulation::zeroForceAccumulators()
{
    atoms.zeroForces();
}

void
Simulation::computeLocalForces()
{
    computePairInterior();
    computeBoundaryForces();
}

void
Simulation::computePairInterior()
{
    if (!pair || !neighbor.splitActive())
        return;
    TaskScope scope(timer, Task::Pair);
    const NeighborList &interior = neighbor.interiorList();
    counterAdd(Counter::PairInteriorPairs, interior.pairCount());
    pair->compute(*this, interior);
    pairInteriorEnergy_ = pair->energy();
    pairInteriorVirial_ = pair->virial();
}

void
Simulation::computeBoundaryForces()
{
    if (pair) {
        TaskScope scope(timer, Task::Pair);
        if (neighbor.splitActive()) {
            const NeighborList &boundary = neighbor.boundaryList();
            counterAdd(Counter::PairBoundaryPairs, boundary.pairCount());
            pair->compute(*this, boundary);
            // compute() reset the accumulators; the interior pass's
            // energy/virial belong to the same logical evaluation.
            pair->addAccumulated(pairInteriorEnergy_,
                                 pairInteriorVirial_);
        } else {
            // Re-derive the SIMD packing if config's width or tier
            // changed since the list was built, so kernels never
            // consume a packing built for a different geometry.
            neighbor.ensureFreshPacking(*this);
            pair->compute(*this, neighbor.list());
        }
    }
    if (bondStyle || angleStyle) {
        TaskScope scope(timer, Task::Bond);
        if (bondStyle)
            bondStyle->compute(*this);
        if (angleStyle)
            angleStyle->compute(*this);
    }
    if (kspace) {
        TaskScope scope(timer, Task::Kspace);
        kspace->compute(*this);
    }
}

void
Simulation::reverseForceComm()
{
    TaskScope scope(timer, Task::Comm);
    comm->reverseForces(*this);
}

void
Simulation::computeForces()
{
    zeroForceAccumulators();
    computeLocalForces();
    reverseForceComm();
}

void
Simulation::setup()
{
    require(pair || bondStyle || !atoms.x.empty(),
            "simulation has no atoms and no styles");
    config.validate();
    if (pair) {
        neighbor.cutoff = std::max(neighbor.cutoff, pair->cutoff());
        // Upgrade to a full list when the style needs one (lj/cut,
        // gran/hooke/history). An explicit full request is kept, so a
        // half-list style (EAM, charmm) handed one fails its own check.
        neighbor.full = neighbor.full || pair->needsFullList();
        pair->setup(*this);
    }
    require(neighbor.cutoff > 0.0, "neighbor cutoff must be positive");
    require(neighbor.every >= 0, "neighbor rebuild interval must be >= 0");

    if (kspace)
        kspace->setup(*this);

    // Preserve exclusions installed externally (decomposed runs inject
    // the global set before per-rank setup).
    if (topology.exclusionCount() == 0)
        topology.buildExclusions();
    reneighbor();
    computeForces();
    for (auto &fix : fixes) {
        TaskScope scope(timer, Task::Modify);
        fix->setup(*this);
    }
    setupDone_ = true;

    if (thermoEvery > 0) {
        TaskScope scope(timer, Task::Output);
        thermoLog_.push_back(sampleThermo());
    }
}

void
Simulation::integrateInitial()
{
    TaskScope scope(timer, Task::Modify);
    for (auto &fix : fixes)
        fix->preIntegrate(*this);
    for (auto &fix : fixes)
        fix->initialIntegrate(*this);
}

void
Simulation::integrateFinal()
{
    TaskScope scope(timer, Task::Modify);
    for (auto &fix : fixes)
        fix->postForce(*this);
    for (auto &fix : fixes)
        fix->finalIntegrate(*this);
    for (auto &fix : fixes)
        fix->endOfStep(*this);
}

bool
Simulation::needsReneighbor()
{
    // Distance check runs at most every `neighbor.every` steps,
    // mirroring LAMMPS's neigh_modify every/check semantics; 0 is
    // purely distance based and checks on every step.
    TaskScope scope(timer, Task::Other);
    const long interval = std::max(neighbor.every, 1);
    if (step - neighbor.lastBuildStep_ >= interval)
        return neighbor.checkTrigger(*this);
    return false;
}

void
Simulation::maybeSampleThermo()
{
    if (thermoEvery > 0 && step % thermoEvery == 0) {
        TaskScope scope(timer, Task::Output);
        thermoLog_.push_back(sampleThermo());
    }
}

void
Simulation::run(long nsteps)
{
    ensure(setupDone_, "Simulation::run before setup()");
    for (long i = 0; i < nsteps; ++i) {
        ++step;
        integrateInitial();

        if (needsReneighbor()) {
            reneighbor();
        } else {
            TaskScope scope(timer, Task::Comm);
            comm->forwardPositions(*this);
        }

        // The force computation proper; postForce/finalIntegrate follow.
        computeForces();
        integrateFinal();
        maybeSampleThermo();
    }
}

double
Simulation::kineticEnergy() const
{
    double sum = 0.0;
    for (std::size_t i = 0; i < atoms.nlocal(); ++i)
        sum += atoms.massOf(i) * atoms.v[i].normSq();
    return 0.5 * units.mvv2e * sum;
}

long
Simulation::degreesOfFreedom() const
{
    long dof = 3 * static_cast<long>(atoms.nlocal()) - 3;
    for (const auto &fix : fixes)
        dof -= fix->removedDof(*this);
    return dof > 0 ? dof : 1;
}

double
Simulation::temperature() const
{
    return 2.0 * kineticEnergy() /
           (static_cast<double>(degreesOfFreedom()) * units.boltz);
}

double
Simulation::potentialEnergy() const
{
    double pe = 0.0;
    if (pair)
        pe += pair->energy();
    if (bondStyle)
        pe += bondStyle->energy();
    if (angleStyle)
        pe += angleStyle->energy();
    if (kspace)
        pe += kspace->energy();
    return pe;
}

double
Simulation::pressure() const
{
    double w = 0.0;
    if (pair)
        w += pair->virial();
    if (bondStyle)
        w += bondStyle->virial();
    if (angleStyle)
        w += angleStyle->virial();
    if (kspace)
        w += kspace->virial();
    const double volume = box.volume();
    return (2.0 * kineticEnergy() + w) / (3.0 * volume) * units.nktv2p;
}

ThermoRow
Simulation::sampleThermo()
{
    ThermoRow row;
    row.step = step;
    row.kinetic = kineticEnergy();
    row.potential = potentialEnergy();
    row.total = row.kinetic + row.potential;
    row.temperature = temperature();
    row.pressure = pressure();
    row.volume = box.volume();
    return row;
}

} // namespace mdbench
