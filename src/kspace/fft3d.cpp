#include "kspace/fft3d.h"

#include <algorithm>

#include "obs/counters.h"
#include "obs/trace.h"
#include "util/error.h"
#include "util/thread_pool.h"

namespace mdbench {

void
fft1d(Complex *data, int n, int sign)
{
    require(n >= 1, "fft length must be positive");
    ensure(sign == 1 || sign == -1, "fft sign must be +-1");
    const FftPlan &plan = fftPlanFor(n);
    std::vector<Complex> scratch(static_cast<std::size_t>(n));
    plan.execute(data, sign, scratch.data());
}

bool
isSmooth235(int n)
{
    if (n < 1)
        return false;
    for (int r : {2, 3, 5})
        while (n % r == 0)
            n /= r;
    return n == 1;
}

int
nextSmooth235(int n)
{
    int candidate = n < 1 ? 1 : n;
    while (!isSmooth235(candidate))
        ++candidate;
    return candidate;
}

Fft3d::Fft3d(int nx, int ny, int nz)
    : nx_(nx), ny_(ny), nz_(nz), planX_(&fftPlanFor(nx)),
      planY_(&fftPlanFor(ny)), planZ_(&fftPlanFor(nz))
{
    require(nx >= 1 && ny >= 1 && nz >= 1, "fft grid dims must be positive");
}

/**
 * Each axis pass transforms its batch of independent 1-D lines in
 * parallel; a line is read and written only by the slice that owns it
 * and the passes are separated by the pool's region barrier, so the
 * result is bitwise identical at any thread count.
 */
void
Fft3d::transform(std::vector<Complex> &data, int sign) const
{
    ensure(data.size() == size(), "fft3d data size mismatch");
    ThreadPool &pool = ThreadPool::global();
    Complex *grid = data.data();
    const std::size_t nx = static_cast<std::size_t>(nx_);
    const std::size_t ny = static_cast<std::size_t>(ny_);
    const std::size_t nz = static_cast<std::size_t>(nz_);
    counterAdd(Counter::KspaceFft1dLines, ny * nz + nx * nz + nx * ny);

    // X axis: contiguous rows, line r covers z = r / ny, y = r % ny.
    pool.parallelFor(0, ny * nz, 1,
                     [&](std::size_t begin, std::size_t end, int) {
                         std::vector<Complex> scratch(nx);
                         for (std::size_t r = begin; r < end; ++r)
                             planX_->execute(grid + r * nx, sign,
                                             scratch.data());
                     });

    // Y axis: strided columns, line r covers z = r / nx, x = r % nx.
    pool.parallelFor(0, nx * nz, 1,
                     [&](std::size_t begin, std::size_t end, int) {
                         std::vector<Complex> line(ny);
                         std::vector<Complex> scratch(ny);
                         for (std::size_t r = begin; r < end; ++r) {
                             const std::size_t z = r / nx;
                             const std::size_t x = r % nx;
                             Complex *base = grid + z * ny * nx + x;
                             for (std::size_t y = 0; y < ny; ++y)
                                 line[y] = base[y * nx];
                             planY_->execute(line.data(), sign,
                                             scratch.data());
                             for (std::size_t y = 0; y < ny; ++y)
                                 base[y * nx] = line[y];
                         }
                     });

    // Z axis: strided columns, line r covers y = r / nx, x = r % nx.
    pool.parallelFor(0, nx * ny, 1,
                     [&](std::size_t begin, std::size_t end, int) {
                         std::vector<Complex> line(nz);
                         std::vector<Complex> scratch(nz);
                         for (std::size_t r = begin; r < end; ++r) {
                             Complex *base = grid + r;
                             for (std::size_t z = 0; z < nz; ++z)
                                 line[z] = base[z * ny * nx];
                             planZ_->execute(line.data(), sign,
                                             scratch.data());
                             for (std::size_t z = 0; z < nz; ++z)
                                 base[z * ny * nx] = line[z];
                         }
                     });
}

void
Fft3d::forward(std::vector<Complex> &data) const
{
    TraceScope trace("kspace", "fft_forward");
    counterAdd(Counter::KspaceFfts);
    transform(data, -1);
}

void
Fft3d::inverse(std::vector<Complex> &data) const
{
    TraceScope trace("kspace", "fft_inverse");
    counterAdd(Counter::KspaceFfts);
    transform(data, 1);
}

} // namespace mdbench
