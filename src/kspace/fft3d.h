/**
 * @file
 * From-scratch complex FFT: mixed-radix (2/3/5, with a generic fallback)
 * 1-D transform and a 3-D transform built on it.
 *
 * This is the computational core of the PPPM long-range solver — the
 * O(N log N) step the paper identifies as the poorly-scaling part of the
 * Rhodopsin timestep. The 1-D transforms execute against cached FftPlan
 * twiddle tables (kspace/fft_plan.h), and the 3-D transform runs its
 * independent line batches on the shared ThreadPool: every 1-D line is
 * owned by exactly one slice, so the result is bitwise identical at any
 * thread count.
 */

#ifndef MDBENCH_KSPACE_FFT3D_H
#define MDBENCH_KSPACE_FFT3D_H

#include <complex>
#include <vector>

#include "kspace/fft_plan.h"

namespace mdbench {

/**
 * In-place 1-D FFT of @p data (length @p n), sign -1 forward / +1 inverse.
 * The inverse is unnormalized (caller divides by n).
 * Works for any n, fastest when n factors into 2, 3, and 5.
 * Resolves the cached plan for @p n on every call; transform loops that
 * fix n should resolve the plan once via fftPlanFor() instead.
 */
void fft1d(Complex *data, int n, int sign);

/** True when @p n factors completely into 2, 3, and 5. */
bool isSmooth235(int n);

/** Smallest integer >= @p n that factors into 2, 3, and 5. */
int nextSmooth235(int n);

/**
 * 3-D FFT over a contiguous array indexed data[(z * ny + y) * nx + x].
 *
 * Construction resolves (and caches) the per-axis FftPlans; transforms
 * batch the nx*ny / ny*nz / nx*nz independent 1-D lines of each axis
 * across the global ThreadPool.
 */
class Fft3d
{
  public:
    Fft3d(int nx, int ny, int nz);

    int nx() const { return nx_; }
    int ny() const { return ny_; }
    int nz() const { return nz_; }
    std::size_t size() const
    {
        return static_cast<std::size_t>(nx_) * ny_ * nz_;
    }

    /** Forward transform (sign -1), in place. */
    void forward(std::vector<Complex> &data) const;

    /**
     * Unnormalized inverse transform (sign +1), in place: forward then
     * inverse scales the data by size(), as in FFTW. Callers fold the
     * 1/size() into a factor they apply anyway.
     */
    void inverse(std::vector<Complex> &data) const;

  private:
    void transform(std::vector<Complex> &data, int sign) const;

    int nx_;
    int ny_;
    int nz_;
    const FftPlan *planX_; ///< cached process-wide, never invalidated
    const FftPlan *planY_;
    const FftPlan *planZ_;
};

} // namespace mdbench

#endif // MDBENCH_KSPACE_FFT3D_H
