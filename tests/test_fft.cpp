/**
 * @file
 * FFT correctness: naive-DFT cross-check, round trips, Parseval,
 * linearity, and smooth-size helpers.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "kspace/fft3d.h"
#include "obs/counters.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace mdbench {
namespace {

std::vector<Complex>
randomSignal(int n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<Complex> signal(n);
    for (auto &value : signal)
        value = Complex(rng.uniform(-1, 1), rng.uniform(-1, 1));
    return signal;
}

std::vector<Complex>
naiveDft(const std::vector<Complex> &in, int sign)
{
    const int n = static_cast<int>(in.size());
    std::vector<Complex> out(n);
    for (int k = 0; k < n; ++k) {
        Complex acc{};
        for (int j = 0; j < n; ++j) {
            const double angle = sign * 2.0 * M_PI * k * j / n;
            acc += in[j] * Complex(std::cos(angle), std::sin(angle));
        }
        out[k] = acc;
    }
    return out;
}

class Fft1dSizes : public ::testing::TestWithParam<int>
{};

TEST_P(Fft1dSizes, MatchesNaiveDft)
{
    const int n = GetParam();
    auto signal = randomSignal(n, 100 + n);
    const auto expected = naiveDft(signal, -1);
    fft1d(signal.data(), n, -1);
    for (int k = 0; k < n; ++k) {
        EXPECT_NEAR(signal[k].real(), expected[k].real(), 1e-9 * n)
            << "n=" << n << " k=" << k;
        EXPECT_NEAR(signal[k].imag(), expected[k].imag(), 1e-9 * n);
    }
}

TEST_P(Fft1dSizes, RoundTripRecoversSignal)
{
    const int n = GetParam();
    const auto original = randomSignal(n, 200 + n);
    auto signal = original;
    fft1d(signal.data(), n, -1);
    fft1d(signal.data(), n, 1);
    for (int k = 0; k < n; ++k) {
        EXPECT_NEAR(signal[k].real() / n, original[k].real(), 1e-10);
        EXPECT_NEAR(signal[k].imag() / n, original[k].imag(), 1e-10);
    }
}

INSTANTIATE_TEST_SUITE_P(MixedRadixAndPrime, Fft1dSizes,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 8, 9, 10, 12,
                                           15, 16, 20, 24, 25, 27, 30, 32,
                                           7, 11, 13, 36, 45, 60, 64, 100));

TEST(Fft1d, ParsevalHolds)
{
    const int n = 60;
    auto signal = randomSignal(n, 31);
    double timeEnergy = 0.0;
    for (const auto &value : signal)
        timeEnergy += std::norm(value);
    fft1d(signal.data(), n, -1);
    double freqEnergy = 0.0;
    for (const auto &value : signal)
        freqEnergy += std::norm(value);
    EXPECT_NEAR(freqEnergy, n * timeEnergy, 1e-8 * n * timeEnergy);
}

TEST(Fft1d, DeltaTransformsToConstant)
{
    std::vector<Complex> signal(16, Complex{});
    signal[0] = 1.0;
    fft1d(signal.data(), 16, -1);
    for (const auto &value : signal) {
        EXPECT_NEAR(value.real(), 1.0, 1e-12);
        EXPECT_NEAR(value.imag(), 0.0, 1e-12);
    }
}

TEST(Fft1d, SingleModeIsLocalized)
{
    const int n = 30;
    std::vector<Complex> signal(n);
    for (int j = 0; j < n; ++j) {
        const double angle = 2.0 * M_PI * 7 * j / n;
        signal[j] = Complex(std::cos(angle), std::sin(angle));
    }
    fft1d(signal.data(), n, -1);
    for (int k = 0; k < n; ++k) {
        const double expected = k == 7 ? n : 0.0;
        EXPECT_NEAR(signal[k].real(), expected, 1e-9);
        EXPECT_NEAR(signal[k].imag(), 0.0, 1e-9);
    }
}

TEST(Fft3d, RoundTrip)
{
    Fft3d fft(6, 10, 4);
    Rng rng(42);
    std::vector<Complex> data(fft.size());
    for (auto &value : data)
        value = Complex(rng.uniform(-1, 1), rng.uniform(-1, 1));
    const auto original = data;
    fft.forward(data);
    fft.inverse(data); // unnormalized: size() times the input
    const double n = static_cast<double>(fft.size());
    for (std::size_t i = 0; i < data.size(); ++i) {
        EXPECT_NEAR(data[i].real() / n, original[i].real(), 1e-10);
        EXPECT_NEAR(data[i].imag() / n, original[i].imag(), 1e-10);
    }
}

TEST(Fft3d, PlaneWaveLocalizes)
{
    const int nx = 8;
    const int ny = 6;
    const int nz = 5;
    Fft3d fft(nx, ny, nz);
    std::vector<Complex> data(fft.size());
    const int mx = 3;
    const int my = 2;
    const int mz = 4;
    for (int z = 0; z < nz; ++z)
        for (int y = 0; y < ny; ++y)
            for (int x = 0; x < nx; ++x) {
                const double angle =
                    2.0 * M_PI *
                    (static_cast<double>(mx) * x / nx +
                     static_cast<double>(my) * y / ny +
                     static_cast<double>(mz) * z / nz);
                data[(static_cast<std::size_t>(z) * ny + y) * nx + x] =
                    Complex(std::cos(angle), std::sin(angle));
            }
    fft.forward(data);
    const std::size_t peak =
        (static_cast<std::size_t>(mz) * ny + my) * nx + mx;
    for (std::size_t i = 0; i < data.size(); ++i) {
        const double expected = i == peak ? static_cast<double>(fft.size())
                                          : 0.0;
        EXPECT_NEAR(data[i].real(), expected, 1e-8);
        EXPECT_NEAR(data[i].imag(), 0.0, 1e-8);
    }
}

TEST(SmoothSizes, Detection)
{
    EXPECT_TRUE(isSmooth235(1));
    EXPECT_TRUE(isSmooth235(8));
    EXPECT_TRUE(isSmooth235(45));
    EXPECT_TRUE(isSmooth235(120));
    EXPECT_FALSE(isSmooth235(7));
    EXPECT_FALSE(isSmooth235(22));
    EXPECT_FALSE(isSmooth235(0));
}

TEST(SmoothSizes, NextSmooth)
{
    EXPECT_EQ(nextSmooth235(7), 8);
    EXPECT_EQ(nextSmooth235(31), 32);
    EXPECT_EQ(nextSmooth235(121), 125);
    EXPECT_EQ(nextSmooth235(16), 16);
}

TEST(SmoothSizes, EdgeCases)
{
    // n = 1 is the empty product of {2, 3, 5}.
    EXPECT_TRUE(isSmooth235(1));
    EXPECT_EQ(nextSmooth235(1), 1);
    // Non-positive inputs: not smooth; next rounds up to 1.
    EXPECT_FALSE(isSmooth235(-3));
    EXPECT_EQ(nextSmooth235(0), 1);
    EXPECT_EQ(nextSmooth235(-10), 1);
    // Primes outside {2, 3, 5} and numbers carrying them as factors.
    for (int prime : {7, 11, 13, 9973})
        EXPECT_FALSE(isSmooth235(prime)) << prime;
    EXPECT_FALSE(isSmooth235(2 * 3 * 5 * 7));
    // Large smooth values are fixed points of nextSmooth235.
    const int large = 1024 * 243 * 125; // 2^10 3^5 5^3 = 31,104,000
    EXPECT_TRUE(isSmooth235(large));
    EXPECT_EQ(nextSmooth235(large), large);
    // 10007 is prime; the next 2/3/5-smooth integer is 3^4 5^3.
    EXPECT_EQ(nextSmooth235(10007), 10125);
}

// The paper's Section 7 thresholds produce non-power-of-two PPPM grids
// (any 2/3/5-smooth axis), so the transform quality guarantees must
// hold there too, not only at the power-of-two sizes.

TEST(Fft3d, NonPowerOfTwoRoundTrip)
{
    Fft3d fft(12, 15, 10);
    Rng rng(91);
    std::vector<Complex> data(fft.size());
    for (auto &value : data)
        value = Complex(rng.uniform(-1, 1), rng.uniform(-1, 1));
    const auto original = data;
    fft.forward(data);
    fft.inverse(data); // unnormalized: size() times the input
    const double n = static_cast<double>(fft.size());
    for (std::size_t i = 0; i < data.size(); ++i) {
        EXPECT_NEAR(data[i].real() / n, original[i].real(), 1e-10);
        EXPECT_NEAR(data[i].imag() / n, original[i].imag(), 1e-10);
    }
}

TEST(Fft3d, NonPowerOfTwoParseval)
{
    Fft3d fft(9, 20, 6);
    Rng rng(92);
    std::vector<Complex> data(fft.size());
    double timeEnergy = 0.0;
    for (auto &value : data) {
        value = Complex(rng.uniform(-1, 1), rng.uniform(-1, 1));
        timeEnergy += std::norm(value);
    }
    fft.forward(data);
    double freqEnergy = 0.0;
    for (const auto &value : data)
        freqEnergy += std::norm(value);
    const double n = static_cast<double>(fft.size());
    EXPECT_NEAR(freqEnergy, n * timeEnergy, 1e-8 * n * timeEnergy);
}

TEST(Fft3d, ThreadedTransformIsBitwiseIdenticalToSerial)
{
    const int before = ThreadPool::threads();
    Fft3d fft(12, 9, 10);
    Rng rng(93);
    std::vector<Complex> original(fft.size());
    for (auto &value : original)
        value = Complex(rng.uniform(-1, 1), rng.uniform(-1, 1));

    ThreadPool::setThreads(1);
    auto serial = original;
    fft.forward(serial);
    for (int nthreads : {2, 4, 8}) {
        SCOPED_TRACE(nthreads);
        ThreadPool::setThreads(nthreads);
        auto threaded = original;
        fft.forward(threaded);
        for (std::size_t i = 0; i < serial.size(); ++i) {
            EXPECT_EQ(threaded[i].real(), serial[i].real()) << i;
            EXPECT_EQ(threaded[i].imag(), serial[i].imag()) << i;
        }
    }
    ThreadPool::setThreads(before);
}

TEST(FftPlan, CacheReusesPlansAtFixedLength)
{
    // Generic-radix length (prime 19): before planning, every call
    // re-derived the factorization and twiddles; now the second lookup
    // must be served from the cache.
    const FftPlan &first = fftPlanFor(19);
    const auto hitsBefore = counterValue(Counter::KspacePlanCacheHits);
    const FftPlan &second = fftPlanFor(19);
    EXPECT_EQ(&first, &second);
    EXPECT_EQ(counterValue(Counter::KspacePlanCacheHits), hitsBefore + 1);

    auto signal = randomSignal(19, 321);
    const auto expected = naiveDft(signal, -1);
    fft1d(signal.data(), 19, -1); // routes through the same cached plan
    EXPECT_GT(counterValue(Counter::KspacePlanCacheHits), hitsBefore + 1);
    for (int k = 0; k < 19; ++k) {
        EXPECT_NEAR(signal[k].real(), expected[k].real(), 1e-9 * 19);
        EXPECT_NEAR(signal[k].imag(), expected[k].imag(), 1e-9 * 19);
    }
}

TEST(FftPlan, FactorsMultiplyBackToLength)
{
    for (int n : {1, 2, 12, 19, 60, 98, 121, 1000}) {
        const FftPlan &plan = fftPlanFor(n);
        EXPECT_EQ(plan.length(), n);
        long product = 1;
        for (int factor : plan.factors())
            product *= factor;
        EXPECT_EQ(product, n) << n;
    }
}

} // namespace
} // namespace mdbench
