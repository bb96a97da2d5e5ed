/**
 * @file
 * Deterministic pseudo-random number generation for workloads and tests.
 *
 * A small, fast xoshiro256** generator seeded via splitmix64. Simulation
 * results must be reproducible across runs, so all randomness in the
 * repository flows through this class with explicit seeds. Store
 * payloads come from fillLcgPayload(), one LCG stream per seed.
 */

#ifndef THYNVM_COMMON_RNG_HH
#define THYNVM_COMMON_RNG_HH

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "common/logging.hh"

namespace thynvm {

/**
 * Deterministic 64-bit PRNG (xoshiro256**).
 */
class Rng
{
  public:
    /** Construct with the given @p seed; equal seeds give equal streams. */
    explicit Rng(std::uint64_t seed = 0x5eed)
    {
        // Seed the state with splitmix64 as recommended by the authors.
        std::uint64_t x = seed;
        for (auto& word : state_)
            word = splitmix64(x);
    }

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound). @p bound must be nonzero. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        panic_if(bound == 0, "Rng::below(0)");
        // Multiply-shift rejection-free mapping; bias is negligible for
        // the bounds used in this project (\<= 2^40).
        return static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(next()) * bound) >> 64);
    }

    /** Uniform integer in [lo, hi], inclusive. */
    std::uint64_t
    range(std::uint64_t lo, std::uint64_t hi)
    {
        panic_if(lo > hi, "Rng::range: lo > hi");
        return lo + below(hi - lo + 1);
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli trial with success probability @p p. */
    bool
    chance(double p)
    {
        return uniform() < p;
    }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    static std::uint64_t
    splitmix64(std::uint64_t& x)
    {
        std::uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    std::uint64_t state_[4];
};

/**
 * Fill @p len bytes at @p dst with the payload stream of @p seed: the
 * little-endian words of the LCG chain w(0) = seed, w(k+1) = a*w(k) + c
 * (mod 2^64), the last word cut to len % 8 bytes. Every workload's store
 * payloads, and so every golden and recorded digest, are this stream.
 *
 * Four lanes hold w(4m) .. w(4m+3). Each jumps four steps at once with
 * w(k+4) = A4*w(k) + C4, A4 = a^4, C4 = c*(a^3 + a^2 + a + 1), so a
 * 32-byte stride costs four independent multiply-adds instead of a
 * chain of four. The at most three whole words left over come from
 * lanes 0, 1, 2 in order and the byte tail from the next lane, which
 * keeps the output byte-identical to the serial chain for every length.
 */
inline void
fillLcgPayload(std::uint8_t* dst, std::size_t len, std::uint64_t seed)
{
    static_assert(std::endian::native == std::endian::little,
                  "payload words are stored little-endian");
    constexpr std::uint64_t kA = 6364136223846793005ULL;
    constexpr std::uint64_t kC = 1442695040888963407ULL;
    constexpr std::uint64_t kA4 = kA * kA * kA * kA;
    constexpr std::uint64_t kC4 = kC * (kA * kA * kA + kA * kA + kA + 1);
    std::uint64_t w0 = seed;
    std::uint64_t w1 = w0 * kA + kC;
    std::uint64_t w2 = w1 * kA + kC;
    std::uint64_t w3 = w2 * kA + kC;
    std::size_t i = 0;
    for (; i + 32 <= len; i += 32) {
        std::memcpy(dst + i, &w0, 8);
        std::memcpy(dst + i + 8, &w1, 8);
        std::memcpy(dst + i + 16, &w2, 8);
        std::memcpy(dst + i + 24, &w3, 8);
        w0 = w0 * kA4 + kC4;
        w1 = w1 * kA4 + kC4;
        w2 = w2 * kA4 + kC4;
        w3 = w3 * kA4 + kC4;
    }
    const std::uint64_t rest[4] = {w0, w1, w2, w3};
    std::size_t lane = 0;
    for (; i + 8 <= len; i += 8)
        std::memcpy(dst + i, &rest[lane++], 8);
    for (std::size_t b = 0; i + b < len; ++b)
        dst[i + b] = static_cast<std::uint8_t>(rest[lane] >> (b * 8));
}

/**
 * Zipfian rank generator in the rejection-free closed form of Gray et
 * al. ("Quickly generating billion-record synthetic databases",
 * SIGMOD'94), as popularized by YCSB. Rank 0 is the most popular item;
 * rank r is drawn with probability proportional to 1/(r+1)^theta.
 *
 * Construction is O(n) (the harmonic-like normalizer zeta(n, theta) is
 * summed once); each draw is O(1) and consumes exactly one value from
 * the supplied Rng. The generator itself is stateless across draws, so
 * workloads can snapshot/restore just their Rng and replay the same
 * key sequence — the property KvWorkload's checkpointed generator
 * state relies on.
 */
class ZipfianGenerator
{
  public:
    /**
     * @param n item count (ranks 0..n-1); must be >= 2.
     * @param theta skew in (0, 1); 0.99 is the YCSB default.
     */
    explicit ZipfianGenerator(std::uint64_t n, double theta = 0.99)
        : n_(n), theta_(theta)
    {
        panic_if(n < 2, "ZipfianGenerator needs at least 2 items");
        panic_if(theta <= 0.0 || theta >= 1.0,
                 "zipfian theta must be in (0, 1)");
        for (std::uint64_t i = 1; i <= n_; ++i)
            zetan_ += 1.0 / std::pow(static_cast<double>(i), theta_);
        const double zeta2 =
            1.0 + 1.0 / std::pow(2.0, theta_);
        alpha_ = 1.0 / (1.0 - theta_);
        eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_),
                               1.0 - theta_)) /
               (1.0 - zeta2 / zetan_);
        half_pow_theta_ = std::pow(0.5, theta_);
    }

    std::uint64_t itemCount() const { return n_; }
    double theta() const { return theta_; }

    /** Analytic probability of rank @p r (for tests). */
    double
    probability(std::uint64_t r) const
    {
        return 1.0 /
               (std::pow(static_cast<double>(r + 1), theta_) * zetan_);
    }

    /** Draw a rank in [0, n): 0 is most popular. */
    std::uint64_t
    next(Rng& rng) const
    {
        const double u = rng.uniform();
        const double uz = u * zetan_;
        if (uz < 1.0)
            return 0;
        if (uz < 1.0 + half_pow_theta_)
            return 1;
        const std::uint64_t r = static_cast<std::uint64_t>(
            static_cast<double>(n_) *
            std::pow(eta_ * u - eta_ + 1.0, alpha_));
        return r >= n_ ? n_ - 1 : r;
    }

    /**
     * Draw a rank and scatter it over [0, n) with an FNV-1a hash, so
     * the popular items are spread across the key space instead of
     * clustered at the low keys (the YCSB "scrambled zipfian" idiom).
     */
    std::uint64_t
    nextScrambled(Rng& rng) const
    {
        return fnv64(next(rng)) % n_;
    }

  private:
    static std::uint64_t
    fnv64(std::uint64_t x)
    {
        std::uint64_t h = 0xcbf29ce484222325ULL;
        for (int i = 0; i < 8; ++i) {
            h ^= (x >> (i * 8)) & 0xff;
            h *= 0x100000001b3ULL;
        }
        return h;
    }

    std::uint64_t n_;
    double theta_;
    double zetan_ = 0.0;
    double alpha_ = 0.0;
    double eta_ = 0.0;
    double half_pow_theta_ = 0.0;
};

} // namespace thynvm

#endif // THYNVM_COMMON_RNG_HH
