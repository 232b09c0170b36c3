/**
 * @file
 * Deterministic pseudo-random number generation for the simulators.
 *
 * All tenoc components draw randomness from an explicitly seeded Rng so
 * that every simulation is reproducible.  The generator is
 * xoshiro256** (Blackman & Vigna), which is fast and has excellent
 * statistical quality for simulation purposes.
 */

#ifndef TENOC_COMMON_RNG_HH
#define TENOC_COMMON_RNG_HH

#include <cstdint>
#include <vector>

namespace tenoc
{

/**
 * Seeded xoshiro256** pseudo-random number generator.
 */
class Rng
{
  public:
    /** Constructs a generator from a 64-bit seed (SplitMix64 expansion). */
    explicit Rng(std::uint64_t seed = 0x1badcafeULL);

    /** @return the next raw 64-bit value. */
    std::uint64_t next();

    /** @return uniform integer in [0, bound) ; bound must be > 0. */
    std::uint64_t nextRange(std::uint64_t bound);

    /** @return uniform double in [0, 1). */
    double nextDouble();

    /** @return true with probability p (clamped to [0,1]). */
    bool nextBool(double p);

    /** Picks a uniformly random element index from a non-empty vector. */
    template <typename T>
    const T &
    pick(const std::vector<T> &v)
    {
        return v[nextRange(v.size())];
    }

    /** Re-seeds the generator deterministically. */
    void seed(std::uint64_t seed);

  private:
    std::uint64_t s_[4];
};

/**
 * Derives an independent per-component stream seed from a global seed
 * via SplitMix64: the global seed is whitened through one SplitMix64
 * step and the component id mixed through another, so component k's
 * stream depends only on (global seed, k).  Adding or removing a
 * component therefore never perturbs any other component's draws,
 * unlike handing every component one shared generator (where each
 * draw shifts everyone else's sequence).
 */
std::uint64_t deriveStreamSeed(std::uint64_t global_seed,
                               std::uint64_t component_id);

} // namespace tenoc

#endif // TENOC_COMMON_RNG_HH
