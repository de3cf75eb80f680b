// Deterministic random number generation.
//
// Every randomized component in the library (dataset generation, weight
// initialization, policy sampling) takes an explicit Rng so that runs are
// reproducible from a single seed.
#pragma once

#include <cstdint>
#include <random>

namespace camo {

/// One SplitMix64 mixing step. Used to derive statistically independent
/// seeds from a base seed plus an index, so parallel jobs get reproducible
/// streams that do not depend on scheduling order.
constexpr std::uint64_t splitmix64(std::uint64_t x) {
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

/// Seed for job `index` of a batch rooted at `base`. Deterministic in
/// (base, index) only: results are identical at any thread count.
constexpr std::uint64_t derive_seed(std::uint64_t base, std::uint64_t index) {
    return splitmix64(splitmix64(base) ^ splitmix64(index + 0x632BE59BD9B4E019ULL));
}

/// Thin wrapper over std::mt19937_64 with convenience draws.
class Rng {
public:
    explicit Rng(std::uint64_t seed) : engine_(seed) {}

    /// Uniform integer in [lo, hi] (inclusive).
    int uniform_int(int lo, int hi) {
        std::uniform_int_distribution<int> d(lo, hi);
        return d(engine_);
    }

    /// Uniform real in [lo, hi).
    double uniform(double lo, double hi) {
        std::uniform_real_distribution<double> d(lo, hi);
        return d(engine_);
    }

    /// Standard normal scaled by stddev.
    double normal(double stddev) {
        std::normal_distribution<double> d(0.0, stddev);
        return d(engine_);
    }

    /// Bernoulli draw.
    bool coin(double p_true) {
        std::bernoulli_distribution d(p_true);
        return d(engine_);
    }

    /// Sample an index from an (unnormalized) non-negative weight vector.
    /// Falls back to the last index on degenerate input.
    template <typename Container>
    int sample_weighted(const Container& weights) {
        double total = 0.0;
        for (double w : weights) total += w;
        if (total <= 0.0) return static_cast<int>(weights.size()) - 1;
        double u = uniform(0.0, total);
        double acc = 0.0;
        int i = 0;
        for (double w : weights) {
            acc += w;
            if (u < acc) return i;
            ++i;
        }
        return static_cast<int>(weights.size()) - 1;
    }

    std::mt19937_64& engine() { return engine_; }

private:
    std::mt19937_64 engine_;
};

}  // namespace camo
