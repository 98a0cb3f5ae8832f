#include "util/random.hh"

#include <cmath>

#include "util/logging.hh"

namespace chirp
{

void
Rng::belowZero()
{
    chirp_panic("Rng::below(0): the range [0, 0) is empty");
}

Rng::Zipf::Zipf(std::size_t n, double s)
{
    assert(n > 0 && n <= UINT32_MAX);
    cdf_.resize(n);
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
        cdf_[i] = sum;
    }
    for (auto &v : cdf_)
        v /= sum;

    // guide_[b] = lower_bound(cdf_, b / kGuideBuckets), found in one
    // merge pass because both the edges and the CDF ascend.
    guide_.resize(kGuideBuckets);
    std::size_t rank = 0;
    for (std::size_t b = 0; b < kGuideBuckets; ++b) {
        const double edge =
            static_cast<double>(b) / static_cast<double>(kGuideBuckets);
        while (rank < n && cdf_[rank] < edge)
            ++rank;
        guide_[b] = static_cast<std::uint32_t>(rank);
    }
}

} // namespace chirp
