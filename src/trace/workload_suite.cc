#include "trace/workload_suite.hh"

#include <cmath>
#include <limits>
#include <string>
#include <cstdio>
#include <cstdlib>

#include "util/hashing.hh"
#include "util/logging.hh"
#include "util/parse.hh"
#include "util/random.hh"

namespace chirp
{

namespace
{

std::uint64_t
envU64(const char *name, std::uint64_t fallback)
{
    const char *value = std::getenv(name);
    if (!value || !*value)
        return fallback;
    std::uint64_t parsed = 0;
    if (!parseUnsigned(value, std::numeric_limits<std::uint64_t>::max(),
                       parsed))
        chirp_fatal("environment variable ", name, "='", value,
                    "' is not a number");
    return parsed;
}

} // namespace

SuiteOptions
suiteOptionsFromEnv()
{
    return suiteOptionsFromEnv(SuiteOptions{}.size);
}

SuiteOptions
suiteOptionsFromEnv(std::size_t default_size)
{
    SuiteOptions options;
    options.size = static_cast<std::size_t>(
        envU64("CHIRP_SUITE_SIZE", default_size));
    options.traceLength = envU64("CHIRP_TRACE_LEN", options.traceLength);
    options.baseSeed = envU64("CHIRP_SEED", options.baseSeed);
    if (options.size == 0)
        chirp_fatal("suite size must be nonzero");
    if (options.traceLength < 1000)
        chirp_fatal("trace length must be at least 1000 instructions");
    if (const char *only = std::getenv("CHIRP_CATEGORY");
        only && *only) {
        options.onlyCategory = -1;
        const auto ncat = static_cast<unsigned>(Category::NumCategories);
        for (unsigned c = 0; c < ncat; ++c) {
            if (std::string(categoryName(static_cast<Category>(c))) ==
                only) {
                options.onlyCategory = static_cast<int>(c);
            }
        }
        if (options.onlyCategory < 0)
            chirp_fatal("CHIRP_CATEGORY='", only,
                        "' is not a category name");
    }
    return options;
}

std::vector<WorkloadConfig>
makeSuite(const SuiteOptions &options)
{
    std::vector<WorkloadConfig> suite;
    suite.reserve(options.size);
    const auto ncat = static_cast<unsigned>(Category::NumCategories);
    for (std::size_t i = 0; i < options.size; ++i) {
        WorkloadConfig config;
        config.category = options.onlyCategory >= 0
                              ? static_cast<Category>(options.onlyCategory)
                              : static_cast<Category>(i % ncat);
        config.seed = mix64(options.baseSeed + i * 7919);
        config.length = options.traceLength;
        // Footprint scale spreads log-uniformly over ~[0.45, 1.8] so
        // the suite spans comfortable-fit to heavy-pressure workloads
        // the way a real trace set does.
        Rng scale_rng(mix64(config.seed ^ 0x5ca1e));
        config.scale = 0.45 * std::pow(2.0, 2.0 * scale_rng.uniform());
        char name[64];
        std::snprintf(name, sizeof(name), "%s_%03zu",
                      categoryName(config.category), i);
        config.name = name;
        suite.push_back(std::move(config));
    }
    return suite;
}

} // namespace chirp
