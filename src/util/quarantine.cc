#include "util/quarantine.hh"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <mutex>

#include "util/logging.hh"
#include "util/parse.hh"

namespace chirp
{
namespace
{

std::mutex registryMutex;
std::vector<QuarantinedArtifact> registry;

/**
 * Drop older artifacts sharing @p sample's directory and suffix so at
 * most quarantineKeepCount() remain (newest by mtime are kept).
 */
void
pruneSiblings(const std::filesystem::path &sample)
{
    namespace fs = std::filesystem;
    const std::size_t keep = quarantineKeepCount();
    const std::string suffix = sample.extension().string();
    if (suffix.empty())
        return;
    std::error_code ec;
    std::vector<std::pair<fs::file_time_type, fs::path>> siblings;
    for (const auto &entry :
         fs::directory_iterator(sample.parent_path(), ec)) {
        if (ec)
            return;
        if (!entry.is_regular_file(ec) ||
            entry.path().extension() != suffix)
            continue;
        const auto mtime = entry.last_write_time(ec);
        if (!ec)
            siblings.emplace_back(mtime, entry.path());
    }
    if (siblings.size() <= keep)
        return;
    std::sort(siblings.begin(), siblings.end(),
              [](const auto &a, const auto &b) { return a.first > b.first; });
    for (std::size_t i = keep; i < siblings.size(); ++i) {
        fs::remove(siblings[i].second, ec);
        if (!ec) {
            chirp_inform("quarantine: pruned old artifact '",
                         siblings[i].second.string(), "'");
        }
    }
}

} // namespace

std::size_t
quarantineKeepCount()
{
    const char *value = std::getenv("CHIRP_QUARANTINE_KEEP");
    if (!value || !*value)
        return 3;
    std::uint64_t parsed = 0;
    if (!parseUnsigned(value, std::numeric_limits<std::size_t>::max(),
                       parsed))
        chirp_fatal("CHIRP_QUARANTINE_KEEP must be a non-negative "
                    "integer, got '", value, "'");
    return static_cast<std::size_t>(parsed);
}

void
noteQuarantined(const std::string &path, const std::string &reason)
{
    {
        std::lock_guard<std::mutex> lock(registryMutex);
        registry.push_back({path, reason});
    }
    pruneSiblings(std::filesystem::path(path));
}

std::vector<QuarantinedArtifact>
quarantinedArtifacts()
{
    std::lock_guard<std::mutex> lock(registryMutex);
    return registry;
}

std::size_t
quarantinedArtifactCount()
{
    std::lock_guard<std::mutex> lock(registryMutex);
    return registry.size();
}

std::string
quarantineSummaryLine()
{
    const auto artifacts = quarantinedArtifacts();
    if (artifacts.empty())
        return "";
    std::string line = detail::concat("quarantined ", artifacts.size(),
                                      artifacts.size() == 1
                                          ? " artifact: "
                                          : " artifacts: ");
    constexpr std::size_t kMaxListed = 8;
    for (std::size_t i = 0; i < artifacts.size() && i < kMaxListed; ++i) {
        if (i > 0)
            line += ", ";
        line += std::filesystem::path(artifacts[i].path)
                    .filename()
                    .string();
    }
    if (artifacts.size() > kMaxListed)
        line += detail::concat(", ... (", artifacts.size() - kMaxListed,
                               " more)");
    return line;
}

void
resetQuarantineLog()
{
    std::lock_guard<std::mutex> lock(registryMutex);
    registry.clear();
}

} // namespace chirp
