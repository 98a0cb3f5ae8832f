#include "util/progress.hh"

#include <algorithm>
#include <cstdio>

#include <unistd.h>

#include "util/logging.hh"

namespace chirp
{

ProgressReporter::ProgressReporter(std::string label, std::size_t total,
                                   Mode mode)
    : label_(std::move(label)), total_(total), mode_(mode),
      stride_(std::max<std::size_t>(1, total / 10))
{
    if (mode_ == Mode::Auto) {
        mode_ = ::isatty(::fileno(stderr)) ? Mode::Tty : Mode::Lines;
    }
}

ProgressReporter::~ProgressReporter()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (!label_.empty() && done_ > 0 && mode_ == Mode::Tty)
        std::fprintf(stderr, "\n");
}

void
ProgressReporter::tick()
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++done_;
    if (label_.empty())
        return;
    if (mode_ == Mode::Tty) {
        std::fprintf(stderr, "\r  [%s] %zu/%zu workloads", label_.c_str(),
                     done_, total_);
        std::fflush(stderr);
        return;
    }
    // Line mode: one complete line every `stride_` ticks and one at
    // the end, so a full batch logs ~11 lines however large it is.
    if (done_ % stride_ == 0 || done_ == total_) {
        char line[160];
        std::snprintf(line, sizeof(line), "  [%s] %zu/%zu workloads",
                      label_.c_str(), done_, total_);
        detail::emitLine(line);
    }
}

std::size_t
ProgressReporter::done() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return done_;
}

} // namespace chirp
