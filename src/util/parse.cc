#include "util/parse.hh"

#include <cerrno>
#include <cstdlib>

namespace chirp
{

bool
parseUnsigned(const char *text, std::uint64_t max, std::uint64_t &out)
{
    if (text == nullptr || *text == '\0')
        return false;
    // strtoull would skip whitespace and accept a sign; insist on
    // digits before handing it the rest.
    for (const char *c = text; *c != '\0'; ++c) {
        if (*c < '0' || *c > '9')
            return false;
    }
    errno = 0;
    const unsigned long long value = std::strtoull(text, nullptr, 10);
    if (errno == ERANGE || value > max)
        return false;
    out = value;
    return true;
}

} // namespace chirp
