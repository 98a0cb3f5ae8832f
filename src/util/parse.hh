/**
 * @file
 * Strict decimal parsing for command-line flags and CHIRP_* variables.
 *
 * std::strtoull alone is too lenient for user input: it skips leading
 * whitespace, accepts a sign (so "-1" wraps to 2^64 - 1), and a cast
 * to a narrower type silently truncates what it returns.  Every
 * numeric option goes through parseUnsigned instead; each caller keeps
 * its own error text.
 */

#ifndef CHIRP_UTIL_PARSE_HH
#define CHIRP_UTIL_PARSE_HH

#include <cstdint>

namespace chirp
{

/**
 * Parse @p text as an unsigned decimal no larger than @p max.  Only
 * the digits 0-9 are accepted: no sign, no whitespace, no empty
 * string.  Values that overflow 64 bits or exceed @p max are
 * rejected.  Returns false (leaving @p out untouched) on any
 * rejection.
 */
bool parseUnsigned(const char *text, std::uint64_t max,
                   std::uint64_t &out);

} // namespace chirp

#endif // CHIRP_UTIL_PARSE_HH
