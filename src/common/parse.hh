/**
 * @file
 * Strict numeric parsing for user input: config files, command-line
 * flags and environment variables share one set of rules. A value
 * must be the whole text (no leading whitespace, no '+', no trailing
 * characters) and in range for its type; anything else is a fatal()
 * that names where the value came from, so `--rate abc` stops the run
 * instead of silently simulating rate 0.
 */

#ifndef HNOC_COMMON_PARSE_HH
#define HNOC_COMMON_PARSE_HH

#include <charconv>
#include <cstdint>
#include <string>
#include <string_view>

namespace hnoc
{

/** Parse all of @p text as a T: no trailing characters, in range. */
template <typename T>
bool
parseWhole(std::string_view text, T &out)
{
    const char *end = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(text.data(), end, out);
    return ec == std::errc() && ptr == end;
}

/**
 * @name Parse or fail
 * Parse @p text, or fatal() with "<what>: '<text>' is not ...", where
 * @p what names the source (a flag, an environment variable, a
 * config key).
 */
///@{
int parseInt(const std::string &what, const std::string &text);
std::uint64_t parseU64(const std::string &what, const std::string &text);
/** Finite doubles only: "nan", "inf" and overflow are rejected. */
double parseDouble(const std::string &what, const std::string &text);
///@}

} // namespace hnoc

#endif // HNOC_COMMON_PARSE_HH
