#include "common/parse.hh"

#include <cmath>

#include "common/logging.hh"

namespace hnoc
{

int
parseInt(const std::string &what, const std::string &text)
{
    int v = 0;
    if (!parseWhole(text, v))
        fatal("%s: '%s' is not an int", what.c_str(), text.c_str());
    return v;
}

std::uint64_t
parseU64(const std::string &what, const std::string &text)
{
    std::uint64_t v = 0;
    if (!parseWhole(text, v))
        fatal("%s: '%s' is not an unsigned 64-bit integer", what.c_str(),
              text.c_str());
    return v;
}

double
parseDouble(const std::string &what, const std::string &text)
{
    double v = 0.0;
    if (!parseWhole(text, v) || !std::isfinite(v))
        fatal("%s: '%s' is not a finite number", what.c_str(),
              text.c_str());
    return v;
}

} // namespace hnoc
