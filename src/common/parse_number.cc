#include "common/parse_number.h"

#include <charconv>
#include <sstream>
#include <system_error>

#include "common/check.h"

namespace aec {

namespace {

template <typename T>
[[noreturn]] void reject(std::string_view option, std::string_view text,
                         const char* kind, T min, T max) {
  std::ostringstream os;
  os << option << " wants " << kind << " in [" << min << ", " << max
     << "], got '" << text << "'";
  throw CheckError(os.str());
}

/// True when from_chars consumed all of `text` without error.
template <typename T>
bool parse_whole(std::string_view text, T& value) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  return ec == std::errc() && ptr == end;
}

}  // namespace

std::uint64_t parse_uint_option(std::string_view option,
                                std::string_view text, std::uint64_t min,
                                std::uint64_t max) {
  std::uint64_t value = 0;
  if (!parse_whole(text, value) || value < min || value > max)
    reject(option, text, "an integer", min, max);
  return value;
}

double parse_double_option(std::string_view option, std::string_view text,
                           double min, double max) {
  double value = 0;
  if (!parse_whole(text, value) || !(value >= min && value <= max))
    reject(option, text, "a number", min, max);
  return value;
}

}  // namespace aec
