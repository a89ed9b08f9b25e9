// Checked numeric parsing for command-line options.
//
// Every numeric option of aectool, aecc and aecd goes through these two
// functions. The whole text must be one base-10 number inside [min, max]:
// no sign on the unsigned form, no blanks, no trailing characters, no
// wrap-around on overflow. Anything else throws CheckError naming the
// option, which the CLIs report as an error and a non-zero exit.
#pragma once

#include <cstdint>
#include <string_view>

namespace aec {

/// `text` as an unsigned integer in [min, max].
std::uint64_t parse_uint_option(std::string_view option,
                                std::string_view text, std::uint64_t min,
                                std::uint64_t max);

/// `text` as a finite decimal number in [min, max] (NaN never passes).
double parse_double_option(std::string_view option, std::string_view text,
                           double min, double max);

}  // namespace aec
