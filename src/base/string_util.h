// Small string helpers used by the netlist parsers.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace semsim {

/// Splits on any run of spaces/tabs; never returns empty tokens.
std::vector<std::string> split_ws(std::string_view line);

/// Strips leading/trailing whitespace.
std::string_view trim(std::string_view s) noexcept;

/// Lower-cases ASCII in place and returns the string.
std::string to_lower(std::string s);

/// Parses a double, accepting SPICE-style magnitude suffixes
/// (f, p, n, u, m, k, meg, g, t — case-insensitive), e.g. "1.5a" is NOT a
/// suffix (ambiguous with 'atto' which SPICE lacks); we additionally accept
/// "a" = 1e-18 because attofarads are the natural unit of this domain.
/// Throws ParseError on malformed input.
double parse_spice_number(std::string_view token);

/// `prefix` followed by the decimal `i` ("w12"). Built by appending:
/// GCC 12 flags `"w" + std::to_string(i)` with a false -Wrestrict warning.
std::string indexed_name(std::string_view prefix, std::size_t i);

/// True if `line` is blank or a comment (starts with '#', '*' or "//").
bool is_comment_or_blank(std::string_view line) noexcept;

}  // namespace semsim
