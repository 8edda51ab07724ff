#include "base/string_util.h"

#include <cctype>
#include <cstdlib>

#include "base/error.h"

namespace semsim {

std::vector<std::string> split_ws(std::string_view line) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    std::size_t j = i;
    while (j < line.size() && line[j] != ' ' && line[j] != '\t') ++j;
    if (j > i) out.emplace_back(line.substr(i, j - i));
    i = j;
  }
  return out;
}

std::string_view trim(std::string_view s) noexcept {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string to_lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

double parse_spice_number(std::string_view token) {
  if (token.empty()) throw ParseError("empty numeric token");
  std::string str(token);
  char* end = nullptr;
  const double value = std::strtod(str.c_str(), &end);
  if (end == str.c_str()) {
    throw ParseError("malformed number: '" + str + "'");
  }
  std::string suffix = to_lower(std::string(end));
  if (suffix.empty()) return value;
  if (suffix == "meg") return value * 1e6;
  if (suffix.size() == 1) {
    switch (suffix[0]) {
      case 'a': return value * 1e-18;
      case 'f': return value * 1e-15;
      case 'p': return value * 1e-12;
      case 'n': return value * 1e-9;
      case 'u': return value * 1e-6;
      case 'm': return value * 1e-3;
      case 'k': return value * 1e3;
      case 'g': return value * 1e9;
      case 't': return value * 1e12;
      default: break;
    }
  }
  throw ParseError("unknown magnitude suffix '" + suffix + "' in '" + str + "'");
}

std::string indexed_name(std::string_view prefix, std::size_t i) {
  std::string name(prefix);
  name += std::to_string(i);
  return name;
}

bool is_comment_or_blank(std::string_view line) noexcept {
  const std::string_view t = trim(line);
  if (t.empty()) return true;
  if (t[0] == '#' || t[0] == '*') return true;
  return t.size() >= 2 && t[0] == '/' && t[1] == '/';
}

}  // namespace semsim
