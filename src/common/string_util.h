#ifndef MDV_COMMON_STRING_UTIL_H_
#define MDV_COMMON_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace mdv {

/// Removes leading and trailing ASCII whitespace.
std::string_view TrimWhitespace(std::string_view s);

/// Splits `s` on every occurrence of `sep`; empty pieces are kept.
std::vector<std::string> SplitString(std::string_view s, char sep);

/// True if `s` begins with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// True if `s` ends with `suffix`.
bool EndsWith(std::string_view s, std::string_view suffix);

/// True if `haystack` contains `needle` (the rule language's `contains`).
bool Contains(std::string_view haystack, std::string_view needle);

/// Lower-cases ASCII characters.
std::string ToLowerAscii(std::string_view s);

}  // namespace mdv

#endif  // MDV_COMMON_STRING_UTIL_H_
