// String helpers for the HTL frontend and report formatting.
#ifndef LRT_SUPPORT_STRINGS_H_
#define LRT_SUPPORT_STRINGS_H_

#include <string>
#include <string_view>
#include <vector>

namespace lrt {

/// Splits on a single character; empty fields are preserved.
[[nodiscard]] std::vector<std::string_view> split(std::string_view text,
                                                  char sep);

/// Removes leading/trailing ASCII whitespace.
[[nodiscard]] std::string_view trim(std::string_view text);

/// True iff `text` starts with `prefix`.
[[nodiscard]] bool starts_with(std::string_view text, std::string_view prefix);

/// Joins items with a separator.
[[nodiscard]] std::string join(const std::vector<std::string>& items,
                               std::string_view sep);

/// True iff `name` is a valid lrt identifier: [A-Za-z_][A-Za-z0-9_]*.
[[nodiscard]] bool is_identifier(std::string_view name);

/// Formats a double with enough digits to round-trip: the spelling of
/// printf's %.12g, produced by std::to_chars.
[[nodiscard]] std::string format_double(double value);
/// Appends format_double(value) to `out` without a temporary string.
void append_double(std::string& out, double value);

}  // namespace lrt

#endif  // LRT_SUPPORT_STRINGS_H_
