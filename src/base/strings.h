#ifndef ONTOREW_BASE_STRINGS_H_
#define ONTOREW_BASE_STRINGS_H_

#include <charconv>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>

// Small string helpers (StrCat / StrJoin) so the rest of the codebase does
// not juggle ostringstream by hand. The output is exactly what streaming
// each argument into a default std::ostringstream would print, but strings,
// characters, bools and integers are appended directly (integers through
// std::to_chars): canonical labeling and cache keys call StrCat per term,
// and a stream per call dominated their cost. Every other type (floating
// point, enums, pointers, anything with its own operator<<) still goes
// through a stream.

namespace ontorew {

namespace internal {

template <typename T>
inline constexpr bool kIsCharType =
    std::is_same_v<T, char> || std::is_same_v<T, signed char> ||
    std::is_same_v<T, unsigned char>;

// Character types that std::ostream prints as characters or refuses;
// never formatted as integers here.
template <typename T>
inline constexpr bool kIsWideCharType =
    std::is_same_v<T, wchar_t> || std::is_same_v<T, char8_t> ||
    std::is_same_v<T, char16_t> || std::is_same_v<T, char32_t>;

template <typename T>
void StrAppendTo(std::string* out, const T& value) {
  using D = std::decay_t<T>;
  if constexpr (std::is_same_v<D, std::string> ||
                std::is_same_v<D, std::string_view> ||
                (std::is_array_v<T> &&
                 std::is_same_v<std::remove_extent_t<T>, char>)) {
    out->append(value);
  } else if constexpr (std::is_same_v<D, const char*> ||
                       std::is_same_v<D, char*>) {
    if (value != nullptr) out->append(value);
  } else if constexpr (kIsCharType<D>) {
    out->push_back(static_cast<char>(value));
  } else if constexpr (std::is_same_v<D, bool>) {
    out->push_back(value ? '1' : '0');
  } else if constexpr (std::is_integral_v<D> && !kIsWideCharType<D>) {
    char buffer[std::numeric_limits<D>::digits10 + 3];
    const std::to_chars_result written =
        std::to_chars(buffer, buffer + sizeof(buffer), value);
    out->append(buffer, written.ptr);
  } else {
    std::ostringstream os;
    os << value;
    out->append(std::move(os).str());
  }
}

}  // namespace internal

// Concatenates the streamed representations of the arguments.
template <typename... Args>
std::string StrCat(const Args&... args) {
  std::string out;
  (internal::StrAppendTo(&out, args), ...);
  return out;
}

// Appends the arguments to `*out`, each printed as StrCat prints it,
// without building an intermediate string.
template <typename... Args>
void StrAppend(std::string* out, const Args&... args) {
  (internal::StrAppendTo(out, args), ...);
}

// Joins the elements of a range with a separator, each element printed as
// StrCat prints it.
template <typename Range>
std::string StrJoin(const Range& range, std::string_view separator) {
  std::string out;
  bool first = true;
  for (const auto& element : range) {
    if (!first) out.append(separator);
    first = false;
    internal::StrAppendTo(&out, element);
  }
  return out;
}

// Joins with a custom element formatter: formatter(os, element).
template <typename Range, typename Formatter>
std::string StrJoin(const Range& range, std::string_view separator,
                    Formatter&& formatter) {
  std::ostringstream os;
  bool first = true;
  for (const auto& element : range) {
    if (!first) os << separator;
    first = false;
    formatter(os, element);
  }
  return os.str();
}

}  // namespace ontorew

#endif  // ONTOREW_BASE_STRINGS_H_
