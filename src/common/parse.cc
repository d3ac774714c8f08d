#include "common/parse.h"

#include <charconv>
#include <cmath>
#include <system_error>

namespace hybridndp::common {

namespace {

/// std::from_chars over the whole of `s`: it takes no '+' and no leading
/// space, reports overflow as an error, and ignores the C locale.
template <typename T>
bool ParseWhole(std::string_view s, T* out) {
  T v{};
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc() || ptr != end) return false;
  *out = v;
  return true;
}

}  // namespace

bool ParseUint64(std::string_view s, uint64_t* out) {
  return ParseWhole(s, out);
}

bool ParseInt64(std::string_view s, int64_t* out) {
  return ParseWhole(s, out);
}

bool ParseDouble(std::string_view s, double* out) {
  double v = 0;
  if (!ParseWhole(s, &v) || !std::isfinite(v)) return false;
  *out = v;
  return true;
}

}  // namespace hybridndp::common
