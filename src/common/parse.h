// Strict number parsing for settings that come from outside the program:
// environment variables, command-line arguments and the HNDP_FAULTS grammar.
// Every reader of a setting parses through here, so each one accepts and
// rejects exactly the same text.
//
// Each function parses the whole of `s` or fails and leaves `*out` as it
// was. A leading '+' or space, trailing text, the empty string and a value
// out of the type's range all fail; nothing is silently read as 0.

#pragma once

#include <cstdint>
#include <string_view>

namespace hybridndp::common {

/// Decimal digits only: no sign, no spaces; at most 2^64 - 1.
bool ParseUint64(std::string_view s, uint64_t* out);

/// Decimal digits with an optional leading '-'.
bool ParseInt64(std::string_view s, int64_t* out);

/// A finite decimal number: an optional '-', digits with an optional
/// fraction, and an optional exponent ("0.25", "-3", "1e-3"). Infinities,
/// NaNs, hex floats and values beyond the double range fail.
bool ParseDouble(std::string_view s, double* out);

}  // namespace hybridndp::common
