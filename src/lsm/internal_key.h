// Internal key encoding of the LSM layer (LevelDB/RocksDB convention):
//   user_key | 8-byte trailer = (sequence << 8) | value_type
// Ordering: user key ascending, then sequence descending, so the newest
// version of a key sorts first.

#pragma once

#include <cstdint>
#include <string>

#include "common/coding.h"
#include "common/slice.h"

namespace hybridndp::lsm {

using SequenceNumber = uint64_t;

constexpr SequenceNumber kMaxSequenceNumber = (1ull << 56) - 1;

enum class ValueType : uint8_t {
  kDeletion = 0,
  kValue = 1,
};

inline uint64_t PackSeqAndType(SequenceNumber seq, ValueType t) {
  return (seq << 8) | static_cast<uint8_t>(t);
}

/// Append the internal-key encoding of (user_key, seq, type) to *dst.
inline void AppendInternalKey(std::string* dst, const Slice& user_key,
                              SequenceNumber seq, ValueType t) {
  dst->append(user_key.data(), user_key.size());
  PutFixed64(dst, PackSeqAndType(seq, t));
}

/// Decoded view of an internal key.
struct ParsedInternalKey {
  Slice user_key;
  SequenceNumber sequence = 0;
  ValueType type = ValueType::kValue;
};

/// Split an internal key into its parts; false if too short or if the type
/// byte is neither kDeletion nor kValue.
inline bool ParseInternalKey(const Slice& ikey, ParsedInternalKey* out) {
  if (ikey.size() < 8) return false;
  const uint64_t packed = DecodeFixed64(ikey.data() + ikey.size() - 8);
  const auto type = static_cast<uint8_t>(packed & 0xff);
  if (type > static_cast<uint8_t>(ValueType::kValue)) return false;
  out->user_key = Slice(ikey.data(), ikey.size() - 8);
  out->sequence = packed >> 8;
  out->type = static_cast<ValueType>(type);
  return true;
}

inline Slice ExtractUserKey(const Slice& ikey) {
  return Slice(ikey.data(), ikey.size() - 8);
}

/// Total-order comparator over internal keys. Returns <0, 0, >0.
inline int CompareInternalKey(const Slice& a, const Slice& b) {
  const Slice ua = ExtractUserKey(a);
  const Slice ub = ExtractUserKey(b);
  int r = ua.compare(ub);
  if (r != 0) return r;
  const uint64_t pa = DecodeFixed64(a.data() + a.size() - 8);
  const uint64_t pb = DecodeFixed64(b.data() + b.size() - 8);
  // Higher sequence sorts first.
  if (pa > pb) return -1;
  if (pa < pb) return +1;
  return 0;
}

/// An internal key used as a lookup target: user_key with max sequence, so a
/// Seek lands on the newest visible version.
inline std::string MakeLookupKey(const Slice& user_key, SequenceNumber seq) {
  std::string k;
  AppendInternalKey(&k, user_key, seq, ValueType::kValue);
  return k;
}

}  // namespace hybridndp::lsm
