// Internal key encoding of the LSM layer (LevelDB/RocksDB convention):
//   user_key | 8-byte trailer = (sequence << 8) | value_type
// Ordering: user key ascending, then sequence descending, so the newest
// version of a key sorts first.

#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>

#include "common/coding.h"
#include "common/hash.h"
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

/// Byte-wise order of two user keys (the sign of Slice::compare). The
/// first eight bytes, or four of a shorter key, compare as one big-endian
/// word, so the engine's 4-byte primary keys and 8-byte int index keys
/// reach memcmp only when they are equal.
inline int CompareUserKey(const Slice& a, const Slice& b) {
  const size_t n = a.size() < b.size() ? a.size() : b.size();
  size_t done = 0;
  if (n >= 8) {
    uint64_t wa, wb;
    memcpy(&wa, a.data(), 8);
    memcpy(&wb, b.data(), 8);
    if (wa != wb) {
      return __builtin_bswap64(wa) < __builtin_bswap64(wb) ? -1 : +1;
    }
    done = 8;
  } else if (n >= 4) {
    uint32_t wa, wb;
    memcpy(&wa, a.data(), 4);
    memcpy(&wb, b.data(), 4);
    if (wa != wb) {
      return __builtin_bswap32(wa) < __builtin_bswap32(wb) ? -1 : +1;
    }
    done = 4;
  }
  if (n > done) {
    const int r = memcmp(a.data() + done, b.data() + done, n - done);
    if (r != 0) return r;
  }
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : +1;
  return 0;
}

/// Whether two user keys are equal. The engine's 4-byte primary keys and
/// 8-byte int index keys compare as one word, without a libc call.
inline bool SameUserKey(const Slice& a, const Slice& b) {
  if (a.size() != b.size()) return false;
  if (a.size() == 8) return DecodeFixed64(a.data()) == DecodeFixed64(b.data());
  if (a.size() == 4) return DecodeFixed32(a.data()) == DecodeFixed32(b.data());
  return memcmp(a.data(), b.data(), a.size()) == 0;
}

/// Total-order comparator over internal keys. Returns <0, 0, >0.
inline int CompareInternalKey(const Slice& a, const Slice& b) {
  const int r = CompareUserKey(ExtractUserKey(a), ExtractUserKey(b));
  if (r != 0) return r;
  const uint64_t pa = DecodeFixed64(a.data() + a.size() - 8);
  const uint64_t pb = DecodeFixed64(b.data() + b.size() - 8);
  // Higher sequence sorts first.
  if (pa > pb) return -1;
  if (pa < pb) return +1;
  return 0;
}

/// Byte buffer for one key, with inline room for the short keys of the
/// engine: building a lookup key or decoding a block entry into it
/// allocates only for a key longer than kInlineBytes. Not copyable: data()
/// may point into the object itself.
class KeyBuffer {
 public:
  KeyBuffer() = default;
  KeyBuffer(const KeyBuffer&) = delete;
  KeyBuffer& operator=(const KeyBuffer&) = delete;

  Slice slice() const { return Slice(data_, size_); }
  size_t size() const { return size_; }

  /// Keep the first n bytes (n <= size()).
  void Truncate(size_t n) { size_ = n; }

  /// Set to a copy of `s`.
  void Assign(const Slice& s) {
    size_ = 0;
    Append(s.data(), s.size());
  }

  void Append(const char* p, size_t n) {
    if (n > capacity_ - size_) Grow(size_ + n);
    CopyBytes(data_ + size_, p, n);
    size_ += n;
  }

  /// Set to the internal key a lookup of `user_key` at snapshot `seq`
  /// seeks to: the type byte is kValue, the largest, so the Seek lands on
  /// the newest version visible at `seq`.
  void SetLookupKey(const Slice& user_key, SequenceNumber seq) {
    Assign(user_key);
    char trailer[8];
    EncodeFixed64(trailer, PackSeqAndType(seq, ValueType::kValue));
    Append(trailer, sizeof(trailer));
  }

 private:
  static constexpr size_t kInlineBytes = 48;

  void Grow(size_t need) {
    size_t cap = capacity_ * 2;
    while (cap < need) cap *= 2;
    auto bigger = std::make_unique<char[]>(cap);
    memcpy(bigger.get(), data_, size_);
    heap_ = std::move(bigger);
    data_ = heap_.get();
    capacity_ = cap;
  }

  char inline_[kInlineBytes] = {};
  char* data_ = inline_;
  size_t size_ = 0;
  size_t capacity_ = kInlineBytes;
  std::unique_ptr<char[]> heap_;
};

/// The key of one point lookup, built once and shared by every component
/// the lookup probes: the user key, the internal key a Seek lands on (the
/// newest version visible at `seq`) and the user key's bloom hash, which is
/// computed on first use. Views `user_key`, which must outlive it.
class LookupKey {
 public:
  LookupKey(const Slice& user_key, SequenceNumber seq) : user_key_(user_key) {
    internal_key_.SetLookupKey(user_key, seq);
  }

  Slice user_key() const { return user_key_; }
  Slice internal_key() const { return internal_key_.slice(); }
  /// Hash64 of the user key, the hash every bloom filter probes with.
  uint64_t BloomHash() const {
    if (!hashed_) {
      bloom_hash_ = Hash64(user_key_);
      hashed_ = true;
    }
    return bloom_hash_;
  }

 private:
  Slice user_key_;
  KeyBuffer internal_key_;
  mutable bool hashed_ = false;
  mutable uint64_t bloom_hash_ = 0;
};

}  // namespace hybridndp::lsm
