// Little-endian fixed-width and varint encodings (LevelDB-compatible style),
// used by block, SST, and row codecs.

#pragma once

#include <cstdint>
#include <cstring>
#include <string>

#include "common/slice.h"

namespace hybridndp {

inline void EncodeFixed32(char* dst, uint32_t v) { memcpy(dst, &v, 4); }
inline void EncodeFixed64(char* dst, uint64_t v) { memcpy(dst, &v, 8); }

inline uint32_t DecodeFixed32(const char* src) {
  uint32_t v;
  memcpy(&v, src, 4);
  return v;
}
inline uint64_t DecodeFixed64(const char* src) {
  uint64_t v;
  memcpy(&v, src, 8);
  return v;
}

/// memcpy of `n` bytes between non-overlapping ranges, inline for the short
/// keys and fields of the engine: up to 32 bytes take a few overlapping
/// word moves instead of a libc call.
inline void CopyBytes(char* dst, const char* src, size_t n) {
  if (n >= 8 && n <= 16) {
    uint64_t head, tail;
    memcpy(&head, src, 8);
    memcpy(&tail, src + n - 8, 8);
    memcpy(dst, &head, 8);
    memcpy(dst + n - 8, &tail, 8);
  } else if (n >= 4 && n < 8) {
    uint32_t head, tail;
    memcpy(&head, src, 4);
    memcpy(&tail, src + n - 4, 4);
    memcpy(dst, &head, 4);
    memcpy(dst + n - 4, &tail, 4);
  } else if (n < 4) {
    for (size_t i = 0; i < n; ++i) dst[i] = src[i];
  } else if (n <= 32) {
    uint64_t w[4];
    memcpy(&w[0], src, 16);
    memcpy(&w[2], src + n - 16, 16);
    memcpy(dst, &w[0], 16);
    memcpy(dst + n - 16, &w[2], 16);
  } else {
    memcpy(dst, src, n);
  }
}

inline void PutFixed32(std::string* dst, uint32_t v) {
  char buf[4];
  EncodeFixed32(buf, v);
  dst->append(buf, 4);
}
inline void PutFixed64(std::string* dst, uint64_t v) {
  char buf[8];
  EncodeFixed64(buf, v);
  dst->append(buf, 8);
}

/// Write the LEB128 varint32 of v at dst (room for 5 bytes); returns the
/// byte after it. Inline: MemTable::Add and BlockBuilder::Add encode their
/// headers in place with it.
inline char* EncodeVarint32(char* dst, uint32_t v) {
  auto* p = reinterpret_cast<unsigned char*>(dst);
  while (v >= 0x80) {
    *p++ = static_cast<unsigned char>(v | 0x80);
    v >>= 7;
  }
  *p++ = static_cast<unsigned char>(v);
  return reinterpret_cast<char*>(p);
}

/// Append a LEB128 varint32 to dst.
inline void PutVarint32(std::string* dst, uint32_t v) {
  char buf[5];
  dst->append(buf, EncodeVarint32(buf, v) - buf);
}
/// Append a LEB128 varint64 to dst.
void PutVarint64(std::string* dst, uint64_t v);

/// Out-of-line continuation for multi-byte varints (see GetVarint32Ptr).
const char* GetVarint32PtrFallback(const char* p, const char* limit,
                                   uint32_t* value);
const char* GetVarint64PtrFallback(const char* p, const char* limit,
                                   uint64_t* value);

/// Parse a varint32 from [p, limit); returns the byte after the varint or
/// nullptr on malformed input. The single-byte case (values < 128 — almost
/// every shared-prefix/length varint in a data block) decodes inline; the
/// block iterator calls this several times per record.
inline const char* GetVarint32Ptr(const char* p, const char* limit,
                                  uint32_t* value) {
  if (p < limit) {
    const uint32_t result = static_cast<unsigned char>(*p);
    if ((result & 0x80) == 0) {
      *value = result;
      return p + 1;
    }
  }
  return GetVarint32PtrFallback(p, limit, value);
}
inline const char* GetVarint64Ptr(const char* p, const char* limit,
                                  uint64_t* value) {
  if (p < limit) {
    const uint64_t result = static_cast<unsigned char>(*p);
    if ((result & 0x80) == 0) {
      *value = result;
      return p + 1;
    }
  }
  return GetVarint64PtrFallback(p, limit, value);
}

/// Consume a varint32 from the front of *input. Returns false on corruption.
bool GetVarint32(Slice* input, uint32_t* value);
bool GetVarint64(Slice* input, uint64_t* value);

/// Append varint-length-prefixed bytes.
void PutLengthPrefixedSlice(std::string* dst, const Slice& value);
/// Consume varint-length-prefixed bytes from the front of *input.
bool GetLengthPrefixedSlice(Slice* input, Slice* result);

/// Bytes a varint32 encoding of v occupies.
int VarintLength(uint64_t v);

/// Encode a signed 32-bit integer so unsigned byte-order equals numeric order
/// (flips the sign bit); used for order-preserving integer keys.
inline uint32_t EncodeOrderedInt32(int32_t v) {
  return static_cast<uint32_t>(v) ^ 0x80000000u;
}
inline int32_t DecodeOrderedInt32(uint32_t v) {
  return static_cast<int32_t>(v ^ 0x80000000u);
}

/// Write the 4-byte big-endian order-preserving encoding of v at dst.
inline void EncodeOrderedInt32To(char* dst, int32_t v) {
  const uint32_t u = EncodeOrderedInt32(v);
  dst[0] = static_cast<char>((u >> 24) & 0xff);
  dst[1] = static_cast<char>((u >> 16) & 0xff);
  dst[2] = static_cast<char>((u >> 8) & 0xff);
  dst[3] = static_cast<char>(u & 0xff);
}
/// Append a 4-byte big-endian order-preserving encoding of v.
inline void PutOrderedInt32(std::string* dst, int32_t v) {
  char buf[4];
  EncodeOrderedInt32To(buf, v);
  dst->append(buf, 4);
}
/// Decode a 4-byte big-endian order-preserving int32.
int32_t GetOrderedInt32(const char* src);

}  // namespace hybridndp
