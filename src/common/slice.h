// Non-owning byte-range view, the universal key/value currency of the LSM
// layer (mirrors rocksdb::Slice).

#pragma once

#include <cassert>
#include <cstring>
#include <string>
#include <string_view>

namespace hybridndp {

/// A pointer + length view over externally owned bytes.
class Slice {
 public:
  Slice() : data_(""), size_(0) {}
  Slice(const char* data, size_t size) : data_(data), size_(size) {}
  // NOLINTNEXTLINE(google-explicit-constructor)
  Slice(const std::string& s) : data_(s.data()), size_(s.size()) {}
  // NOLINTNEXTLINE(google-explicit-constructor)
  Slice(const char* cstr) : data_(cstr), size_(strlen(cstr)) {}
  // NOLINTNEXTLINE(google-explicit-constructor)
  Slice(std::string_view sv) : data_(sv.data()), size_(sv.size()) {}

  const char* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  char operator[](size_t i) const {
    assert(i < size_);
    return data_[i];
  }

  void clear() {
    data_ = "";
    size_ = 0;
  }

  /// Drop the first n bytes.
  void remove_prefix(size_t n) {
    assert(n <= size_);
    data_ += n;
    size_ -= n;
  }

  std::string ToString() const { return std::string(data_, size_); }

  /// Three-way lexicographic byte comparison: <0, 0, >0.
  int compare(const Slice& other) const {
    const size_t min_len = size_ < other.size_ ? size_ : other.size_;
    int r = memcmp(data_, other.data_, min_len);
    if (r == 0) {
      if (size_ < other.size_) return -1;
      if (size_ > other.size_) return +1;
    }
    return r;
  }

  bool starts_with(const Slice& prefix) const {
    return size_ >= prefix.size_ &&
           memcmp(data_, prefix.data_, prefix.size_) == 0;
  }

 private:
  const char* data_;
  size_t size_;
};

inline bool operator==(const Slice& a, const Slice& b) {
  return a.size() == b.size() && memcmp(a.data(), b.data(), a.size()) == 0;
}
inline bool operator!=(const Slice& a, const Slice& b) { return !(a == b); }
inline bool operator<(const Slice& a, const Slice& b) {
  return a.compare(b) < 0;
}

}  // namespace hybridndp
