#pragma once
// Little-endian byte-buffer writer/reader shared by the container format
// and the streaming framing. The reader is bounds-checked and throws
// std::runtime_error on truncation — every deserializer builds on that.

#include <cstring>
#include <span>
#include <stdexcept>
#include <vector>

#include "util/types.hpp"

namespace parhuff {

class ByteWriter {
 public:
  template <typename T>
  void put(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::size_t at = buf_.size();
    buf_.resize(at + sizeof(T));
    std::memcpy(buf_.data() + at, &v, sizeof(T));
  }

  template <typename T>
  void put_array(std::span<const T> v) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (v.empty()) return;
    const std::size_t at = buf_.size();
    buf_.resize(at + v.size() * sizeof(T));
    std::memcpy(buf_.data() + at, v.data(), v.size() * sizeof(T));
  }

  void put_bytes(std::span<const u8> v) { put_array(v); }

  [[nodiscard]] std::size_t size() const { return buf_.size(); }
  std::vector<u8> take() { return std::move(buf_); }

 private:
  std::vector<u8> buf_;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const u8> bytes) : bytes_(bytes) {}

  template <typename T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    T v;
    need(sizeof(T));
    std::memcpy(&v, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  template <typename T>
  std::vector<T> get_array(std::size_t n) {
    static_assert(std::is_trivially_copyable_v<T>);
    need(n, sizeof(T));
    std::vector<T> v(n);
    // An empty vector's data() may be null, which memcpy must not see.
    if (n != 0) std::memcpy(v.data(), bytes_.data() + pos_, n * sizeof(T));
    pos_ += n * sizeof(T);
    return v;
  }

  /// View of the next n bytes without copying; advances the cursor.
  std::span<const u8> get_view(std::size_t n) {
    need(n);
    auto v = bytes_.subspan(pos_, n);
    pos_ += n;
    return v;
  }

  [[nodiscard]] std::size_t position() const { return pos_; }
  [[nodiscard]] std::size_t remaining() const { return bytes_.size() - pos_; }
  [[nodiscard]] bool done() const { return pos_ == bytes_.size(); }

 private:
  /// Throws unless `count` items of `width` bytes remain. Divides rather
  /// than multiplies, so a forged count cannot wrap the check.
  void need(std::size_t count, std::size_t width = 1) {
    if (count > remaining() / width) {
      throw std::runtime_error("parhuff container: truncated input");
    }
  }
  std::span<const u8> bytes_;
  std::size_t pos_ = 0;
};

}  // namespace parhuff
