#pragma once
// Little-endian byte-buffer writer/reader shared by the container format
// and the streaming framing. Sections append to the caller's ByteWriter
// and parse at the caller's ByteReader cursor, so each byte is written
// once. The reader is bounds-checked and throws std::runtime_error on
// truncation — every deserializer builds on that.

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
    make_room(sizeof(T));
    buf_.resize(at + sizeof(T));
    std::memcpy(buf_.data() + at, &v, sizeof(T));
  }

  /// Copies straight in, with no zero-fill of bytes overwritten at once.
  template <typename T>
  void put_array(std::span<const T> v) {
    static_assert(std::is_trivially_copyable_v<T>);
    make_room(v.size_bytes());
    const auto* b = reinterpret_cast<const u8*>(v.data());
    buf_.insert(buf_.end(), b, b + v.size_bytes());
  }

  /// Overwrites the T already written at offset `at` (a length slot whose
  /// value is known only once its payload is in).
  template <typename T>
  void patch(std::size_t at, const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::memcpy(buf_.data() + at, &v, sizeof(T));
  }

  /// The bytes written since offset `at`; valid until the next append.
  [[nodiscard]] std::span<const u8> since(std::size_t at) const {
    return std::span<const u8>(buf_).subspan(at);
  }

  [[nodiscard]] std::size_t size() const { return buf_.size(); }
  std::vector<u8> take() { return std::move(buf_); }

 private:
  // Room for as much again as is needed: the small fields after a large
  // payload array then do not move the whole buffer once more.
  void make_room(std::size_t n) {
    if (n > buf_.capacity() - buf_.size()) {
      buf_.reserve(2 * (buf_.size() + n));
    }
  }

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

  /// The bytes read since offset `at`.
  [[nodiscard]] std::span<const u8> since(std::size_t at) const {
    return bytes_.subspan(at, pos_ - at);
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
