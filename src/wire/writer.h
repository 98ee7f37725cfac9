// Binary wire format: Writer.
//
// This is the reproduction's stand-in for Java serialization (DESIGN.md,
// substitution 3): a compact, portable, little-endian format with varint
// compression for counts and ids. Everything that crosses a site boundary —
// RMI arguments, replica state, proxy descriptors — goes through this module,
// so the size-dependent costs the paper measures (transfer time, serialization
// time) are real here too.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <string_view>

#include "common/bytes.h"

namespace obiwan::wire {

class Writer {
 public:
  Writer() = default;
  explicit Writer(std::size_t reserve) { buf_.reserve(reserve); }

  void U8(std::uint8_t v) { buf_.push_back(v); }

  void U16(std::uint16_t v) { AppendLE(v); }
  void U32(std::uint32_t v) { AppendLE(v); }
  void U64(std::uint64_t v) { AppendLE(v); }

  void Bool(bool v) { U8(v ? 1 : 0); }

  // LEB128 unsigned varint.
  void Varint(std::uint64_t v) {
    while (v >= 0x80) {
      buf_.push_back(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    buf_.push_back(static_cast<std::uint8_t>(v));
  }

  // Zigzag-encoded signed varint.
  void Svarint(std::int64_t v) {
    Varint((static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63));
  }

  void F64(double v) { U64(std::bit_cast<std::uint64_t>(v)); }
  void F32(float v) { U32(std::bit_cast<std::uint32_t>(v)); }

  // Length-prefixed UTF-8 string.
  void String(std::string_view s) {
    Varint(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  // Length-prefixed opaque bytes.
  void Blob(BytesView b) {
    Varint(b.size());
    buf_.insert(buf_.end(), b.begin(), b.end());
  }

  // Raw bytes, no length prefix (caller manages framing).
  void Raw(BytesView b) { buf_.insert(buf_.end(), b.begin(), b.end()); }

  // A length-prefixed blob whose body is written in place, straight into
  // this buffer: BeginBlob reserves the prefix of a body of about `expected`
  // bytes, the caller appends the body, and EndBlob fills the prefix in. The
  // body moves only when its length needs a prefix of another size. The
  // bytes are the same as Blob()'s.
  struct BlobMark {
    std::size_t at;      // offset of the prefix
    std::size_t prefix;  // bytes reserved for it
  };
  BlobMark BeginBlob(std::size_t expected = 0) {
    BlobMark mark{buf_.size(), VarintSize(expected)};
    buf_.resize(buf_.size() + mark.prefix);
    return mark;
  }
  // Returns the body's length.
  std::size_t EndBlob(BlobMark mark) {
    const auto body = static_cast<std::ptrdiff_t>(mark.at + mark.prefix);
    const std::size_t n = buf_.size() - static_cast<std::size_t>(body);
    const std::size_t prefix = VarintSize(n);
    if (prefix > mark.prefix) {
      buf_.insert(buf_.begin() + body, prefix - mark.prefix, 0);
    } else if (prefix < mark.prefix) {
      buf_.erase(buf_.begin() + body - static_cast<std::ptrdiff_t>(mark.prefix - prefix),
                 buf_.begin() + body);
    }
    std::uint64_t v = n;
    for (std::size_t i = 0; i + 1 < prefix; ++i, v >>= 7) {
      buf_[mark.at + i] = static_cast<std::uint8_t>(v) | 0x80;
    }
    buf_[mark.at + prefix - 1] = static_cast<std::uint8_t>(v);
    return n;
  }

  std::size_t size() const { return buf_.size(); }
  const Bytes& data() const& { return buf_; }
  Bytes Take() && { return std::move(buf_); }

 private:
  static std::size_t VarintSize(std::uint64_t v) {
    std::size_t n = 1;
    for (; v >= 0x80; v >>= 7) ++n;
    return n;
  }

  template <typename T>
  void AppendLE(T v) {
    static_assert(std::is_unsigned_v<T>);
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  Bytes buf_;
};

}  // namespace obiwan::wire
