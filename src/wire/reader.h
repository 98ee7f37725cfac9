// Binary wire format: Reader.
//
// The Reader uses a *sticky error* model: any read past the end of the buffer
// (or a malformed varint) marks the reader failed, and every subsequent read
// returns a zero value. Decoders are therefore written as straight-line code
// and check reader.status() once at the end — truncated or corrupt network
// data can never crash the process, it surfaces as kDataLoss.
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/bytes.h"
#include "common/status.h"

namespace obiwan::wire {

class Reader {
 public:
  explicit Reader(BytesView data) : data_(data) {}

  std::uint8_t U8() {
    if (!Require(1)) return 0;
    return data_[pos_++];
  }

  std::uint16_t U16() { return ReadLE<std::uint16_t>(); }
  std::uint32_t U32() { return ReadLE<std::uint32_t>(); }
  std::uint64_t U64() { return ReadLE<std::uint64_t>(); }

  bool Bool() { return U8() != 0; }

  std::uint64_t Varint() {
    // A one-byte varint, and any varint once at least kMaxVarintBytes
    // remain, decode without a bounds check per byte.
    const std::size_t left = failed_ ? 0 : data_.size() - pos_;
    if (left != 0 && data_[pos_] < 0x80) return data_[pos_++];
    if (left >= kMaxVarintBytes) {
      std::uint64_t v = 0;
      for (std::size_t i = 0; i < kMaxVarintBytes; ++i) {
        const std::uint8_t byte = data_[pos_ + i];
        v |= static_cast<std::uint64_t>(byte & 0x7F) << (7 * i);
        if ((byte & 0x80) == 0) {
          pos_ += i + 1;
          return v;
        }
      }
      Fail("malformed varint");
      return 0;
    }
    std::uint64_t v = 0;
    int shift = 0;
    while (true) {
      if (shift >= 64 || !Require(1)) {
        Fail("malformed varint");
        return 0;
      }
      std::uint8_t byte = data_[pos_++];
      v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) return v;
      shift += 7;
    }
  }

  std::int64_t Svarint() {
    std::uint64_t raw = Varint();
    return static_cast<std::int64_t>((raw >> 1) ^ (~(raw & 1) + 1));
  }

  double F64() { return std::bit_cast<double>(U64()); }
  float F32() { return std::bit_cast<float>(U32()); }

  std::string String() {
    std::uint64_t n = Varint();
    if (!Require(n)) return {};
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += n;
    return s;
  }

  Bytes Blob() {
    std::uint64_t n = Varint();
    if (!Require(n)) return {};
    Bytes b(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
            data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return b;
  }

  // View into the payload without copying; valid while the source buffer is.
  BytesView BlobView() {
    std::uint64_t n = Varint();
    if (!Require(n)) return {};
    BytesView v = data_.subspan(pos_, n);
    pos_ += n;
    return v;
  }

  // A length-prefixed string as a view into the payload; valid while the
  // source buffer is.
  std::string_view StringView() {
    BytesView v = BlobView();
    return {reinterpret_cast<const char*>(v.data()), v.size()};
  }

  std::size_t remaining() const { return failed_ ? 0 : data_.size() - pos_; }
  bool AtEnd() const { return failed_ || pos_ == data_.size(); }

  bool ok() const { return !failed_; }
  Status status() const {
    return failed_ ? DataLossError(error_) : Status::Ok();
  }

  // Decoders call this to report semantically invalid content (e.g. an
  // unknown enum value); it poisons the reader like a truncation would.
  void Fail(std::string reason) {
    if (!failed_) {
      failed_ = true;
      error_ = std::move(reason);
    }
  }

 private:
  // The longest encoding of a 64-bit varint.
  static constexpr std::size_t kMaxVarintBytes = 10;

  bool Require(std::uint64_t n) {
    if (failed_) return false;
    if (data_.size() - pos_ < n) [[unlikely]] {
      FailTruncated(n);
      return false;
    }
    return true;
  }

  [[gnu::cold, gnu::noinline]] void FailTruncated(std::uint64_t n) {
    Fail("truncated input (need " + std::to_string(n) + " bytes, have " +
         std::to_string(data_.size() - pos_) + ")");
  }

  template <typename T>
  T ReadLE() {
    static_assert(std::is_unsigned_v<T>);
    if (!Require(sizeof(T))) return 0;
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<T>(data_[pos_ + i]) << (8 * i));
    }
    pos_ += sizeof(T);
    return v;
  }

  BytesView data_;
  std::size_t pos_ = 0;
  bool failed_ = false;
  std::string error_;
};

}  // namespace obiwan::wire
