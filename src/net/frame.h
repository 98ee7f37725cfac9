// Frame constants and the reply envelope shared by transports that move
// opaque frames (TCP).
//
// On the wire every frame is `u32 little-endian length | payload`, and both
// ends refuse a payload longer than kMaxFrameBytes: the reader so a corrupt
// length prefix cannot trigger a huge allocation, the writers so an
// oversized message fails where it is made instead of costing a connection.
//
// The in-process networks return Result<Bytes> directly; a byte-stream
// transport needs the status encoded into the reply frame. Layout:
//   ok reply:    0x01 | payload...
//   error reply: 0x00 | code:varint | message:string
#pragma once

#include <cstdint>

#include "common/bytes.h"
#include "common/status.h"
#include "wire/reader.h"
#include "wire/writer.h"

namespace obiwan::net {

// Largest frame payload either end writes or reads: 64 MiB.
inline constexpr std::size_t kMaxFrameBytes = std::size_t{64} << 20;

// First byte of an ok reply. The payload follows unchanged, so a writer can
// send the two as separate parts of one gather write instead of copying.
inline constexpr std::uint8_t kReplyOk = 1;

inline Bytes EncodeReplyFrame(const Result<Bytes>& reply) {
  wire::Writer w;
  if (reply.ok()) {
    w.U8(kReplyOk);
    w.Raw(AsView(reply.value()));
  } else {
    w.U8(0);
    w.Varint(static_cast<std::uint64_t>(reply.status().code()));
    w.String(reply.status().message());
  }
  return std::move(w).Take();
}

inline Result<Bytes> DecodeReplyFrame(BytesView frame) {
  wire::Reader r(frame);
  std::uint8_t ok = r.U8();
  if (!r.ok()) return r.status();
  if (ok != 0) {
    return Bytes(frame.begin() + 1, frame.end());
  }
  auto code = static_cast<StatusCode>(r.Varint());
  std::string message = r.String();
  if (!r.ok()) return r.status();
  if (code == StatusCode::kOk) {
    return DataLossError("error frame carried OK status");
  }
  return Status(code, std::move(message));
}

}  // namespace obiwan::net
