// Wire protocol envelope.
//
// Every request between sites is `kind | body`. The kinds cover the three
// planes of the paper's architecture:
//   - invocation (kCall, kPing)            — the RMI substrate (§2, §4.1)
//   - replication (kGet, kPut, kRefresh-is-a-Get-flag, kRelease, kInvalidate,
//     kCommit)                             — the OBIWAN contribution (§2.1–2.2)
//   - naming (kBind, kLookup, kUnbind, kList) — the name server (§2, Fig. 1)
// Telemetry rides in the envelope: the high bit of the kind byte marks an
// optional trace header (varint site + varint seq of the originating flow's
// TraceId) between the kind byte and the body, and bit 0x40 marks an optional
// deadline header (varint remaining budget in nanoseconds) after the trace
// header. Requests without the flags are unchanged, so older peers
// interoperate.
#pragma once

#include <cstdint>
#include <string_view>

#include "common/bytes.h"
#include "common/clock.h"
#include "common/ids.h"
#include "common/literal.h"
#include "common/status.h"
#include "wire/reader.h"
#include "wire/writer.h"

namespace obiwan::rmi {

enum class MessageKind : std::uint8_t {
  kCall = 1,
  kPing = 2,
  kGet = 3,
  kPut = 4,
  kRelease = 5,
  kInvalidate = 6,
  kCommit = 7,
  kBind = 8,
  kLookup = 9,
  kUnbind = 10,
  kList = 11,
  kRenew = 12,      // renew a proxy-in lease (distributed GC)
  kPush = 13,       // master pushes updated state to replica holders
  kCallBatch = 14,  // several invocations in one round trip
  kInspect = 15,    // pull the serving site's replication-state report
};

inline constexpr std::uint8_t kMaxMessageKind = 15;

// High bit of the kind byte: a trace header follows the kind.
inline constexpr std::uint8_t kTraceFlag = 0x80;
// Bit 0x40 of the kind byte: a deadline header (varint remaining budget,
// nanoseconds) follows the trace header (or the kind byte when untraced). The
// budget is relative — "this much time was left when the request was sent" —
// because site clocks are not synchronized; the server sheds work whose
// budget already reached zero.
inline constexpr std::uint8_t kDeadlineFlag = 0x40;
// Bit 0x20: an origin header (the sender's canonical serving address, as a
// string) follows the deadline header. Transports that multiplex requests
// over outbound connections (TCP) report an ephemeral peer address, which is
// useless as a holder identity — a provider that registered it could never
// notify the holder back. Sites therefore declare the address they serve at
// in every identity-bearing request (get / put / commit / release / renew),
// and the dispatcher hands that to the service as `from`.
inline constexpr std::uint8_t kOriginFlag = 0x20;
// The kind value lives in the low 5 bits.
inline constexpr std::uint8_t kKindMask = 0x1F;

// Diagnostic name of a message kind ("call", "get", ...), for metric labels
// and as the kind of a dispatch span.
inline Literal KindName(MessageKind kind) {
  switch (kind) {
    case MessageKind::kCall: return "call";
    case MessageKind::kPing: return "ping";
    case MessageKind::kGet: return "get";
    case MessageKind::kPut: return "put";
    case MessageKind::kRelease: return "release";
    case MessageKind::kInvalidate: return "invalidate";
    case MessageKind::kCommit: return "commit";
    case MessageKind::kBind: return "bind";
    case MessageKind::kLookup: return "lookup";
    case MessageKind::kUnbind: return "unbind";
    case MessageKind::kList: return "list";
    case MessageKind::kRenew: return "renew";
    case MessageKind::kPush: return "push";
    case MessageKind::kCallBatch: return "call_batch";
    case MessageKind::kInspect: return "inspect";
  }
  return "unknown";
}

// `deadline_budget` < 0 means no deadline header; >= 0 writes the remaining
// budget (clamped at 0: an already-expired budget is still sent so the server
// sheds the work explicitly). A non-empty `origin` writes the origin header.
inline Bytes WrapRequest(MessageKind kind, const wire::Writer& body,
                         TraceId trace = {}, Nanos deadline_budget = -1,
                         const std::string& origin = {}) {
  wire::Writer w(body.size() + 24);
  std::uint8_t first = static_cast<std::uint8_t>(kind);
  if (trace.valid()) first |= kTraceFlag;
  if (deadline_budget >= 0) first |= kDeadlineFlag;
  if (!origin.empty()) first |= kOriginFlag;
  w.U8(first);
  if (trace.valid()) {
    w.Varint(trace.site);
    w.Varint(trace.seq);
  }
  if (deadline_budget >= 0) {
    w.Varint(static_cast<std::uint64_t>(deadline_budget));
  }
  if (!origin.empty()) {
    w.String(origin);
  }
  w.Raw(AsView(body.data()));
  return std::move(w).Take();
}

struct ParsedRequest {
  MessageKind kind;
  TraceId trace;  // invalid when the request carried no trace header
  // Remaining budget (ns) declared by the caller; -1 when the request
  // carried no deadline header.
  Nanos deadline_budget = -1;
  // Sender's canonical serving address; empty when the request carried no
  // origin header (the transport-reported peer address applies then).
  std::string origin;
  BytesView body;
};

inline Result<ParsedRequest> ParseRequest(BytesView request) {
  if (request.empty()) return DataLossError("empty request");
  const std::uint8_t first = request[0];
  const std::uint8_t kind = first & kKindMask;
  if (kind == 0 || kind > kMaxMessageKind) {
    return DataLossError("unknown message kind " + std::to_string(first));
  }
  ParsedRequest parsed;
  parsed.kind = static_cast<MessageKind>(kind);
  BytesView rest = request.subspan(1);
  if ((first & (kTraceFlag | kDeadlineFlag | kOriginFlag)) != 0) {
    wire::Reader header(rest);
    if ((first & kTraceFlag) != 0) {
      parsed.trace.site = static_cast<SiteId>(header.Varint());
      parsed.trace.seq = header.Varint();
    }
    if ((first & kDeadlineFlag) != 0) {
      parsed.deadline_budget = static_cast<Nanos>(header.Varint());
    }
    if ((first & kOriginFlag) != 0) {
      parsed.origin = header.String();
    }
    OBIWAN_RETURN_IF_ERROR(header.status());
    rest = rest.subspan(rest.size() - header.remaining());
  }
  parsed.body = rest;
  return parsed;
}

}  // namespace obiwan::rmi
