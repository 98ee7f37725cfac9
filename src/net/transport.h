// Transport abstraction.
//
// OBIWAN's RMI substrate (src/rmi) is written against this synchronous
// request/reply interface. Three implementations exist:
//   - LoopbackNetwork: zero-cost in-process delivery, for unit tests and for
//     measuring pure CPU overheads (marshalling, proxy bookkeeping).
//   - SimNetwork: in-process delivery that charges latency/bandwidth against a
//     virtual clock and supports disconnection injection — the calibrated
//     stand-in for the paper's 10 Mbit/s LAN and for mobile links (DESIGN.md,
//     substitutions 2 and 5).
//   - TcpTransport: real sockets, for deployment and cross-process tests.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/clock.h"
#include "common/metrics.h"
#include "common/status.h"

namespace obiwan::net {

// Logical endpoint address. Loopback/sim networks use opaque names
// (e.g. "site-a"); the TCP transport uses "host:port".
using Address = std::string;

// Explicit "wait forever" deadline value (see CallOptions::deadline).
inline constexpr Nanos kNoDeadline = -1;

// Per-call options for Transport::Request.
struct CallOptions {
  // Round-trip deadline budget for this call, in nanoseconds:
  //   > 0          — the call must complete within this budget or fail with
  //                  kTimeout (the hard bound the paper's "slow and
  //                  unreliable connections" setting requires);
  //   0 (default)  — use the transport's configured default deadline;
  //   kNoDeadline  — explicitly unbounded (the pre-deadline behaviour).
  Nanos deadline = 0;
};

// One request of a Transport::RequestAll batch: `request` for `to`.
struct Exchange {
  const Address& to;
  BytesView request;
};

// Callbacks of Transport::RequestAll, run on the calling thread, once per
// exchange each: `sent(i)` as exchange i is sent, `done(i, reply)` as its
// reply or failure arrives. Both default to doing nothing.
struct ExchangeHooks {
  std::function<void(std::size_t)> sent = [](std::size_t) {};
  std::function<void(std::size_t, const Result<Bytes>&)> done =
      [](std::size_t, const Result<Bytes>&) {};
};

// Receives inbound requests. A site's RMI dispatcher implements this.
class MessageHandler {
 public:
  virtual ~MessageHandler() = default;

  // Handle one request and produce the reply payload. Returning a non-ok
  // status sends a transport-level error back to the caller (used for
  // "no such object"-class failures detected before dispatch).
  virtual Result<Bytes> HandleRequest(const Address& from, BytesView request) = 0;
};

// Registry-backed traffic accounting shared by the three transports. Each
// network/transport instance owns one and hands it out read-only through its
// telemetry() accessor. The counters live in the metrics registry (labels:
// transport kind + a per-instance sequence number, so two networks in one
// process never share a series) and are monotonic: a caller that wants the
// traffic of one phase reads a counter before and after it.
struct TrafficTelemetry {
  explicit TrafficTelemetry(std::string_view transport_kind,
                            MetricsRegistry& metrics = MetricsRegistry::Default()) {
    MetricLabels labels{
        {"transport", std::string(transport_kind)},
        {"inst", std::to_string(MetricsRegistry::NextInstance())}};
    requests = &metrics.GetCounter("obiwan_transport_requests_total", labels,
                                   "Requests delivered by this transport");
    request_bytes = &metrics.GetCounter("obiwan_transport_request_bytes_total",
                                        labels, "Request payload bytes");
    reply_bytes = &metrics.GetCounter("obiwan_transport_reply_bytes_total",
                                      labels, "Reply payload bytes");
    failures = &metrics.GetCounter("obiwan_transport_failures_total", labels,
                                   "Requests that failed to deliver or serve");
    timeouts = &metrics.GetCounter("obiwan_transport_timeouts_total", labels,
                                   "Requests that failed with an expired deadline");
    connects = &metrics.GetCounter("obiwan_transport_connects_total", labels,
                                   "Physical connections established");
    pool_hits = &metrics.GetCounter("obiwan_transport_pool_hits_total", labels,
                                    "Requests served on a pooled connection");
  }

  void OnRequest(std::size_t bytes) {
    requests->Inc();
    request_bytes->Inc(bytes);
  }
  void OnReply(std::size_t bytes) { reply_bytes->Inc(bytes); }
  void OnFailure(const Status& status) {
    failures->Inc();
    if (status.code() == StatusCode::kTimeout) timeouts->Inc();
  }
  void OnConnect() { connects->Inc(); }
  void OnPoolHit() { pool_hits->Inc(); }

  Counter* requests;
  Counter* request_bytes;
  Counter* reply_bytes;
  Counter* failures;
  Counter* timeouts;   // failures that were deadline expirations
  Counter* connects;   // physical connections established (TCP)
  Counter* pool_hits;  // requests served on a reused connection (TCP)
};

// One site's view of a network: it can serve requests at its own address and
// issue requests to other addresses.
class Transport {
 public:
  virtual ~Transport() = default;

  // Synchronous round trip with default options (the transport's configured
  // default deadline applies).
  Result<Bytes> Request(const Address& to, BytesView request) {
    return Request(to, request, CallOptions{});
  }

  // Synchronous round trip: deliver `request` to `to`, return its reply.
  // When the effective deadline (options or transport default) is positive,
  // the call fails with kTimeout instead of blocking past it.
  virtual Result<Bytes> Request(const Address& to, BytesView request,
                                const CallOptions& options) = 0;

  // Sends every exchange and returns the replies in exchange order, with at
  // most `width` outstanding at once, each deadline counting from its own
  // send. This version runs them one after another through Request (within
  // any width); a transport that can overlap them overrides it.
  virtual std::vector<Result<Bytes>> RequestAll(
      std::span<const Exchange> exchanges, std::size_t /*width*/,
      const CallOptions& options, const ExchangeHooks& hooks) {
    std::vector<Result<Bytes>> replies;
    replies.reserve(exchanges.size());
    for (std::size_t i = 0; i < exchanges.size(); ++i) {
      hooks.sent(i);
      replies.push_back(Request(exchanges[i].to, exchanges[i].request, options));
      hooks.done(i, replies.back());
    }
    return replies;
  }

  // Start serving inbound requests with `handler`. The handler must outlive
  // the transport (or a subsequent StopServing call).
  virtual Status Serve(MessageHandler* handler) = 0;

  virtual void StopServing() = 0;

  // Address other endpoints should use to reach this transport.
  virtual Address LocalAddress() const = 0;

  // Deadline applied when CallOptions::deadline is 0. kNoDeadline (the base
  // default) preserves unbounded waits; TcpTransport installs a finite
  // default because a real socket must never hang forever. Virtual so
  // decorators (retry, compression) can forward to the transport that
  // actually enforces it. Site::SetRequestDeadline does not change it: it
  // sets a per-site override that the site passes as CallOptions::deadline.
  virtual void SetDefaultDeadline(Nanos deadline) {
    default_deadline_.store(deadline, std::memory_order_relaxed);
  }
  virtual Nanos default_deadline() const {
    return default_deadline_.load(std::memory_order_relaxed);
  }

 protected:
  // Resolve per-call options against the configured default.
  Nanos EffectiveDeadline(const CallOptions& options) const {
    return options.deadline == 0 ? default_deadline() : options.deadline;
  }

 private:
  std::atomic<Nanos> default_deadline_{kNoDeadline};
};

}  // namespace obiwan::net
