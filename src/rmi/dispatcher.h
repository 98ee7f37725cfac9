// Request dispatcher: one per site, routes message kinds to services.
//
// The dispatcher is also the server-side telemetry choke point: every inbound
// request is counted, timed into a per-kind latency histogram, and — when the
// envelope carries a trace header — handled under that flow's TraceId, so
// trace events and nested outbound requests made by the handler inherit the
// originating correlation id.
#pragma once

#include <array>

#include "common/clock.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "net/transport.h"
#include "rmi/protocol.h"
#include "wire/reader.h"

namespace obiwan::rmi {

// A protocol plane (invocation, replication, naming) implements Service and
// claims the message kinds it understands.
class Service {
 public:
  virtual ~Service() = default;
  virtual Result<Bytes> Handle(MessageKind kind, const net::Address& from,
                               wire::Reader& body) = 0;
};

class Dispatcher final : public net::MessageHandler {
 public:
  explicit Dispatcher(MetricsRegistry& metrics = MetricsRegistry::Default()) {
    for (std::uint8_t k = 1; k <= kMaxMessageKind; ++k) {
      const auto kind = static_cast<MessageKind>(k);
      const std::string kind_label(KindName(kind));
      PerKind& pk = per_kind_[k];
      pk.requests = &metrics.GetCounter(
          "obiwan_rmi_server_requests_total", {{"kind", kind_label}},
          "Inbound requests dispatched, by message kind");
      pk.errors = &metrics.GetCounter(
          "obiwan_rmi_server_errors_total", {{"kind", kind_label}},
          "Inbound requests whose handler returned a non-ok status");
      pk.latency = &metrics.GetHistogram(
          "obiwan_rmi_server_latency_ns", {{"kind", kind_label}},
          DefaultLatencyBuckets(),
          "Handler service time per inbound request (site clock)");
    }
    malformed_ = &metrics.GetCounter(
        "obiwan_rmi_server_malformed_total", {},
        "Requests rejected before dispatch (bad envelope or unknown kind)");
    expired_ = &metrics.GetCounter(
        "obiwan_rmi_expired_total", {},
        "Requests shed before dispatch because their deadline budget was "
        "already exhausted on arrival");
  }

  // `service` must outlive the dispatcher.
  void RegisterService(MessageKind kind, Service* service) {
    services_[static_cast<std::size_t>(kind)] = service;
  }

  // Clock used to time handlers; a simulation passes its VirtualClock so
  // modelled costs (proxy export, policy work) show up in server latency.
  void SetClock(Clock* clock) { clock_ = clock; }

  // Span sinks for server-side dispatch spans (the owning site passes its
  // own, so the dispatch span lands in the site's flight recorder and any
  // attached tracer). `sinks` must outlive the dispatcher.
  void SetTrace(const TraceSinks* sinks, SiteId site) {
    sinks_ = sinks;
    site_ = site;
  }

  Result<Bytes> HandleRequest(const net::Address& from,
                              BytesView request) override {
    Result<ParsedRequest> parsed = ParseRequest(request);
    if (!parsed.ok()) {
      malformed_->Inc();
      return parsed.status();
    }
    Service* service = services_[static_cast<std::size_t>(parsed->kind)];
    if (service == nullptr) {
      malformed_->Inc();
      return UnimplementedError("no service for message kind " +
                                std::to_string(static_cast<int>(parsed->kind)));
    }
    PerKind& pk = per_kind_[static_cast<std::size_t>(parsed->kind)];
    pk.requests->Inc();
    // Load shedding: a request whose declared budget is already zero has a
    // caller that gave up — doing the work would only burn server time on a
    // reply nobody reads.
    if (parsed->deadline_budget == 0) {
      expired_->Inc();
      pk.errors->Inc();
      return TimeoutError("deadline expired before dispatch (kind " +
                          std::string(KindName(parsed->kind)) + ")");
    }
    // The envelope's flow id is installed first, so the dispatch span — and
    // every span the handler opens — records under the originating trace.
    // With in-process delivery the handler runs on the caller's thread and
    // the span parents under the caller's client span, which is exactly the
    // causal chain: client rmi → dispatch → serve → nested faults. The
    // latency histogram times the dispatch span's own interval, from the
    // same two clock readings.
    TraceContext::Scope scope(parsed->trace);
    const Nanos start = clock_->Now();
    SpanScope span(sinks_, *clock_, start, site_, "dispatch",
                   {.format = "{k}", .kind = KindName(parsed->kind)},
                   parsed->trace);
    wire::Reader body(parsed->body);
    // Identity-bearing requests declare the address the sender serves at;
    // the transport's peer address (ephemeral for TCP) is only a fallback.
    const net::Address& effective_from =
        parsed->origin.empty() ? from : parsed->origin;
    Result<Bytes> reply = service->Handle(parsed->kind, effective_from, body);
    const Nanos end = clock_->Now();
    span.EndAt(end);
    pk.latency->Observe(end - start);
    if (!reply.ok()) {
      pk.errors->Inc();
      span.MarkFailed();
    }
    return reply;
  }

 private:
  struct PerKind {
    Counter* requests = nullptr;
    Counter* errors = nullptr;
    Histogram* latency = nullptr;
  };

  std::array<Service*, kMaxMessageKind + 1> services_{};
  std::array<PerKind, kMaxMessageKind + 1> per_kind_{};
  Counter* malformed_ = nullptr;
  Counter* expired_ = nullptr;
  Clock* clock_ = &SystemClock::Instance();
  const TraceSinks* sinks_ = nullptr;
  SiteId site_ = kInvalidSite;
};

}  // namespace obiwan::rmi
