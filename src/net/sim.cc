#include "net/sim.h"

#include <algorithm>

namespace obiwan::net {

std::unique_ptr<SimTransport> SimNetwork::CreateEndpoint(const Address& address) {
  auto endpoint = std::unique_ptr<SimTransport>(new SimTransport(this, address));
  Status s = Register(address, endpoint.get());
  if (!s.ok()) return nullptr;
  return endpoint;
}

Status SimNetwork::Register(const Address& address, SimTransport* endpoint) {
  auto [it, inserted] = endpoints_.emplace(address, endpoint);
  (void)it;
  if (!inserted) {
    return AlreadyExistsError("endpoint already bound: " + address);
  }
  return Status::Ok();
}

void SimNetwork::Unregister(const Address& address) { endpoints_.erase(address); }

void SimNetwork::SetEndpointUp(const Address& address, bool up) {
  endpoint_down_[address] = !up;
  if (sinks_.active()) {
    RecordInstant(&sinks_, clock_, kInvalidSite, "net.link",
                  "endpoint " + address + (up ? " up" : " down"), {});
  }
}

void SimNetwork::SetLinkUp(const Address& a, const Address& b, bool up) {
  link_down_[PairKeyOf(a, b)] = !up;
  if (sinks_.active()) {
    RecordInstant(&sinks_, clock_, kInvalidSite, "net.link",
                  "link " + a + " <-> " + b + (up ? " up" : " down"), {});
  }
}

void SimNetwork::SetLinkParams(const Address& a, const Address& b,
                               LinkParams params) {
  link_params_[PairKeyOf(a, b)] = params;
}

const LinkParams& SimNetwork::LinkFor(const Address& a, const Address& b) const {
  auto it = link_params_.find(PairKeyOf(a, b));
  return it != link_params_.end() ? it->second : default_link_;
}

bool SimNetwork::LinkUp(const Address& a, const Address& b) const {
  auto down = [this](const Address& addr) {
    auto it = endpoint_down_.find(addr);
    return it != endpoint_down_.end() && it->second;
  };
  if (down(a) || down(b)) return false;
  auto it = link_down_.find(PairKeyOf(a, b));
  return it == link_down_.end() || !it->second;
}

SimNetwork::Charge SimNetwork::ChargeMessage(const LinkParams& link,
                                             std::size_t bytes,
                                             Nanos deadline_at) {
  Nanos cost = link.OneWayCost(bytes);
  if (link.jitter > 0) {
    cost += static_cast<Nanos>(rng_() % static_cast<std::uint64_t>(link.jitter));
  }
  // A flight that would land past the deadline times out *at* the deadline:
  // the waiting caller gives up then, not when the bytes would have arrived.
  if (deadline_at >= 0 && clock_.Now() + cost > deadline_at) {
    clock_.Sleep(deadline_at - clock_.Now());
    return Charge::kDeadline;
  }
  clock_.Sleep(cost);
  if (link.drop_probability > 0) {
    double u = static_cast<double>(rng_()) /
               static_cast<double>(std::mt19937_64::max());
    if (u < link.drop_probability) return Charge::kDropped;
  }
  return Charge::kDelivered;
}

Result<Bytes> SimNetwork::Deliver(const Address& from, const Address& to,
                                  BytesView request, Nanos deadline) {
  const Nanos deadline_at = deadline < 0 ? -1 : clock_.Now() + deadline;
  // The "net" span covers the whole round trip — request flight, handler,
  // reply flight — on the virtual clock. It nests between the client's rpc
  // span and the destination's dispatch span (delivery is a synchronous call
  // on the caller's thread), so the exported timeline shows exactly how much
  // of a round trip was wire time.
  std::optional<SpanScope> span;
  if (sinks_.active()) {
    span.emplace(&sinks_, clock_, kInvalidSite, "net",
                 from + " -> " + to + " " + std::to_string(request.size()) +
                     "B",
                 TraceContext::Current());
  }
  auto fail = [&](const Status& status) {
    telemetry_.OnFailure(status);
    if (span.has_value()) span->MarkFailed();
    RecordInstant(&sinks_, clock_, kInvalidSite, "net.error", status.message(),
                  TraceContext::Current());
    return status;
  };
  if (!LinkUp(from, to)) {
    return fail(DisconnectedError("link down: " + from + " -> " + to));
  }
  SimTransport* dest = nullptr;
  if (auto it = endpoints_.find(to); it != endpoints_.end()) dest = it->second;
  if (dest == nullptr || dest->handler_ == nullptr) {
    return fail(NotFoundError("no endpoint serving at " + to));
  }

  const LinkParams& link = LinkFor(from, to);
  telemetry_.OnRequest(request.size());
  switch (ChargeMessage(link, request.size(), deadline_at)) {
    case Charge::kDropped:
      return fail(TimeoutError("request dropped: " + from + " -> " + to));
    case Charge::kDeadline:
      return fail(TimeoutError("deadline exceeded in request flight: " + from +
                               " -> " + to));
    case Charge::kDelivered:
      break;
  }

  Result<Bytes> reply = dest->handler_->HandleRequest(from, request);
  if (!reply.ok()) {
    telemetry_.OnFailure(reply.status());
    if (span.has_value()) span->MarkFailed();
    return reply;
  }

  telemetry_.OnReply(reply->size());
  // A disconnection during the reply flight is indistinguishable from a
  // request-side failure to the caller; model it the same way.
  if (!LinkUp(from, to)) {
    return fail(
        DisconnectedError("link down during reply: " + to + " -> " + from));
  }
  switch (ChargeMessage(link, reply->size(), deadline_at)) {
    case Charge::kDropped:
      return fail(TimeoutError("reply dropped: " + to + " -> " + from));
    case Charge::kDeadline:
      return fail(TimeoutError("deadline exceeded in reply flight: " + to +
                               " -> " + from));
    case Charge::kDelivered:
      break;
  }
  return reply;
}

SimTransport::~SimTransport() { network_->Unregister(address_); }

Result<Bytes> SimTransport::Request(const Address& to, BytesView request,
                                    const CallOptions& options) {
  return network_->Deliver(address_, to, request, EffectiveDeadline(options));
}

std::vector<Result<Bytes>> SimTransport::RequestAll(
    std::span<const Exchange> exchanges, std::size_t width,
    const CallOptions& options, const ExchangeHooks& hooks) {
  std::vector<Result<Bytes>> replies;
  if (exchanges.empty()) return replies;
  replies.reserve(exchanges.size());
  VirtualClock& clock = network_->clock_;
  // One free instant per worker; each exchange holds the earliest free one
  // until its own finish, the order a real pool's queue yields.
  std::vector<Nanos> free_at(std::clamp<std::size_t>(width, 1, exchanges.size()),
                             clock.Now());
  for (std::size_t i = 0; i < exchanges.size(); ++i) {
    auto worker = std::min_element(free_at.begin(), free_at.end());
    clock.Set(*worker);
    hooks.sent(i);
    replies.push_back(Request(exchanges[i].to, exchanges[i].request, options));
    hooks.done(i, replies.back());
    *worker = clock.Now();
  }
  clock.Set(*std::max_element(free_at.begin(), free_at.end()));
  return replies;
}

Status SimTransport::Serve(MessageHandler* handler) {
  handler_ = handler;
  return Status::Ok();
}

void SimTransport::StopServing() { handler_ = nullptr; }

}  // namespace obiwan::net
