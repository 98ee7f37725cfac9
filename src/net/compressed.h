// CompressedTransport — a decorator compressing every payload that shrinks.
//
// Both endpoints of a conversation must use the decorator (the 1-byte frame
// tag distinguishes raw from compressed payloads). On the simulated network
// this directly reduces the bytes charged to the bandwidth model, so the
// mobility benches can quantify what compression buys on a 50 kbit/s link;
// on TCP it reduces real bytes.
#pragma once

#include <memory>

#include "net/transport.h"
#include "wire/compress.h"

namespace obiwan::net {

class CompressedTransport final : public Transport, private MessageHandler {
 public:
  using Transport::Request;

  explicit CompressedTransport(std::unique_ptr<Transport> inner)
      : inner_(std::move(inner)) {}

  Result<Bytes> Request(const Address& to, BytesView request,
                        const CallOptions& options) override {
    const Exchange exchange{to, request};
    return std::move(RequestAll({&exchange, 1}, 1, options, {}).front());
  }

  // Packs every request, forwards the batch and unpacks each reply before
  // `hooks.done` sees it.
  std::vector<Result<Bytes>> RequestAll(std::span<const Exchange> exchanges,
                                        std::size_t width,
                                        const CallOptions& options,
                                        const ExchangeHooks& hooks) override {
    std::vector<Bytes> packed;
    packed.reserve(exchanges.size());  // `batch` views into it
    std::vector<Exchange> batch;
    for (const Exchange& exchange : exchanges) {
      packed.push_back(Pack(exchange.request));
      batch.push_back({exchange.to, AsView(packed.back())});
    }
    std::vector<Result<Bytes>> replies(exchanges.size(), Bytes{});
    inner_->RequestAll(
        batch, width, options,
        {hooks.sent, [&](std::size_t i, const Result<Bytes>& reply) {
           replies[i] = reply.ok() ? Unpack(AsView(*reply)) : reply;
           hooks.done(i, replies[i]);
         }});
    return replies;
  }

  Status Serve(MessageHandler* handler) override {
    user_handler_ = handler;
    return inner_->Serve(this);
  }

  void StopServing() override {
    inner_->StopServing();
    user_handler_ = nullptr;
  }

  Address LocalAddress() const override { return inner_->LocalAddress(); }

  // Deadlines are enforced by the decorated transport.
  void SetDefaultDeadline(Nanos deadline) override {
    inner_->SetDefaultDeadline(deadline);
  }
  Nanos default_deadline() const override { return inner_->default_deadline(); }

  // Bytes saved on the wire so far (requests sent + replies produced).
  std::uint64_t bytes_saved() const { return bytes_saved_; }

 private:
  static constexpr std::uint8_t kRaw = 0;
  static constexpr std::uint8_t kCompressed = 1;

  Bytes Pack(BytesView payload) {
    Bytes compressed = wire::Compress(payload);
    Bytes framed;
    if (compressed.size() < payload.size()) {
      bytes_saved_ += payload.size() - compressed.size();
      framed.reserve(compressed.size() + 1);
      framed.push_back(kCompressed);
      framed.insert(framed.end(), compressed.begin(), compressed.end());
    } else {
      framed.reserve(payload.size() + 1);
      framed.push_back(kRaw);
      framed.insert(framed.end(), payload.begin(), payload.end());
    }
    return framed;
  }

  Result<Bytes> Unpack(BytesView framed) {
    if (framed.empty()) return DataLossError("empty compressed frame");
    BytesView body = framed.subspan(1);
    switch (framed[0]) {
      case kRaw:
        return Bytes(body.begin(), body.end());
      case kCompressed:
        return wire::Decompress(body);
      default:
        return DataLossError("unknown compression tag");
    }
  }

  // MessageHandler: unwrap inbound requests, wrap outbound replies.
  Result<Bytes> HandleRequest(const Address& from, BytesView request) override {
    MessageHandler* handler = user_handler_;
    if (handler == nullptr) return FailedPreconditionError("not serving");
    OBIWAN_ASSIGN_OR_RETURN(Bytes plain, Unpack(request));
    OBIWAN_ASSIGN_OR_RETURN(Bytes reply, handler->HandleRequest(from, AsView(plain)));
    return Pack(AsView(reply));
  }

  std::unique_ptr<Transport> inner_;
  MessageHandler* user_handler_ = nullptr;
  std::uint64_t bytes_saved_ = 0;
};

}  // namespace obiwan::net
