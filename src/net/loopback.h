// In-process network with synchronous, zero-latency delivery.
#pragma once

#include <memory>
#include <mutex>
#include <unordered_map>

#include "net/transport.h"

namespace obiwan::net {

class LoopbackTransport;

// A bus connecting any number of in-process endpoints. Delivery is a direct
// function call into the destination handler (re-entrant requests are allowed,
// which the replication protocol relies on when replicas are re-exported).
class LoopbackNetwork {
 public:
  // Create an endpoint bound to `address`. The endpoint unregisters itself
  // when destroyed.
  std::unique_ptr<LoopbackTransport> CreateEndpoint(const Address& address);

  // Traffic across every endpoint of this network.
  const TrafficTelemetry& telemetry() const { return telemetry_; }

 private:
  friend class LoopbackTransport;

  Status Register(const Address& address, LoopbackTransport* endpoint);
  void Unregister(const Address& address);
  Result<Bytes> Deliver(const Address& from, const Address& to, BytesView request);

  std::mutex mutex_;  // guards the endpoint table only; delivery is unlocked
  std::unordered_map<Address, LoopbackTransport*> endpoints_;
  TrafficTelemetry telemetry_{"loopback"};
};

class LoopbackTransport final : public Transport {
 public:
  using Transport::Request;

  ~LoopbackTransport() override;

  // Delivery is instantaneous, so any deadline is trivially honored.
  Result<Bytes> Request(const Address& to, BytesView request,
                        const CallOptions& options) override;
  Status Serve(MessageHandler* handler) override;
  void StopServing() override;
  Address LocalAddress() const override { return address_; }

 private:
  friend class LoopbackNetwork;
  LoopbackTransport(LoopbackNetwork* network, Address address)
      : network_(network), address_(std::move(address)) {}

  LoopbackNetwork* network_;
  Address address_;
  MessageHandler* handler_ = nullptr;
};

}  // namespace obiwan::net
