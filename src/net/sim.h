// Simulated network with a virtual clock.
//
// This is the reproduction's stand-in for the paper's testbed — a 10 Mbit/s
// LAN of Pentium II/III machines running JDK 1.x (paper §4). Delivery is a
// direct in-process call, but every message charges a cost model against a
// VirtualClock:
//
//   one-way cost = processing_overhead + propagation_latency + bytes/bandwidth
//
// `kPaperLan` calibrates the model to the paper's measured constants: an
// empty remote invocation round trip costs 2.8 ms and bulk payload moves at
// 10 Mbit/s. Because the clock is virtual, experiments are deterministic and
// run in microseconds of real time regardless of how much simulated traffic
// they generate.
//
// Mobility support (DESIGN.md, substitution 5) is modelled with link control:
// endpoints or individual links can be taken down, after which any request
// fails with kDisconnected — exactly the failure the OBIWAN core must absorb.
#pragma once

#include <memory>
#include <optional>
#include <random>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/trace.h"
#include "net/transport.h"

namespace obiwan::net {

struct LinkParams {
  Nanos processing_overhead = 0;  // per message, per direction (CPU + stack)
  Nanos latency = 0;              // one-way propagation
  double bandwidth_bytes_per_sec = 0;  // 0 = infinite
  Nanos jitter = 0;               // uniform [0, jitter) added per message
  double drop_probability = 0;    // dropped messages surface as kTimeout

  // One-way cost of a message of `bytes` bytes, excluding jitter/drops.
  Nanos OneWayCost(std::size_t bytes) const {
    Nanos transfer = 0;
    if (bandwidth_bytes_per_sec > 0) {
      transfer = static_cast<Nanos>(static_cast<double>(bytes) /
                                    bandwidth_bytes_per_sec * kSecond);
    }
    return processing_overhead + latency + transfer;
  }
};

// Calibrated to the paper's environment: empty RMI round trip = 2.8 ms,
// payload bandwidth = 10 Mbit/s (§4, §4.1).
inline constexpr LinkParams kPaperLan{
    .processing_overhead = 1'300 * kMicro,
    .latency = 100 * kMicro,
    .bandwidth_bytes_per_sec = 10.0e6 / 8.0,
};

// A slow wide-area / wireless profile for the mobility experiments: GPRS-era
// uplink with high latency (paper §1's "slow and unreliable connections").
inline constexpr LinkParams kPaperWireless{
    .processing_overhead = 1'300 * kMicro,
    .latency = 300 * kMilli,
    .bandwidth_bytes_per_sec = 50.0e3 / 8.0,  // 50 kbit/s
};

class SimTransport;

class SimNetwork {
 public:
  // `clock` must outlive the network; every message charges it.
  SimNetwork(VirtualClock& clock, LinkParams default_link, std::uint64_t seed = 1)
      : clock_(clock), default_link_(default_link), rng_(seed) {}

  std::unique_ptr<SimTransport> CreateEndpoint(const Address& address);

  // --- link control (mobility) ---
  // Take a whole endpoint off the air (the PDA goes through a tunnel) or
  // bring it back.
  void SetEndpointUp(const Address& address, bool up);
  // Control one directed pair independently of endpoint state.
  void SetLinkUp(const Address& a, const Address& b, bool up);
  // Override parameters for the (unordered) pair {a, b}.
  void SetLinkParams(const Address& a, const Address& b, LinkParams params);

  // Traffic across every endpoint of this network.
  const TrafficTelemetry& telemetry() const { return telemetry_; }

  // Attach a tracer: every delivery records a "net" span (request + handler
  // + reply on the virtual clock) and link/endpoint transitions, drops, and
  // disconnection windows record as instant events, so the timeline shows
  // the wire time between a client span and its server dispatch span. The
  // network records at SiteId 0 ("network/harness" in the Chrome export).
  void SetTracer(Tracer* tracer) { sinks_.SetAttached(tracer); }

 private:
  friend class SimTransport;

  Status Register(const Address& address, SimTransport* endpoint);
  void Unregister(const Address& address);
  // `deadline`: round-trip budget in nanos; negative = unbounded. When a
  // message's flight would cross the deadline, the clock is charged only up
  // to the deadline and the request fails with kTimeout — the virtual-time
  // analogue of a socket timeout firing.
  Result<Bytes> Deliver(const Address& from, const Address& to, BytesView request,
                        Nanos deadline);

  // Charge the one-way cost of a message to the virtual clock, bounded by
  // `deadline_at` (absolute virtual time; negative = none).
  enum class Charge { kDelivered, kDropped, kDeadline };
  Charge ChargeMessage(const LinkParams& link, std::size_t bytes,
                       Nanos deadline_at);

  const LinkParams& LinkFor(const Address& a, const Address& b) const;
  bool LinkUp(const Address& a, const Address& b) const;

  static std::pair<Address, Address> PairKeyOf(const Address& a, const Address& b) {
    return a <= b ? std::make_pair(a, b) : std::make_pair(b, a);
  }

  struct PairHash {
    std::size_t operator()(const std::pair<Address, Address>& p) const {
      return std::hash<Address>{}(p.first) * 1315423911u ^
             std::hash<Address>{}(p.second);
    }
  };

  VirtualClock& clock_;
  LinkParams default_link_;
  std::mt19937_64 rng_;
  std::unordered_map<Address, SimTransport*> endpoints_;
  std::unordered_map<Address, bool> endpoint_down_;
  std::unordered_map<std::pair<Address, Address>, bool, PairHash> link_down_;
  std::unordered_map<std::pair<Address, Address>, LinkParams, PairHash> link_params_;
  TrafficTelemetry telemetry_{"sim"};
  TraceSinks sinks_;
};

class SimTransport final : public Transport {
 public:
  using Transport::Request;

  ~SimTransport() override;

  Result<Bytes> Request(const Address& to, BytesView request,
                        const CallOptions& options) override;
  // Models `width` concurrent exchanges on the thread that owns the clock:
  // each starts when the earliest of `width` workers frees up, its hooks run
  // at its own send and reply instants, and the clock ends at the makespan.
  std::vector<Result<Bytes>> RequestAll(std::span<const Exchange> exchanges,
                                        std::size_t width,
                                        const CallOptions& options,
                                        const ExchangeHooks& hooks) override;
  Status Serve(MessageHandler* handler) override;
  void StopServing() override;
  Address LocalAddress() const override { return address_; }

 private:
  friend class SimNetwork;
  SimTransport(SimNetwork* network, Address address)
      : network_(network), address_(std::move(address)) {}

  SimNetwork* network_;
  Address address_;
  MessageHandler* handler_ = nullptr;
};

}  // namespace obiwan::net
