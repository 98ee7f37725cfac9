// Calibration probes for the traced run. Each gives one layer a number that
// no other layer can move: a bare TcpTransport echo (net), Site::Ping (rmi
// envelope + dispatcher), and wire::Encode/Decode of workload-shaped
// messages (wire).
#pragma once

#include <cstddef>
#include <string>

#include "common/trace.h"

namespace obiwan::core {
class Site;
}

namespace perfbench {

// Median round trip of a `bytes`-byte request echoed by a second
// TcpTransport on 127.0.0.1, in microseconds.
double EchoRttUs(std::size_t bytes, int requests,
                 const obiwan::TraceSinks* spans);

// Median Site::Ping round trip from `client` to `to`, in microseconds.
double PingRttUs(obiwan::core::Site& client, const std::string& to, int pings,
                 const obiwan::TraceSinks* spans);

struct WireCost {
  double encode_ns_per_byte = 0;
  double decode_ns_per_byte = 0;
};

// A GetReply as fault_walk's faults receive it: 16 chained 1 KiB nodes,
// per-object provider channels, a proxy at the batch boundary.
WireCost GetReplyCost(const obiwan::TraceSinks* spans);

// An ObjectRecord as put_push's fanout ships it: one 4 KiB node.
WireCost PushRecordCost(const obiwan::TraceSinks* spans);

}  // namespace perfbench
