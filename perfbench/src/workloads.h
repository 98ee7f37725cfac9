// The three paper operations, driven closed-loop in real time between real
// core::Site instances over net::TcpTransport on 127.0.0.1 (one process;
// callers block on each reply, as OBIWAN callers do).
//
//   rmi_invoke  2 clients, RemoteRef<Node>::Invoke(&Node::Touch) on 64 small
//               masters. Op = one call.
//   fault_walk  1 client, Replicate(Incremental(16)) of a 1024-node chain,
//               walk every node, evict. Op = one object fault.
//   put_push    1 writer + 3 holders of 64 4 KiB masters under PushUpdates;
//               mutate one replica, Site::Put. Op = one put.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/trace.h"
#include "ledger.h"

namespace obiwan::core {
class Site;
}

namespace perfbench {

// What one Run (one measured slice) produced.
struct PhaseResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double elapsed_s = 0;
  Samples op_ns;       // one latency per op
  // Process CPU time (all threads) over each completed session: a client's
  // 1024 calls (rmi_invoke), one whole walk (fault_walk), 64 puts
  // (put_push) — the walk_ms_p50 quantity. With every thread on one vCPU
  // this is the session's duration minus any time that vCPU ran other
  // processes.
  Samples session_cpu_ns;

  std::uint64_t completed() const { return attempted - failed; }
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Builds the sites, binds the graphs and warms connections and replicas.
  virtual obiwan::Status Setup() = 0;

  // Issues whole sessions until `duration` has passed. `spans` is null in
  // untraced phases; traced phases record a span around every op.
  virtual PhaseResult Run(std::chrono::nanoseconds duration,
                          const obiwan::TraceSinks* spans) = 0;

  // Correctness of everything run so far, checked after quiescence.
  virtual obiwan::Status Check() = 0;

  // Times `probes` ReplicaVersion + IsStale pairs on a replica, adding
  // samples of ns per pair. Workloads that hold no replicas add nothing.
  virtual void ProbeTable(int probes, const obiwan::TraceSinks* spans,
                          Samples& out) = 0;

  // A client site and the provider it talks to (for the Site::Ping probe).
  virtual obiwan::core::Site& client() = 0;
  virtual std::string provider_address() const = 0;

  virtual int clients() const = 0;
  // TCP connections the measured loop keeps busy.
  virtual int connections() const = 0;
};

const std::vector<std::string>& WorkloadNames();

// Null for an unknown name. The seed picks the touched objects and the
// mutation values.
std::unique_ptr<Workload> MakeWorkload(std::string_view name,
                                       std::uint64_t seed);

}  // namespace perfbench
