// Update-journey hop events: the core half of the dissemination observatory.
//
// FleetMonitor measures convergence by *polling* kInspect version lag, which
// aliases anything faster than the poll period and cannot say where
// propagation time went. The journey plane measures it per update instead:
// every master put mints an UpdateId — the (object, version) pair that
// already travels in every invalidation and push body — and the replication
// paths stamp the sink below as the update moves through them:
//
//   provider side (all on the provider's clock)
//     OnPutCommit      the master version was bumped; the journey exists
//     OnNotifyEnqueue  a notification to one holder entered the fanout batch
//     OnWireSend       the transport sent that notification (RequestAll hook)
//     OnAckReturn      the holder's reply (or failure) came back
//   holder side (on the holder's clock)
//     OnHolderReceive  the invalidation/push arrived
//     OnReplicaApply   the replica caught up (push applied, or refresh done)
//
// The sink interface lives in core so site.cc can stamp without linking the
// obs library (the same layering rule as Site::ServeAdmin): the concrete
// tracker — obs::JourneyTracker — folds completed journeys into
// time-to-first-replica / time-to-all-holders metrics and burn-rate alerts.
//
// Threading: stamps run on protocol threads (concurrent puts' fanouts,
// transport dispatch), sometimes under an object-table shard guard.
// Implementations must be internally synchronized with leaf locks only and
// must never call back into Site operations.
#pragma once

#include <cstdint>

#include "common/clock.h"
#include "common/ids.h"
#include "net/transport.h"

namespace obiwan::core {

class JourneySink {
 public:
  virtual ~JourneySink() = default;

  // Provider side. `recipients` is the number of holders this update fans
  // out to (the journey completes when that many acks returned); `trace` is
  // the flow id the notify envelopes carry, linking the journey to its
  // flight-recorder spans.
  virtual void OnPutCommit(ObjectId id, std::uint64_t version, Nanos now,
                           std::size_t recipients, bool push,
                           TraceId trace) = 0;
  virtual void OnNotifyEnqueue(ObjectId id, std::uint64_t version,
                               const net::Address& holder, Nanos now) = 0;
  virtual void OnWireSend(ObjectId id, std::uint64_t version,
                          const net::Address& holder, Nanos now) = 0;
  virtual void OnAckReturn(ObjectId id, std::uint64_t version,
                           const net::Address& holder, Nanos now, bool ok) = 0;

  // Holder side. `push` distinguishes an applied push from a mark-stale
  // invalidation (whose apply hop is the later refresh).
  virtual void OnHolderReceive(ObjectId id, std::uint64_t version, Nanos now,
                               bool push) = 0;
  virtual void OnReplicaApply(ObjectId id, std::uint64_t version,
                              Nanos now) = 0;
};

}  // namespace obiwan::core
