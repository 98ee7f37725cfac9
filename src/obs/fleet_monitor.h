// FleetMonitor: the cross-site half of the observability plane.
//
// A single site's /metrics tells you about that site; the paper's mobility
// story (and the ROADMAP's fleet-scale open item) is about *many* devices
// converging after disconnection. FleetMonitor polls N sites over the
// existing kInspect RMI plane — no new protocol message — through one
// vantage site whose transport (TCP, sim, loopback) and clock (real or
// virtual) it inherits, and merges the per-site reports into fleet-wide
// series:
//
//   - convergence lag: each site contributes the max staleness of its
//     replicas, in master versions and in age; the fleet report carries the
//     p50/p95/max of those per-site maxima. A healthy fleet converges these
//     to zero after churn.
//   - holder health and object-role totals across every polled site.
//   - per-object hotness: the top 5 objects by serve traffic (gets + puts on
//     their master), for finding the content everyone replicates.
//   - bytes-per-update: replica payload bytes shipped per master put since
//     the previous poll — the incremental-replication cost figure.
//
// Polling is on demand (PollOnce): `obiwan_shell fleet` and the benches
// drive it, and the fleet gauges reach every /metrics endpoint in the
// monitoring process. The convergence SLO is the update-journey tracker's
// burn-rate alert (obs/journey.h), not a lag bound here.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/ids.h"
#include "common/metrics.h"
#include "core/inspect.h"
#include "core/site.h"

namespace obiwan::obs {

// One polled site's contribution to the fleet view.
struct FleetSiteSample {
  net::Address address;
  bool reachable = false;
  SiteId site = kInvalidSite;
  std::uint64_t masters = 0;
  std::uint64_t replicas = 0;
  std::uint64_t frontier = 0;
  std::uint64_t stale = 0;        // replicas currently marked stale
  std::uint64_t holders = 0;      // downstream holders registered here
  std::uint64_t lag_versions = 0; // max replica staleness (versions)
  Nanos lag_age = 0;              // max stale replica age
};

struct FleetHotObject {
  ObjectId id;
  std::string class_name;
  std::uint64_t traffic = 0;  // master gets served + puts accepted
};

// Merged fleet view from one poll round.
struct FleetReport {
  Nanos now = 0;            // monitor clock at merge time
  std::uint64_t polls = 0;  // rounds so far, this one included
  std::size_t sites = 0;    // targets polled
  std::size_t reachable = 0;
  std::uint64_t masters = 0;
  std::uint64_t replicas = 0;
  std::uint64_t frontier = 0;
  std::uint64_t stale_replicas = 0;
  std::uint64_t holders = 0;
  // Distribution of per-site max replica lag, over reachable sites.
  std::uint64_t lag_versions_p50 = 0;
  std::uint64_t lag_versions_p95 = 0;
  std::uint64_t lag_versions_max = 0;
  Nanos lag_age_p50 = 0;
  Nanos lag_age_p95 = 0;
  Nanos lag_age_max = 0;
  // Master puts accepted fleet-wide, and replica payload bytes shipped per
  // put since the previous poll (0 on the first round or an idle interval).
  std::uint64_t updates = 0;
  double bytes_per_update = 0;
  std::vector<FleetSiteSample> site_samples;
  std::vector<FleetHotObject> hottest;  // top 5 by traffic, descending
};

std::string ToJson(const FleetReport& report);
std::string ToText(const FleetReport& report);

class FleetMonitor {
 public:
  // Polls `targets` through `via` (via.InspectRemote; via's own address is
  // inspected locally). `via` must outlive the monitor.
  FleetMonitor(core::Site& via, std::vector<net::Address> targets);

  FleetMonitor(const FleetMonitor&) = delete;
  FleetMonitor& operator=(const FleetMonitor&) = delete;

  void AddTarget(net::Address target);
  std::size_t target_count() const;

  // One synchronous poll round: pull every target's InspectReport, merge,
  // update the fleet gauges, return (and retain) the report. Deterministic
  // under a VirtualClock.
  FleetReport PollOnce();

  // Last merged report (empty before the first poll).
  FleetReport last() const;

 private:
  FleetReport MergeLocked(std::vector<FleetSiteSample> samples,
                          const std::vector<core::InspectReport>& reports);

  core::Site& via_;

  mutable std::mutex mutex_;
  std::vector<net::Address> targets_;
  FleetReport last_;
  std::uint64_t polls_ = 0;
  // Per-object master state at the previous poll, for the bytes-per-update
  // and fleet-updates deltas.
  struct MasterSnapshot {
    std::uint64_t puts = 0;
    std::uint64_t payload_bytes = 0;
  };
  std::map<std::pair<SiteId, std::uint64_t>, MasterSnapshot> prev_masters_;

  // Fleet-wide gauges/counters (labels {"inst"}), updated on every poll.
  Gauge* sites_polled_;
  Gauge* sites_reachable_;
  Gauge* objects_master_;
  Gauge* objects_replica_;
  Gauge* objects_frontier_;
  Gauge* stale_replicas_;
  Gauge* holders_;
  Gauge* lag_versions_p50_;
  Gauge* lag_versions_p95_;
  Gauge* lag_versions_max_;
  Gauge* lag_age_p50_;
  Gauge* lag_age_p95_;
  Gauge* lag_age_max_;
  Gauge* bytes_per_update_;
  Counter* polls_total_;
  Counter* unreachable_polls_total_;
};

}  // namespace obiwan::obs
