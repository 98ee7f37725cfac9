#include "obs/fleet_monitor.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

namespace obiwan::obs {

namespace {

// Hotness leaderboard length.
constexpr std::size_t kHottest = 5;

// Nearest-rank percentile over per-site values (p in [0,1]); 0 when empty.
template <typename T>
T NearestRank(std::vector<T> values, double p) {
  if (values.empty()) return T{};
  std::sort(values.begin(), values.end());
  auto rank = static_cast<std::size_t>(std::ceil(p * values.size()));
  if (rank == 0) rank = 1;
  if (rank > values.size()) rank = values.size();
  return values[rank - 1];
}

}  // namespace

std::string ToJson(const FleetReport& r) {
  std::ostringstream os;
  os << "{\"now\":" << r.now << ",\"polls\":" << r.polls
     << ",\"sites\":" << r.sites << ",\"reachable\":" << r.reachable
     << ",\"masters\":" << r.masters << ",\"replicas\":" << r.replicas
     << ",\"frontier\":" << r.frontier
     << ",\"stale_replicas\":" << r.stale_replicas
     << ",\"holders\":" << r.holders << ",\"lag_versions\":{\"p50\":"
     << r.lag_versions_p50 << ",\"p95\":" << r.lag_versions_p95
     << ",\"max\":" << r.lag_versions_max << "},\"lag_age_ns\":{\"p50\":"
     << r.lag_age_p50 << ",\"p95\":" << r.lag_age_p95
     << ",\"max\":" << r.lag_age_max << "},\"updates\":" << r.updates
     << ",\"bytes_per_update\":" << r.bytes_per_update << ",\"hottest\":[";
  for (std::size_t i = 0; i < r.hottest.size(); ++i) {
    const FleetHotObject& h = r.hottest[i];
    if (i) os << ",";
    os << "{\"id\":\"" << h.id.site << ":" << h.id.local << "\",\"class\":"
       << JsonString(h.class_name) << ",\"traffic\":" << h.traffic << "}";
  }
  os << "],\"site_samples\":[";
  for (std::size_t i = 0; i < r.site_samples.size(); ++i) {
    const FleetSiteSample& s = r.site_samples[i];
    if (i) os << ",";
    os << "{\"address\":" << JsonString(s.address) << ",\"reachable\":"
       << (s.reachable ? "true" : "false") << ",\"site\":" << s.site
       << ",\"masters\":" << s.masters << ",\"replicas\":" << s.replicas
       << ",\"frontier\":" << s.frontier << ",\"stale\":" << s.stale
       << ",\"holders\":" << s.holders << ",\"lag_versions\":" << s.lag_versions
       << ",\"lag_age_ns\":" << s.lag_age << "}";
  }
  os << "]}";
  return os.str();
}

std::string ToText(const FleetReport& r) {
  std::ostringstream os;
  os << "fleet: " << r.reachable << "/" << r.sites << " sites reachable, poll #"
     << r.polls << "\n"
     << "  objects: " << r.masters << " masters, " << r.replicas
     << " replicas (" << r.stale_replicas << " stale), frontier " << r.frontier
     << ", holders " << r.holders << "\n"
     << "  lag: versions p50=" << r.lag_versions_p50
     << " p95=" << r.lag_versions_p95 << " max=" << r.lag_versions_max
     << " | age_ms p50=" << r.lag_age_p50 / kMilli
     << " p95=" << r.lag_age_p95 / kMilli << " max=" << r.lag_age_max / kMilli
     << "\n"
     << "  updates: " << r.updates << " total, " << r.bytes_per_update
     << " bytes/update since last poll\n";
  if (!r.hottest.empty()) {
    os << "  hottest:";
    for (const FleetHotObject& h : r.hottest) {
      os << " obj(" << h.id.site << ":" << h.id.local << ")x" << h.traffic;
    }
    os << "\n";
  }
  for (const FleetSiteSample& s : r.site_samples) {
    if (s.reachable) continue;
    os << "  UNREACHABLE " << s.address << "\n";
  }
  return os.str();
}

FleetMonitor::FleetMonitor(core::Site& via, std::vector<net::Address> targets)
    : via_(via), targets_(std::move(targets)) {
  auto& registry = MetricsRegistry::Default();
  MetricLabels labels{{"inst", std::to_string(MetricsRegistry::NextInstance())}};
  auto gauge = [&](const char* name, const char* help) {
    return &registry.GetGauge(name, labels, help);
  };
  auto agg_gauge = [&](const char* name, const char* agg, const char* help) {
    MetricLabels agg_labels = labels;
    agg_labels.emplace_back("agg", agg);
    return &registry.GetGauge(name, agg_labels, help);
  };
  auto state_gauge = [&](const char* state) {
    MetricLabels state_labels = labels;
    state_labels.emplace_back("state", state);
    return &registry.GetGauge("obiwan_fleet_sites", state_labels,
                              "Polled fleet targets by reachability");
  };
  auto role_gauge = [&](const char* role) {
    MetricLabels role_labels = labels;
    role_labels.emplace_back("role", role);
    return &registry.GetGauge("obiwan_fleet_objects", role_labels,
                              "Fleet-wide object totals by role");
  };
  sites_polled_ = state_gauge("polled");
  sites_reachable_ = state_gauge("reachable");
  objects_master_ = role_gauge("master");
  objects_replica_ = role_gauge("replica");
  objects_frontier_ = role_gauge("frontier");
  stale_replicas_ = gauge("obiwan_fleet_stale_replicas",
                          "Stale (invalidated, unrefreshed) replicas fleet-wide");
  holders_ = gauge("obiwan_fleet_holders",
                   "Downstream holders registered across the fleet");
  const char* lag_help =
      "Distribution of per-site max replica lag over reachable sites";
  lag_versions_p50_ = agg_gauge("obiwan_fleet_lag_versions", "p50", lag_help);
  lag_versions_p95_ = agg_gauge("obiwan_fleet_lag_versions", "p95", lag_help);
  lag_versions_max_ = agg_gauge("obiwan_fleet_lag_versions", "max", lag_help);
  lag_age_p50_ = agg_gauge("obiwan_fleet_lag_age_ns", "p50", lag_help);
  lag_age_p95_ = agg_gauge("obiwan_fleet_lag_age_ns", "p95", lag_help);
  lag_age_max_ = agg_gauge("obiwan_fleet_lag_age_ns", "max", lag_help);
  bytes_per_update_ =
      gauge("obiwan_fleet_bytes_per_update",
            "Replica payload bytes shipped per master put, last poll interval");
  polls_total_ = &registry.GetCounter("obiwan_fleet_polls_total", labels,
                                      "Fleet poll rounds completed");
  unreachable_polls_total_ =
      &registry.GetCounter("obiwan_fleet_unreachable_polls_total", labels,
                           "Per-target polls that failed to reach the site");
}

void FleetMonitor::AddTarget(net::Address target) {
  std::lock_guard lock(mutex_);
  targets_.push_back(std::move(target));
}

std::size_t FleetMonitor::target_count() const {
  std::lock_guard lock(mutex_);
  return targets_.size();
}

FleetReport FleetMonitor::PollOnce() {
  std::vector<net::Address> targets;
  {
    std::lock_guard lock(mutex_);
    targets = targets_;
  }

  // Pull every report without holding the monitor mutex — InspectRemote is a
  // real RPC with a deadline.
  std::vector<FleetSiteSample> samples;
  std::vector<core::InspectReport> reports;
  samples.reserve(targets.size());
  for (const net::Address& addr : targets) {
    FleetSiteSample sample;
    sample.address = addr;
    if (addr == via_.address()) {
      reports.push_back(via_.Inspect());
      sample.reachable = true;
    } else if (auto report = via_.InspectRemote(addr); report.ok()) {
      reports.push_back(std::move(report).value());
      sample.reachable = true;
    } else {
      unreachable_polls_total_->Inc();
    }
    samples.push_back(std::move(sample));
  }

  std::lock_guard lock(mutex_);
  return MergeLocked(std::move(samples), reports);
}

FleetReport FleetMonitor::MergeLocked(
    std::vector<FleetSiteSample> samples,
    const std::vector<core::InspectReport>& reports) {
  FleetReport out;
  out.now = via_.clock().Now();
  out.polls = ++polls_;
  out.sites = samples.size();

  std::map<std::pair<SiteId, std::uint64_t>, FleetHotObject> hot;
  std::map<std::pair<SiteId, std::uint64_t>, MasterSnapshot> masters_now;
  std::vector<std::uint64_t> lag_versions;
  std::vector<Nanos> lag_ages;

  std::size_t next_report = 0;
  for (FleetSiteSample& sample : samples) {
    if (!sample.reachable) continue;
    const core::InspectReport& report = reports[next_report++];
    sample.site = report.site;
    sample.masters = report.masters;
    sample.replicas = report.replicas;
    sample.frontier = report.frontier;
    for (const core::InspectEntry& entry : report.objects) {
      sample.holders += entry.holders;
      if (entry.master) {
        auto key = std::make_pair(entry.id.site, entry.id.local);
        FleetHotObject& h = hot[key];
        h.id = entry.id;
        h.class_name = entry.class_name;
        h.traffic += entry.faults + entry.puts;
        MasterSnapshot& snap = masters_now[key];
        snap.puts = std::max(snap.puts, entry.puts);
        snap.payload_bytes = std::max(snap.payload_bytes, entry.payload_bytes);
      } else {
        if (entry.stale) ++sample.stale;
        sample.lag_versions = std::max(sample.lag_versions,
                                       entry.staleness_versions);
        if (entry.stale) sample.lag_age = std::max(sample.lag_age, entry.age);
      }
    }
    out.reachable++;
    out.masters += sample.masters;
    out.replicas += sample.replicas;
    out.frontier += sample.frontier;
    out.stale_replicas += sample.stale;
    out.holders += sample.holders;
    lag_versions.push_back(sample.lag_versions);
    lag_ages.push_back(sample.lag_age);
  }

  out.lag_versions_p50 = NearestRank(lag_versions, 0.50);
  out.lag_versions_p95 = NearestRank(lag_versions, 0.95);
  out.lag_versions_max =
      lag_versions.empty()
          ? 0
          : *std::max_element(lag_versions.begin(), lag_versions.end());
  out.lag_age_p50 = NearestRank(lag_ages, 0.50);
  out.lag_age_p95 = NearestRank(lag_ages, 0.95);
  out.lag_age_max =
      lag_ages.empty() ? 0 : *std::max_element(lag_ages.begin(), lag_ages.end());

  // Hotness: the kHottest objects with the most traffic.
  std::vector<FleetHotObject> hottest;
  hottest.reserve(hot.size());
  for (auto& [key, h] : hot) hottest.push_back(std::move(h));
  // Traffic descending, ties broken by object id ascending: unordered_map
  // iteration order would otherwise decide which of two equal-traffic
  // objects survives the cut, and the report would flap between polls.
  std::sort(hottest.begin(), hottest.end(),
            [](const FleetHotObject& a, const FleetHotObject& b) {
              if (a.traffic != b.traffic) return a.traffic > b.traffic;
              return a.id < b.id;
            });
  if (hottest.size() > kHottest) hottest.resize(kHottest);
  out.hottest = std::move(hottest);

  // Updates + bytes-per-update, as deltas against the previous poll. A
  // master's payload size at poll time approximates the bytes each of its
  // puts shipped over the interval.
  std::uint64_t updates_total = 0;
  std::uint64_t delta_puts = 0;
  double delta_bytes = 0;
  for (const auto& [key, snap] : masters_now) {
    updates_total += snap.puts;
    std::uint64_t prev = 0;
    if (auto it = prev_masters_.find(key); it != prev_masters_.end()) {
      prev = it->second.puts;
    }
    if (snap.puts > prev) {
      delta_puts += snap.puts - prev;
      delta_bytes += static_cast<double>(snap.payload_bytes) *
                     static_cast<double>(snap.puts - prev);
    }
  }
  out.updates = updates_total;
  out.bytes_per_update = delta_puts ? delta_bytes / delta_puts : 0;
  prev_masters_ = std::move(masters_now);

  out.site_samples = std::move(samples);

  sites_polled_->Set(static_cast<std::int64_t>(out.sites));
  sites_reachable_->Set(static_cast<std::int64_t>(out.reachable));
  objects_master_->Set(static_cast<std::int64_t>(out.masters));
  objects_replica_->Set(static_cast<std::int64_t>(out.replicas));
  objects_frontier_->Set(static_cast<std::int64_t>(out.frontier));
  stale_replicas_->Set(static_cast<std::int64_t>(out.stale_replicas));
  holders_->Set(static_cast<std::int64_t>(out.holders));
  lag_versions_p50_->Set(static_cast<std::int64_t>(out.lag_versions_p50));
  lag_versions_p95_->Set(static_cast<std::int64_t>(out.lag_versions_p95));
  lag_versions_max_->Set(static_cast<std::int64_t>(out.lag_versions_max));
  lag_age_p50_->Set(out.lag_age_p50);
  lag_age_p95_->Set(out.lag_age_p95);
  lag_age_max_->Set(out.lag_age_max);
  bytes_per_update_->Set(static_cast<std::int64_t>(out.bytes_per_update));
  polls_total_->Inc();

  last_ = out;
  return out;
}

FleetReport FleetMonitor::last() const {
  std::lock_guard lock(mutex_);
  return last_;
}

}  // namespace obiwan::obs
