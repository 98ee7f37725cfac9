#include "obs/journey.h"

#include <algorithm>
#include <sstream>

#include "common/trace.h"

namespace obiwan::obs {

namespace {

std::string TraceLabel(const TraceId& trace) {
  if (!trace.valid()) return "";
  return std::to_string(trace.site) + ":" + std::to_string(trace.seq);
}

void AppendSummary(std::ostream& os, const char* key, const Histogram& h) {
  os << "\"" << key << "\":{\"count\":" << h.Count() << ",\"p50\":" << h.P50()
     << ",\"p95\":" << h.P95() << ",\"p99\":" << h.P99()
     << ",\"max\":" << h.Max() << "}";
}

void AppendJourney(std::ostream& os, const JourneyView& j) {
  os << "{\"object\":\"" << ToString(j.id) << "\",\"version\":" << j.version
     << ",\"push\":" << (j.push ? "true" : "false") << ",\"trace\":\""
     << TraceLabel(j.trace) << "\"";
  if (j.put_commit >= 0) os << ",\"put_commit_ns\":" << j.put_commit;
  if (j.receive >= 0) os << ",\"receive_ns\":" << j.receive;
  if (j.apply >= 0) os << ",\"apply_ns\":" << j.apply;
  os << ",\"expected\":" << j.expected << ",\"acked\":" << j.acked
     << ",\"complete\":" << (j.complete ? "true" : "false");
  if (j.ttfr >= 0) os << ",\"ttfr_ns\":" << j.ttfr;
  if (j.convergence >= 0) os << ",\"convergence_ns\":" << j.convergence;
  os << ",\"hops\":[";
  for (std::size_t i = 0; i < j.hops.size(); ++i) {
    const JourneyHopView& hop = j.hops[i];
    if (i != 0) os << ',';
    os << "{\"holder\":" << JsonString(hop.holder);
    if (hop.enqueue >= 0) os << ",\"enqueue_ns\":" << hop.enqueue;
    if (hop.send >= 0) os << ",\"send_ns\":" << hop.send;
    if (hop.ack >= 0) os << ",\"ack_ns\":" << hop.ack;
    os << ",\"acked\":" << (hop.acked ? "true" : "false") << "}";
  }
  os << "]}";
}

}  // namespace

JourneyTracker::JourneyTracker(Clock& clock, SiteId site,
                               JourneyOptions options)
    : clock_(clock), site_(site), options_(options) {
  if (options_.stripes == 0) options_.stripes = 1;
  if (options_.capacity == 0) options_.capacity = options_.stripes;
  per_stripe_ = std::max<std::size_t>(1, options_.capacity / options_.stripes);
  stripes_.reserve(options_.stripes);
  for (std::size_t i = 0; i < options_.stripes; ++i) {
    stripes_.push_back(std::make_unique<Stripe>());
  }

  auto& registry = MetricsRegistry::Default();
  const MetricLabels labels{
      {"site", std::to_string(site)},
      {"inst", std::to_string(MetricsRegistry::NextInstance())}};
  minted_ = &registry.GetCounter("obiwan_update_journeys_total", labels,
                                 "Update journeys minted (master puts that "
                                 "fanned out to at least one holder)");
  completed_ = &registry.GetCounter(
      "obiwan_update_journeys_completed_total", labels,
      "Update journeys whose every recipient acked");
  ttfr_ = &registry.GetHistogram(
      "obiwan_update_ttfr_ns", labels, DefaultLatencyBuckets(),
      "Time-to-first-replica: put commit to the first holder ack");
  convergence_ = &registry.GetHistogram(
      "obiwan_update_convergence_ns", labels, DefaultLatencyBuckets(),
      "Time-to-all-holders: put commit to the last holder ack");
  // Journeys past the SLO capture an exemplar carrying the flow's TraceId —
  // the link from a fat convergence bucket to its flight-recorder spans.
  convergence_->SetExemplarThreshold(options_.slo_convergence);
  auto hop_histogram = [&](const char* hop) {
    MetricLabels hop_labels = labels;
    hop_labels.emplace_back("hop", hop);
    return &registry.GetHistogram(
        "obiwan_update_hop_ns", hop_labels, DefaultLatencyBuckets(),
        "Per-hop dissemination latency (queue = enqueue to wire send, wire = "
        "send to ack, apply = holder receive to replica apply)");
  };
  hop_queue_ = hop_histogram("queue");
  hop_wire_ = hop_histogram("wire");
  hop_apply_ = hop_histogram("apply");
  auto burn_gauge = [&](const char* window) {
    MetricLabels window_labels = labels;
    window_labels.emplace_back("window", window);
    return &registry.GetGauge(
        "obiwan_update_burn_rate_milli", window_labels,
        "Convergence-SLO burn rate x1000 ((bad/total)/budget) per window");
  };
  burn_fast_ = burn_gauge("fast");
  burn_slow_ = burn_gauge("slow");
  alert_firing_ = &registry.GetGauge(
      "obiwan_update_alert_firing", labels,
      "1 while the convergence burn-rate alert fires in both windows");
}

JourneyTracker::Stripe& JourneyTracker::StripeFor(const Key& key) const {
  return *stripes_[KeyHash{}(key) % stripes_.size()];
}

JourneyTracker::Record* JourneyTracker::FindOrCreate(Stripe& stripe,
                                                     const Key& key) {
  if (Record* found = Find(stripe, key)) return found;
  while (stripe.ring.size() >= per_stripe_) {
    const Record& oldest = stripe.ring.front();
    stripe.index.erase(Key{oldest.id, oldest.version});
    stripe.ring.pop_front();
  }
  stripe.ring.emplace_back();
  Record* record = &stripe.ring.back();
  record->id = key.id;
  record->version = key.version;
  record->seq = seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  stripe.index[key] = record;
  return record;
}

JourneyTracker::Record* JourneyTracker::Find(Stripe& stripe, const Key& key) {
  auto it = stripe.index.find(key);
  return it == stripe.index.end() ? nullptr : it->second;
}

JourneyTracker::Hop& JourneyTracker::HopFor(Record& record,
                                            const net::Address& holder) {
  for (Hop& hop : record.hops) {
    if (hop.holder == holder) return hop;
  }
  record.hops.emplace_back();
  record.hops.back().holder = holder;
  return record.hops.back();
}

void JourneyTracker::OnPutCommit(ObjectId id, std::uint64_t version, Nanos now,
                                 std::size_t recipients, bool push,
                                 TraceId trace) {
  const Key key{id, version};
  Stripe& stripe = StripeFor(key);
  std::lock_guard lock(stripe.mutex);
  Record* record = FindOrCreate(stripe, key);
  record->push = push;
  record->trace = trace;
  record->put_commit = now;
  record->expected = recipients;
  minted_->Inc();
}

void JourneyTracker::OnNotifyEnqueue(ObjectId id, std::uint64_t version,
                                     const net::Address& holder, Nanos now) {
  const Key key{id, version};
  Stripe& stripe = StripeFor(key);
  std::lock_guard lock(stripe.mutex);
  Record* record = Find(stripe, key);
  if (record == nullptr) return;
  Hop& hop = HopFor(*record, holder);
  if (hop.enqueue < 0) hop.enqueue = now;
}

void JourneyTracker::OnWireSend(ObjectId id, std::uint64_t version,
                                const net::Address& holder, Nanos now) {
  const Key key{id, version};
  Stripe& stripe = StripeFor(key);
  std::lock_guard lock(stripe.mutex);
  Record* record = Find(stripe, key);
  if (record == nullptr) return;
  // Retries re-send: keep the latest attempt's send so the wire hop times
  // the round trip that actually delivered.
  HopFor(*record, holder).send = now;
}

void JourneyTracker::OnAckReturn(ObjectId id, std::uint64_t version,
                                 const net::Address& holder, Nanos now,
                                 bool ok) {
  const Key key{id, version};
  Stripe& stripe = StripeFor(key);
  std::lock_guard lock(stripe.mutex);
  Record* record = Find(stripe, key);
  if (record == nullptr) return;
  Hop& hop = HopFor(*record, holder);
  if (!ok || hop.acked) return;  // failures retry; count each holder once
  hop.ack = now;
  hop.acked = true;
  if (hop.enqueue >= 0 && hop.send >= hop.enqueue) {
    hop_queue_->Observe(hop.send - hop.enqueue);
  }
  if (hop.send >= 0 && now >= hop.send) hop_wire_->Observe(now - hop.send);
  ++record->acked;
  if (record->first_ack < 0) record->first_ack = now;
  record->last_ack = std::max(record->last_ack, now);
  if (!record->complete && record->expected > 0 &&
      record->acked >= record->expected && record->put_commit >= 0) {
    record->complete = true;
    record->ttfr = record->first_ack - record->put_commit;
    record->convergence = record->last_ack - record->put_commit;
    FoldCompleted(*record);
  }
}

void JourneyTracker::OnHolderReceive(ObjectId id, std::uint64_t version,
                                     Nanos now, bool push) {
  const Key key{id, version};
  Stripe& stripe = StripeFor(key);
  std::lock_guard lock(stripe.mutex);
  Record* record = FindOrCreate(stripe, key);
  record->push = push;
  if (record->receive < 0) record->receive = now;
}

void JourneyTracker::OnReplicaApply(ObjectId id, std::uint64_t version,
                                    Nanos now) {
  const Key key{id, version};
  Stripe& stripe = StripeFor(key);
  std::lock_guard lock(stripe.mutex);
  Record* record = Find(stripe, key);
  if (record == nullptr || record->receive < 0 || record->apply >= 0) return;
  record->apply = now;
  if (now >= record->receive) hop_apply_->Observe(now - record->receive);
  // A pure holder-side journey (no put here) is done once applied.
  if (record->put_commit < 0) record->complete = true;
}

void JourneyTracker::FoldCompleted(const Record& record) {
  completed_->Inc();
  ttfr_->Observe(record.ttfr);
  {
    // Observe under the journey's flow id so the histogram's tail exemplar
    // carries the TraceId that finds this journey in the flight recorder.
    TraceContext::Scope scope(record.trace);
    convergence_->Observe(record.convergence);
  }
  std::lock_guard lock(summary_mutex_);
  events_.push_back(Event{record.last_ack, record.convergence});
  while (events_.size() > options_.max_alert_events) events_.pop_front();
  slowest_.push_back(ViewOf(record));
  std::sort(slowest_.begin(), slowest_.end(),
            [](const JourneyView& a, const JourneyView& b) {
              return a.convergence > b.convergence;
            });
  if (slowest_.size() > options_.slowest_k) slowest_.resize(options_.slowest_k);
}

JourneyView JourneyTracker::ViewOf(const Record& record) {
  JourneyView view;
  view.id = record.id;
  view.version = record.version;
  view.push = record.push;
  view.trace = record.trace;
  view.put_commit = record.put_commit;
  view.receive = record.receive;
  view.apply = record.apply;
  view.expected = record.expected;
  view.acked = record.acked;
  view.complete = record.complete;
  view.ttfr = record.ttfr;
  view.convergence = record.convergence;
  view.seq = record.seq;
  view.hops.reserve(record.hops.size());
  for (const Hop& hop : record.hops) {
    view.hops.push_back(
        JourneyHopView{hop.holder, hop.enqueue, hop.send, hop.ack, hop.acked});
  }
  return view;
}

std::vector<JourneyView> JourneyTracker::Recent(std::size_t n) const {
  std::vector<JourneyView> all;
  for (const auto& stripe : stripes_) {
    std::lock_guard lock(stripe->mutex);
    for (const Record& record : stripe->ring) all.push_back(ViewOf(record));
  }
  std::sort(all.begin(), all.end(),
            [](const JourneyView& a, const JourneyView& b) {
              return a.seq > b.seq;
            });
  if (all.size() > n) all.resize(n);
  return all;
}

std::vector<JourneyView> JourneyTracker::Slowest() const {
  std::lock_guard lock(summary_mutex_);
  return slowest_;
}

void JourneyTracker::PruneEventsLocked(Nanos now) {
  const Nanos cutoff = now - options_.slow_window;
  while (!events_.empty() && events_.front().at < cutoff) events_.pop_front();
}

JourneyAlert JourneyTracker::EvaluateAlerts() {
  JourneyAlert alert;
  alert.now = clock_.Now();
  alert.slo_convergence = options_.slo_convergence;
  alert.burn_threshold = options_.burn_threshold;
  alert.fast.window = options_.fast_window;
  alert.slow.window = options_.slow_window;
  {
    std::lock_guard lock(summary_mutex_);
    PruneEventsLocked(alert.now);
    const Nanos fast_cutoff = alert.now - options_.fast_window;
    for (const Event& event : events_) {
      const bool bad = event.convergence > options_.slo_convergence;
      ++alert.slow.total;
      if (bad) ++alert.slow.bad;
      if (event.at >= fast_cutoff) {
        ++alert.fast.total;
        if (bad) ++alert.fast.bad;
      }
    }
    const double budget = options_.slo_budget > 0 ? options_.slo_budget : 1.0;
    auto burn = [budget](BurnWindow& w) {
      w.burn_rate = w.total == 0
                        ? 0.0
                        : (static_cast<double>(w.bad) /
                           static_cast<double>(w.total)) /
                              budget;
    };
    burn(alert.fast);
    burn(alert.slow);
    alert.firing = alert.fast.burn_rate >= options_.burn_threshold &&
                   alert.slow.burn_rate >= options_.burn_threshold;
    last_alert_ = alert;
  }
  burn_fast_->Set(static_cast<std::int64_t>(alert.fast.burn_rate * 1000));
  burn_slow_->Set(static_cast<std::int64_t>(alert.slow.burn_rate * 1000));
  alert_firing_->Set(alert.firing ? 1 : 0);
  return alert;
}

Nanos JourneyTracker::WindowConvergenceP99() const {
  std::vector<Nanos> window;
  const Nanos cutoff = clock_.Now() - options_.fast_window;
  {
    std::lock_guard lock(summary_mutex_);
    for (const Event& event : events_) {
      if (event.at >= cutoff) window.push_back(event.convergence);
    }
  }
  if (window.empty()) return 0;
  std::sort(window.begin(), window.end());
  const std::size_t rank = static_cast<std::size_t>(
      0.99 * static_cast<double>(window.size() - 1) + 0.5);
  return window[std::min(rank, window.size() - 1)];
}

std::string JourneyTracker::UpdatesJson(std::size_t recent) {
  std::ostringstream os;
  os << "{\"site\":" << site_ << ",\"now\":" << clock_.Now()
     << ",\"minted\":" << minted() << ",\"completed\":" << completed()
     << ",\"slo_convergence_ns\":" << options_.slo_convergence << ",";
  AppendSummary(os, "ttfr_ns", *ttfr_);
  os << ",";
  AppendSummary(os, "convergence_ns", *convergence_);
  os << ",\"hops\":{";
  AppendSummary(os, "queue", *hop_queue_);
  os << ",";
  AppendSummary(os, "wire", *hop_wire_);
  os << ",";
  AppendSummary(os, "apply", *hop_apply_);
  os << "},\"recent\":[";
  const std::vector<JourneyView> journeys = Recent(recent);
  for (std::size_t i = 0; i < journeys.size(); ++i) {
    if (i != 0) os << ',';
    AppendJourney(os, journeys[i]);
  }
  os << "],\"slowest\":[";
  const std::vector<JourneyView> slowest = Slowest();
  for (std::size_t i = 0; i < slowest.size(); ++i) {
    if (i != 0) os << ',';
    AppendJourney(os, slowest[i]);
  }
  os << "]}\n";
  return os.str();
}

std::string JourneyTracker::AlertsJson() {
  const JourneyAlert alert = EvaluateAlerts();
  std::ostringstream os;
  auto window = [&os](const char* key, const BurnWindow& w) {
    os << "\"" << key << "\":{\"window_s\":" << w.window / kSecond
       << ",\"total\":" << w.total << ",\"bad\":" << w.bad
       << ",\"burn_rate\":" << w.burn_rate << "}";
  };
  os << "{\"now\":" << alert.now << ",\"alerts\":[{"
     << "\"name\":\"update_convergence_burn\",\"state\":\""
     << (alert.firing ? "firing" : "ok")
     << "\",\"slo_convergence_ns\":" << alert.slo_convergence
     << ",\"burn_threshold\":" << alert.burn_threshold << ",";
  window("fast", alert.fast);
  os << ",";
  window("slow", alert.slow);
  os << "}]}\n";
  return os.str();
}

std::string JourneyTracker::ToText(std::size_t recent) {
  const JourneyAlert alert = EvaluateAlerts();
  std::ostringstream os;
  os << "update journeys on site " << site_ << ": minted " << minted()
     << ", completed " << completed() << "\n";
  os << "  ttfr p50/p95/p99 ns: " << ttfr_->P50() << " / " << ttfr_->P95()
     << " / " << ttfr_->P99() << "\n";
  os << "  convergence p50/p95/p99 ns: " << convergence_->P50() << " / "
     << convergence_->P95() << " / " << convergence_->P99() << "\n";
  os << "  hops p95 ns: queue " << hop_queue_->P95() << ", wire "
     << hop_wire_->P95() << ", apply " << hop_apply_->P95() << "\n";
  os << "  burn: fast " << alert.fast.burn_rate << " (" << alert.fast.bad
     << "/" << alert.fast.total << "), slow " << alert.slow.burn_rate << " ("
     << alert.slow.bad << "/" << alert.slow.total << "), threshold "
     << alert.burn_threshold << " -> "
     << (alert.firing ? "FIRING" : "ok") << "\n";
  for (const JourneyView& j : Recent(recent)) {
    os << "  " << ToString(j.id) << " v" << j.version
       << (j.push ? " push" : " invalidate") << " acked " << j.acked << "/"
       << j.expected;
    if (j.convergence >= 0) {
      os << " ttfr " << j.ttfr << " ns, converged " << j.convergence << " ns";
    } else if (j.apply >= 0 && j.receive >= 0) {
      os << " applied " << (j.apply - j.receive) << " ns after receive";
    } else if (!j.complete) {
      os << " in flight";
    }
    if (j.trace.valid()) {
      os << " trace " << j.trace.site << ":" << j.trace.seq;
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace obiwan::obs
