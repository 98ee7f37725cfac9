#include "core/site.h"

#include <algorithm>
#include <deque>

#include "common/flight_recorder.h"
#include "common/log.h"
#include "core/journey.h"

namespace obiwan::core {

namespace {
// Op-latency observations at or above this capture a trace/span exemplar
// (see Histogram::SetExemplarThreshold). Low enough that any real network
// round-trip qualifies, so scrapes of live deployments always carry a few
// trace pointers; in-process simulations only cross it on genuinely slow
// (virtual-time) calls.
constexpr Nanos kDefaultTailExemplarThreshold = 1 * kMicro;

// The single source of truth tying each SiteStats field to its registry
// series. The constructor, Raw() and View() all walk this table, so the
// legacy struct stays a thin adapter over the registry and a new counter is
// one struct field plus one row here.
struct SiteCounterSpec {
  Counter* SiteTelemetry::*handle;
  std::uint64_t SiteStats::*field;
  const char* name;
  const char* help;
};

constexpr SiteCounterSpec kSiteCounters[] = {
    {&SiteTelemetry::object_faults, &SiteStats::object_faults,
     "obiwan_site_object_faults_total", "Proxy-out demands that went remote"},
    {&SiteTelemetry::gets_sent, &SiteStats::gets_sent,
     "obiwan_site_gets_sent_total", "Get requests issued"},
    {&SiteTelemetry::gets_served, &SiteStats::gets_served,
     "obiwan_site_gets_served_total", "Get requests served"},
    {&SiteTelemetry::puts_sent, &SiteStats::puts_sent,
     "obiwan_site_puts_sent_total", "Put/commit batches sent"},
    {&SiteTelemetry::puts_served, &SiteStats::puts_served,
     "obiwan_site_puts_served_total", "Put/commit batches served"},
    {&SiteTelemetry::calls_sent, &SiteStats::calls_sent,
     "obiwan_site_calls_sent_total", "Remote invocations issued"},
    {&SiteTelemetry::calls_served, &SiteStats::calls_served,
     "obiwan_site_calls_served_total", "Remote invocations served"},
    {&SiteTelemetry::proxy_ins_created, &SiteStats::proxy_ins_created,
     "obiwan_site_proxy_ins_created_total", "Provider-side proxy-ins created"},
    {&SiteTelemetry::proxy_outs_created, &SiteStats::proxy_outs_created,
     "obiwan_site_proxy_outs_created_total", "Demander-side proxy-outs created"},
    {&SiteTelemetry::replicas_created, &SiteStats::replicas_created,
     "obiwan_site_replicas_created_total", "Replicas materialized"},
    {&SiteTelemetry::objects_served, &SiteStats::objects_served,
     "obiwan_site_objects_served_total", "Objects serialized into get replies"},
    {&SiteTelemetry::invalidations_sent, &SiteStats::invalidations_sent,
     "obiwan_site_invalidations_sent_total", "Invalidations/pushes delivered"},
    {&SiteTelemetry::invalidations_received, &SiteStats::invalidations_received,
     "obiwan_site_invalidations_received_total", "Invalidations/pushes received"},
    {&SiteTelemetry::replication_bytes_in, &SiteStats::replication_bytes_in,
     "obiwan_site_replication_bytes_in_total",
     "Replica state bytes received (get replies, puts served)"},
    {&SiteTelemetry::replication_bytes_out, &SiteStats::replication_bytes_out,
     "obiwan_site_replication_bytes_out_total",
     "Replica state bytes shipped (get replies served, puts sent)"},
    {&SiteTelemetry::notify_retries, &SiteStats::notify_retries,
     "obiwan_notify_retries_total",
     "Queued holder notifications re-sent after backoff"},
    {&SiteTelemetry::notify_superseded, &SiteStats::notify_superseded,
     "obiwan_notify_superseded_total",
     "Queued notify retries coalesced with a same-holder same-object entry "
     "(superseded by version) instead of deepening the retry queue"},
    {&SiteTelemetry::holders_dropped, &SiteStats::holders_dropped,
     "obiwan_holders_dropped_total",
     "Holders unregistered after consecutive notification failures"},
};

// Add each of `added` to a pin's user list once.
void RegisterUsers(std::vector<net::Address>& users,
                   std::span<const net::Address> added) {
  for (const net::Address& addr : added) {
    if (std::find(users.begin(), users.end(), addr) == users.end()) {
      users.push_back(addr);
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// SiteTelemetry
// ---------------------------------------------------------------------------

SiteTelemetry::SiteTelemetry(SiteId site, MetricsRegistry& metrics) {
  const MetricLabels labels{
      {"site", std::to_string(site)},
      {"inst", std::to_string(MetricsRegistry::NextInstance())}};
  for (const SiteCounterSpec& spec : kSiteCounters) {
    this->*spec.handle = &metrics.GetCounter(spec.name, labels, spec.help);
  }

  masters = &metrics.GetGauge("obiwan_site_masters", labels, "Masters owned");
  replicas = &metrics.GetGauge("obiwan_site_replicas", labels, "Replicas held");
  proxy_ins = &metrics.GetGauge("obiwan_site_proxy_ins", labels,
                                "Live provider-side proxy-ins");

  auto role_gauge = [&](const char* role) {
    MetricLabels role_labels = labels;
    role_labels.emplace_back("role", role);
    return &metrics.GetGauge("obiwan_objects", role_labels,
                             "Objects by replication role (frontier = "
                             "distinct unresolved proxy-out targets)");
  };
  objects_master = role_gauge("master");
  objects_replica = role_gauge("replica");
  objects_frontier = role_gauge("frontier");

  auto staleness_gauge = [&](const char* agg) {
    MetricLabels agg_labels = labels;
    agg_labels.emplace_back("agg", agg);
    return &metrics.GetGauge("obiwan_replica_staleness_versions", agg_labels,
                             "Replica lag behind the known master version");
  };
  staleness_max = staleness_gauge("max");
  staleness_p95 = staleness_gauge("p95");
  staleness_age_max =
      &metrics.GetGauge("obiwan_replica_staleness_age_ns", labels,
                        "Oldest replica's time since last sync (site clock)");
  leases_expiring =
      &metrics.GetGauge("obiwan_leases_expiring", labels,
                        "Leased proxy-ins within half a lease of expiry");

  auto holder_gauge = [&](const char* state) {
    MetricLabels state_labels = labels;
    state_labels.emplace_back("state", state);
    return &metrics.GetGauge("obiwan_holders", state_labels,
                             "Registered holders by health (suspect = at "
                             "least one consecutive notification failure)");
  };
  holders_active = holder_gauge("active");
  holders_suspect = holder_gauge("suspect");
  notify_retry_depth =
      &metrics.GetGauge("obiwan_notify_retry_depth", labels,
                        "Queued notifications awaiting their backoff deadline");

  uptime = &metrics.GetGauge(
      "obiwan_site_uptime_ns", labels,
      "Time since this site was constructed (site clock); a reset to ~0 "
      "means the site restarted");
  RegisterBuildInfo(metrics);

  auto op = [&](const char* name) {
    MetricLabels op_labels = labels;
    op_labels.emplace_back("op", name);
    Histogram& latency =
        metrics.GetHistogram("obiwan_rmi_client_latency_ns", op_labels,
                             DefaultLatencyBuckets(),
                             "Round-trip time of outbound requests (site clock)");
    // Tail observations carry an exemplar (trace + span id) by default: the
    // request runs inside SpanScope/TraceContext when the histogram is fed,
    // so a scrape can point at the flight-recorder trace of a slow call.
    latency.SetExemplarThreshold(kDefaultTailExemplarThreshold);
    return Op{&latency,
              &metrics.GetCounter("obiwan_rmi_client_errors_total", op_labels,
                                  "Outbound requests that failed"),
              name};
  };
  op_call = op("call");
  op_get = op("get");
  op_put = op("put");
  op_commit = op("commit");
  op_ping = op("ping");
  op_release = op("release");
  op_renew = op("renew");
  op_notify = op("notify");
  op_inspect = op("inspect");
}

SiteStats SiteTelemetry::Raw() const {
  SiteStats s;
  for (const SiteCounterSpec& spec : kSiteCounters) {
    s.*spec.field = (this->*spec.handle)->Value();
  }
  return s;
}

SiteStats SiteTelemetry::View() const {
  auto since = [](std::uint64_t now, std::uint64_t base) {
    return now > base ? now - base : 0;
  };
  const SiteStats raw = Raw();
  SiteStats s;
  for (const SiteCounterSpec& spec : kSiteCounters) {
    s.*spec.field = since(raw.*spec.field, baseline.*spec.field);
  }
  return s;
}

// ---------------------------------------------------------------------------
// ProxyOut
// ---------------------------------------------------------------------------

Result<std::shared_ptr<Shareable>> ProxyOut::Demand() {
  return site_->DemandThrough(descriptor_, descriptor_.target, mode_,
                              /*refresh=*/false);
}

// ---------------------------------------------------------------------------
// Construction / lifecycle
// ---------------------------------------------------------------------------

Site::Site(SiteId id, std::unique_ptr<net::Transport> transport, Clock& clock)
    : id_(id),
      transport_(std::move(transport)),
      clock_(clock),
      policy_(std::make_unique<NoConsistency>()),
      telemetry_(id, MetricsRegistry::Default()),
      fanout_(clock) {
  created_at_ = clock_.Now();
  telemetry_.uptime->Set(0);
  sinks_.SetFlight(&flight_);
  // The state provider lets flight dumps embed this site's replica-table
  // summary next to its spans; it runs at dump time on the dumping thread
  // (the site lock is never held across a dump trigger).
  FlightRecorder::Global().Register(id_, &flight_,
                                    [this] { return ReplicaSummaryJson(); });
  dispatcher_.SetClock(&clock_);
  dispatcher_.SetTrace(&sinks_, id_);
  dispatcher_.RegisterService(rmi::MessageKind::kCall, this);
  dispatcher_.RegisterService(rmi::MessageKind::kPing, this);
  dispatcher_.RegisterService(rmi::MessageKind::kGet, this);
  dispatcher_.RegisterService(rmi::MessageKind::kPut, this);
  dispatcher_.RegisterService(rmi::MessageKind::kCommit, this);
  dispatcher_.RegisterService(rmi::MessageKind::kInvalidate, this);
  dispatcher_.RegisterService(rmi::MessageKind::kRelease, this);
  dispatcher_.RegisterService(rmi::MessageKind::kRenew, this);
  dispatcher_.RegisterService(rmi::MessageKind::kPush, this);
  dispatcher_.RegisterService(rmi::MessageKind::kCallBatch, this);
  dispatcher_.RegisterService(rmi::MessageKind::kInspect, this);
}

Site::~Site() {
  // First stop the admin endpoint: its handlers capture `this` and may be
  // mid-scrape on the serving thread.
  StopAdmin();
  Stop();
  FlightRecorder::Global().Unregister(&flight_);
  // The object graph is reference-counted (shared_ptr), so cyclic graphs —
  // which OBIWAN fully supports — would never free themselves (the Java
  // prototype leaned on the JVM's tracing GC here). The site owns its
  // masters and replicas: unlink every reference field at teardown so cycles
  // break. Objects an application still holds survive individually, but
  // their links are gone once their site is.
  auto unlink = [](Shareable& obj) {
    for (const RefFieldInfo& rf : obj.obiwan_class().refs()) {
      rf.get(obj).Reset();
    }
  };
  table_.ForEachMaster(
      [&](ObjectId, MasterEntry& entry) { unlink(*entry.obj); });
  table_.ForEachReplica(
      [&](ObjectId, ReplicaEntry& entry) { unlink(*entry.obj); });
  // The registry outlives the site; zero the live-table gauges so this
  // instance's series does not freeze at its last value.
  telemetry_.masters->Set(0);
  telemetry_.replicas->Set(0);
  telemetry_.proxy_ins->Set(0);
  telemetry_.objects_master->Set(0);
  telemetry_.objects_replica->Set(0);
  telemetry_.objects_frontier->Set(0);
  telemetry_.staleness_max->Set(0);
  telemetry_.staleness_p95->Set(0);
  telemetry_.staleness_age_max->Set(0);
  telemetry_.leases_expiring->Set(0);
  telemetry_.holders_active->Set(0);
  telemetry_.holders_suspect->Set(0);
  telemetry_.notify_retry_depth->Set(0);
  telemetry_.uptime->Set(0);
}

Status Site::Start() {
  if (started_) return FailedPreconditionError("site already started");
  OBIWAN_RETURN_IF_ERROR(transport_->Serve(&dispatcher_));
  started_ = true;
  return Status::Ok();
}

void Site::Stop() {
  if (!started_) return;
  transport_->StopServing();
  started_ = false;
}

void Site::SetRequestDeadline(Nanos deadline) {
  request_deadline_ = deadline;
}

Nanos Site::DeadlineBudget() const {
  const Nanos deadline = request_deadline_ != 0 ? request_deadline_
                                                : transport_->default_deadline();
  return deadline > 0 ? deadline : -1;
}

Result<Bytes> Site::TimedRequest(const SiteTelemetry::Op& op,
                                 const net::Address& to, BytesView frame) {
  SpanScope span(&sinks_, clock_, id_, "rpc", std::string(op.name) + " " + to,
                 TraceContext::Current());
  const Nanos start = clock_.Now();
  Result<Bytes> reply =
      transport_->Request(to, frame, net::CallOptions{request_deadline_});
  op.latency->Observe(clock_.Now() - start);
  if (!reply.ok()) {
    op.errors->Inc();
    span.MarkFailed();
    Trace("error", std::string(op.name) + " to " + to + ": " +
                       reply.status().ToString());
    // A Status error escaping the site is the flight recorder's cue: if a
    // dump is armed, this writes the black boxes of every site.
    FlightRecorder::Global().NotifyFailure(reply.status().message());
  }
  return reply;
}

void Site::SyncGauges() {
  telemetry_.masters->Set(static_cast<std::int64_t>(table_.master_count()));
  telemetry_.replicas->Set(static_cast<std::int64_t>(table_.replica_count()));
  std::size_t pins;
  {
    std::lock_guard lock(pins_mutex_);
    pins = proxy_ins_.size();
  }
  telemetry_.proxy_ins->Set(static_cast<std::int64_t>(pins));
}

void Site::RefreshTelemetry() {
  telemetry_.uptime->Set(clock_.Now() - created_at_);
  SyncGauges();
  UpdateReplicationGauges();
  std::lock_guard lock(mutex_);
  SyncHolderGaugesLocked();
}

// ---------------------------------------------------------------------------
// Naming
// ---------------------------------------------------------------------------

void Site::HostRegistry() {
  registry_service_.emplace();
  registry_service_->AttachTo(dispatcher_);
  if (!registry_client_) UseRegistry(address());
}

void Site::UseRegistry(net::Address registry_address) {
  registry_client_.emplace(*transport_, std::move(registry_address));
}

Result<rmi::BoundObject> Site::AnchoredBinding(
    const std::shared_ptr<Shareable>& obj) {
  if (!registry_client_) {
    return FailedPreconditionError("no registry configured (UseRegistry/HostRegistry)");
  }
  ObjectId oid = EnsureId(obj);
  std::lock_guard lock(pins_mutex_);
  ProxyId pin = NewProxyInLocked(oid, {});
  // A bound name is advertised indefinitely; its pin must not be swept by
  // the lease collector while the registry still points at it.
  auto& entry = proxy_ins_.at(pin);
  entry.anchored = true;
  entry.expires_at = 0;
  return rmi::BoundObject{address(), oid, pin, obj->obiwan_class().name()};
}

Status Site::Bind(const std::string& name, const std::shared_ptr<Shareable>& obj) {
  OBIWAN_ASSIGN_OR_RETURN(rmi::BoundObject bo, AnchoredBinding(obj));
  return registry_client_->Bind(name, bo);
}

Status Site::Rebind(const std::string& name, const std::shared_ptr<Shareable>& obj) {
  OBIWAN_ASSIGN_OR_RETURN(rmi::BoundObject bo, AnchoredBinding(obj));
  return registry_client_->Rebind(name, bo);
}

Status Site::Unbind(const std::string& name) {
  if (!registry_client_) {
    return FailedPreconditionError("no registry configured (UseRegistry/HostRegistry)");
  }
  return registry_client_->Unbind(name);
}

// ---------------------------------------------------------------------------
// Masters and identity
// ---------------------------------------------------------------------------

ObjectId Site::Export(const std::shared_ptr<Shareable>& obj) {
  return EnsureId(obj);
}

ObjectId Site::EnsureId(const std::shared_ptr<Shareable>& obj) {
  // Fast path: the pointer-identity stripes resolve known objects (masters
  // and replicas alike) without touching any shard.
  ObjectId existing = table_.PtrId(obj.get());
  if (existing.valid()) return existing;
  // Mint a candidate id, take its shard, then race for the pointer binding.
  // The winner emplaces the master record while still holding the shard
  // guard, so a loser that looks the returned id up blocks until the record
  // exists; a lost race wastes the minted id, which is harmless (ids are
  // never required to be dense). Must not be called with another shard
  // guard held (the world is fine: guards no-op under it).
  ObjectId oid{id_, next_object_.fetch_add(1, std::memory_order_relaxed)};
  ObjectTable::ShardGuard guard(table_, oid);
  ObjectId winner = table_.PtrIdOrInsert(obj.get(), oid);
  if (winner != oid) return winner;
  MasterEntry entry;
  entry.obj = obj;
  entry.last_update = clock_.Now();
  table_.EmplaceMaster(oid, std::move(entry));
  telemetry_.masters->Set(static_cast<std::int64_t>(table_.master_count()));
  return oid;
}

Result<std::uint64_t> Site::MasterVersion(ObjectId id) const {
  ObjectTable::ShardGuard guard(table_, id);
  const MasterEntry* entry = table_.Master(id);
  if (entry == nullptr) return NotFoundError("not a master here: " + ToString(id));
  return entry->version;
}

void Site::TouchPin(ProxyInEntry& entry) {
  if (proxy_lease_ > 0 && !entry.anchored) {
    entry.expires_at = clock_.Now() + proxy_lease_;
  }
}

ProxyId Site::NewProxyIn(ObjectId target, std::span<const net::Address> users) {
  std::lock_guard lock(pins_mutex_);
  return NewProxyInLocked(target, users);
}

ProxyId Site::NewProxyInLocked(ObjectId target,
                               std::span<const net::Address> users) {
  // Reuse an existing single-object proxy-in for the same target; repeated
  // gets of one object do not need distinct channels.
  if (auto it = pin_by_target_.find(target); it != pin_by_target_.end()) {
    ProxyInEntry& entry = proxy_ins_.at(it->second);
    TouchPin(entry);
    RegisterUsers(entry.users, users);
    return it->second;
  }
  ProxyId pin{id_, next_pin_++};
  ProxyInEntry& entry = proxy_ins_[pin];
  entry.target = target;
  pin_by_target_.emplace(target, pin);
  TouchPin(entry);
  RegisterUsers(entry.users, users);
  telemetry_.proxy_ins_created->Inc();
  telemetry_.proxy_ins->Set(static_cast<std::int64_t>(proxy_ins_.size()));
  clock_.Sleep(proxy_export_cost_);
  return pin;
}

ProxyId Site::NewClusterProxyIn(ObjectId root, std::vector<ObjectId> members,
                                std::span<const net::Address> users) {
  std::lock_guard lock(pins_mutex_);
  ProxyId pin{id_, next_pin_++};
  ProxyInEntry& entry = proxy_ins_[pin];
  entry.target = root;
  entry.members = std::move(members);
  entry.cluster = true;
  TouchPin(entry);
  RegisterUsers(entry.users, users);
  telemetry_.proxy_ins_created->Inc();
  telemetry_.proxy_ins->Set(static_cast<std::int64_t>(proxy_ins_.size()));
  clock_.Sleep(proxy_export_cost_);
  return pin;
}

std::size_t Site::CollectExpiredProxyIns() {
  std::size_t collected = 0;
  {
    std::lock_guard lock(pins_mutex_);
    if (proxy_lease_ <= 0) return 0;
    const Nanos now = clock_.Now();
    for (auto it = proxy_ins_.begin(); it != proxy_ins_.end();) {
      if (it->second.expires_at != 0 && it->second.expires_at <= now) {
        if (auto tit = pin_by_target_.find(it->second.target);
            tit != pin_by_target_.end() && tit->second == it->first) {
          pin_by_target_.erase(tit);
        }
        it = proxy_ins_.erase(it);
        ++collected;
      } else {
        ++it;
      }
    }
    telemetry_.proxy_ins->Set(static_cast<std::int64_t>(proxy_ins_.size()));
  }
  return collected;
}

ProxyDescriptor Site::DescriptorFor(ProxyId pin, ObjectId target,
                                    std::string class_name) const {
  return ProxyDescriptor{pin, transport_->LocalAddress(), target,
                         std::move(class_name)};
}

// Caller holds the covering shard guard (or the world).
std::shared_ptr<Shareable> Site::FindLocalUnlocked(ObjectId id) const {
  return table_.Find(id);
}

Result<std::shared_ptr<Shareable>> Site::FindLocal(ObjectId id) const {
  std::shared_ptr<Shareable> obj = table_.FindLocked(id);
  if (obj == nullptr) return NotFoundError("object not present: " + ToString(id));
  return obj;
}

// Caller holds the shard guard of `id` (or the world) for as long as the
// returned pointers are used.
Result<Site::MetaRef> Site::FindMeta(ObjectId id) {
  if (MasterEntry* e = table_.Master(id)) {
    return MetaRef{e->obj, &e->version, &e->policy_state, &e->holders};
  }
  if (ReplicaEntry* e = table_.Replica(id)) {
    return MetaRef{e->obj, &e->version, &e->policy_state, &e->holders};
  }
  return NotFoundError("object not present: " + ToString(id));
}

std::size_t Site::master_count() const { return table_.master_count(); }
std::size_t Site::replica_count() const { return table_.replica_count(); }
std::size_t Site::proxy_in_count() const {
  std::lock_guard lock(pins_mutex_);
  return proxy_ins_.size();
}

void Site::SetConsistencyPolicy(std::unique_ptr<ConsistencyPolicy> policy) {
  // Policy hooks run under shard guards; holding the world excludes them
  // all, so the swap is safe even against in-flight protocol traffic.
  ObjectTable::WorldGuard guard(table_);
  if (policy != nullptr) policy_ = std::move(policy);
}

// ---------------------------------------------------------------------------
// Records: capture, export and bind references
// ---------------------------------------------------------------------------

std::vector<Site::RefSnap> Site::CaptureLocked(const Shareable& obj,
                                               Bytes& fields) {
  const ClassInfo& ci = obj.obiwan_class();
  wire::Writer w;
  ci.EncodeFields(obj, w);
  fields = std::move(w).Take();
  std::vector<RefSnap> snaps;
  snaps.reserve(ci.refs().size());
  for (const RefFieldInfo& rf : ci.refs()) {
    const RefBase& rb = rf.get_const(obj);
    snaps.push_back(RefSnap{rb.local(), rb.proxy()});
  }
  return snaps;
}

std::vector<RefEntry> Site::ExportRefs(
    const std::vector<RefSnap>& snaps,
    const std::unordered_set<ObjectId, ObjectIdHash>& inline_ids,
    std::span<const net::Address> users) {
  std::vector<RefEntry> refs;
  refs.reserve(snaps.size());
  for (const RefSnap& snap : snaps) {
    if (snap.proxy != nullptr) {
      refs.push_back(RefEntry::Proxy(snap.proxy->descriptor()));
    } else if (snap.local == nullptr) {
      refs.push_back(RefEntry::Null());
    } else if (ObjectId tid = EnsureId(snap.local); inline_ids.contains(tid)) {
      refs.push_back(RefEntry::Inline(tid));
    } else {
      refs.push_back(RefEntry::Proxy(DescriptorFor(
          NewProxyIn(tid, users), tid, snap.local->obiwan_class().name())));
    }
  }
  return refs;
}

bool Site::BindRef(RefBase& rb, const RefEntry& entry,
                   std::shared_ptr<Shareable> local, ReplicationMode mode) {
  if (entry.tag == RefEntry::Tag::kNull) {
    rb.Reset();
  } else if (local != nullptr) {
    // The target is already present here: bind directly, no proxy-out.
    rb.BindLocal(entry.target, std::move(local));
  } else if (entry.tag == RefEntry::Tag::kInline) {
    return false;
  } else {
    rb.BindProxy(std::make_shared<ProxyOut>(this, entry.proxy, mode));
    telemetry_.proxy_outs_created->Inc();
  }
  return true;
}

// ---------------------------------------------------------------------------
// Provider side: Get
// ---------------------------------------------------------------------------

Result<GetReply> Site::ServeGet(const net::Address& from, const GetRequest& req) {
  SpanScope span(&sinks_, clock_, id_, "serve.get",
                 "root " + ToString(req.root) + " for " + from +
                     (req.refresh ? " (refresh)" : ""),
                 TraceContext::Current());
  telemetry_.gets_served->Inc();

  // Pin check + lease touch under the pins mutex only; the batch walk below
  // takes shard guards, which must never nest inside a leaf lock.
  bool pin_cluster = false;
  std::vector<ObjectId> pin_members;
  {
    std::lock_guard pins(pins_mutex_);
    auto pit = proxy_ins_.find(req.pin);
    if (pit == proxy_ins_.end()) {
      return NotFoundError("unknown proxy-in at provider");
    }
    TouchPin(pit->second);
    pin_cluster = pit->second.cluster;
    if (pin_cluster) pin_members = pit->second.members;
  }

  // --- select the batch -----------------------------------------------------
  std::vector<ObjectId> batch_ids;
  std::vector<std::shared_ptr<Shareable>> batch_objs;
  std::unordered_set<ObjectId, ObjectIdHash> in_batch;

  auto add = [&](ObjectId oid, std::shared_ptr<Shareable> obj) {
    in_batch.insert(oid);
    batch_ids.push_back(oid);
    batch_objs.push_back(std::move(obj));
  };

  if (req.refresh) {
    // Refresh returns current state of what the pin covers: the whole
    // cluster for a cluster pin, the requested root otherwise.
    if (pin_cluster) {
      for (ObjectId member : pin_members) {
        if (auto obj = table_.FindLocked(member)) add(member, std::move(obj));
      }
    } else {
      auto obj = table_.FindLocked(req.root);
      if (obj == nullptr) return NotFoundError("refresh root not present");
      add(req.root, std::move(obj));
    }
    if (batch_ids.empty()) return NotFoundError("nothing left to refresh");
  } else {
    std::shared_ptr<Shareable> root = table_.FindLocked(req.root);
    if (root == nullptr) return NotFoundError("get root not present");

    const bool by_count = req.mode.kind == ReplicationMode::Kind::kIncremental ||
                          req.mode.kind == ReplicationMode::Kind::kCluster;
    const std::uint32_t limit = by_count ? std::max<std::uint32_t>(req.mode.count, 1)
                                         : 0;  // 0 = unlimited

    // Breadth-first expansion from the root; boundaries are refs that are
    // unresolved proxies here (forwarded) or nodes beyond the batch budget.
    // Each node's children are read under its own shard guard and their ids
    // assigned after it is released (EnsureId may lock other shards).
    std::deque<std::pair<ObjectId, std::uint32_t>> queue;
    queue.emplace_back(EnsureId(root), 0);
    while (!queue.empty()) {
      auto [oid, depth] = queue.front();
      queue.pop_front();
      if (in_batch.contains(oid)) continue;
      if (limit != 0 && batch_ids.size() >= limit) break;
      std::shared_ptr<Shareable> obj;
      std::vector<std::shared_ptr<Shareable>> children;
      {
        ObjectTable::ShardGuard guard(table_, oid);
        obj = table_.Find(oid);
        if (obj == nullptr) continue;
        const bool at_frontier =
            req.mode.kind == ReplicationMode::Kind::kClusterDepth &&
            depth >= req.mode.depth;  // depth-bounded cluster boundary
        if (!at_frontier) {
          for (const RefFieldInfo& rf : obj->obiwan_class().refs()) {
            RefBase& rb = rf.get(*obj);
            if (rb.IsLocal()) children.push_back(rb.local());
          }
        }
      }
      add(oid, std::move(obj));
      for (auto& child : children) {
        queue.emplace_back(EnsureId(child), depth + 1);
      }
    }
  }

  // --- serialize -------------------------------------------------------------
  const std::span<const net::Address> user(&from, 1);
  GetReply reply;
  const bool shared_pair = req.mode.SharedProxyPair() && !req.refresh;
  if (shared_pair) {
    ProxyId cpin = NewClusterProxyIn(batch_ids.front(), batch_ids, user);
    reply.cluster = ClusterInfo{
        DescriptorFor(cpin, batch_ids.front(),
                      batch_objs.front()->obiwan_class().name()),
        batch_ids};
  }

  reply.objects.reserve(batch_ids.size());
  for (ObjectId oid : batch_ids) {
    ObjectRecord rec;
    rec.id = oid;
    std::vector<RefSnap> snaps;
    {
      // One consistent snapshot per object: fields, version, policy data and
      // ref targets all read under the record's shard guard. Holder
      // registration rides the same guard with the site mutex nested inside
      // (shard -> site is the legal lock order), so registering can never
      // interleave with a concurrent DropHolder sweep, which holds both.
      ObjectTable::ShardGuard guard(table_, oid);
      OBIWAN_ASSIGN_OR_RETURN(MetaRef meta, FindMeta(oid));
      rec.class_name = meta.obj->obiwan_class().name();
      rec.version = *meta.version;
      rec.policy_data = policy_->MakeGetData(
          MasterView{oid, *meta.version, *meta.policy_state, *meta.holders},
          from);
      snaps = CaptureLocked(*meta.obj, rec.fields);

      table_.LinkHolder(oid, from);
      if (MasterEntry* master = table_.Master(oid)) ++master->gets_served;
      {
        // A (re-)registering holder starts healthy: a get proves the device
        // is back, even if it was dropped as unreachable earlier.
        std::lock_guard health(mutex_);
        holder_health_[from].consecutive_failures = 0;
      }
    }
    rec.refs = ExportRefs(snaps, in_batch, user);

    if (!req.refresh && !shared_pair) {
      // Incremental mode: the per-object proxy pair of §4.2, giving this
      // replica its individual put/refresh channel.
      rec.provider = DescriptorFor(NewProxyIn(oid, user), oid, rec.class_name);
    }

    telemetry_.objects_served->Inc();
    reply.objects.push_back(std::move(rec));
  }

  {
    std::lock_guard lock(mutex_);
    SyncHolderGaugesLocked();
  }
  return reply;
}

// ---------------------------------------------------------------------------
// Provider side: Put
// ---------------------------------------------------------------------------

Result<PutReply> Site::ServePut(const net::Address& from, const PutRequest& req) {
  SpanScope span(&sinks_, clock_, id_, "serve.put",
                 std::to_string(req.items.size()) + " item(s) from " + from +
                     (req.transactional ? " (tx)" : ""),
                 TraceContext::Current());
  telemetry_.puts_served->Inc();

  {
    std::lock_guard pins(pins_mutex_);
    auto pit = proxy_ins_.find(req.pin);
    if (pit == proxy_ins_.end()) {
      return NotFoundError("unknown proxy-in at provider");
    }
    TouchPin(pit->second);
  }
  if (req.items.empty()) return InvalidArgumentError("empty put");

  // Pre-resolve every referenced target before taking the batch guard: ref
  // targets live in arbitrary shards outside it, and no shard guard may be
  // acquired while one is held.
  std::unordered_map<ObjectId, std::shared_ptr<Shareable>, ObjectIdHash>
      ref_targets;
  std::vector<ObjectId> batch_ids;
  batch_ids.reserve(req.items.size());
  for (const PutItem& item : req.items) {
    batch_ids.push_back(item.id);
    for (const RefEntry& entry : item.refs) {
      if (entry.target.valid() && !ref_targets.contains(entry.target)) {
        ref_targets.emplace(entry.target, table_.FindLocked(entry.target));
      }
    }
  }
  auto ref_target = [&](ObjectId tid) -> std::shared_ptr<Shareable> {
    auto it = ref_targets.find(tid);
    return it != ref_targets.end() ? it->second : nullptr;
  };

  PutReply reply;
  // Notifications (invalidations / pushes) are collected under the batch's
  // shard guards but published after releasing them — network I/O under an
  // object lock deadlocks when the recipient is served by another thread of
  // this process.
  std::vector<UpdateGroup> groups;

  {
    // All item shards locked together (ascending order): a multi-object put
    // (cluster or transaction) validates and applies as one atomic unit.
    ObjectTable::BatchGuard guard(table_, batch_ids);

    // Validate everything before applying anything, so the batch is
    // all-or-nothing.
    struct Target {
      MetaRef meta;
      const PutItem* item;
      const ClassInfo* ci;
    };
    std::vector<Target> targets;
    targets.reserve(req.items.size());
    for (const PutItem& item : req.items) {
      OBIWAN_ASSIGN_OR_RETURN(MetaRef meta, FindMeta(item.id));
      const ClassInfo& ci = meta.obj->obiwan_class();
      if (req.transactional && item.base_version != *meta.version) {
        return ConflictError("transaction conflict on " + ToString(item.id) +
                             ": expected version " + std::to_string(item.base_version) +
                             ", master at " + std::to_string(*meta.version));
      }
      if (item.read_only) {
        if (!req.transactional) {
          return InvalidArgumentError("read-only item outside a transaction");
        }
        targets.push_back(Target{std::move(meta), &item, &ci});
        continue;
      }
      if (item.refs.size() != ci.refs().size()) {
        return DataLossError("put ref schema mismatch for " + ToString(item.id));
      }
      OBIWAN_RETURN_IF_ERROR(policy_->ValidatePut(
          MasterView{item.id, *meta.version, *meta.policy_state, *meta.holders},
          PutView{from, item.id, item.base_version, AsView(item.policy_data)}));
      targets.push_back(Target{std::move(meta), &item, &ci});
    }

    reply.new_versions.reserve(targets.size());
    for (Target& t : targets) {
      if (t.item->read_only) {
        reply.new_versions.push_back(*t.meta.version);
        continue;
      }
      wire::Reader fields(AsView(t.item->fields));
      OBIWAN_RETURN_IF_ERROR(t.ci->DecodeFields(*t.meta.obj, fields));

      const auto& ref_infos = t.ci->refs();
      for (std::size_t j = 0; j < ref_infos.size(); ++j) {
        const RefEntry& entry = t.item->refs[j];
        // An unresolvable inline id (an object this provider has never seen,
        // with no channel supplied) keeps the old ref.
        BindRef(ref_infos[j].get(*t.meta.obj), entry, ref_target(entry.target),
                ReplicationMode::Incremental());
      }

      ++*t.meta.version;
      reply.new_versions.push_back(*t.meta.version);
      if (MasterEntry* master = table_.Master(t.item->id)) {
        ++master->puts_accepted;
        master->last_update = clock_.Now();
      } else if (ReplicaEntry* replica = table_.Replica(t.item->id)) {
        // A re-exported replica accepted a downstream put: it is now ahead of
        // what it last synchronised from its own master.
        replica->known_master_version =
            std::max(replica->known_master_version, *t.meta.version);
      }

      UpdateGroup& group = groups.emplace_back(
          UpdateGroup{t.item->id, *t.meta.version, {}});
      for (net::Address addr : policy_->AfterPut(
               MasterView{t.item->id, *t.meta.version, *t.meta.policy_state,
                          *t.meta.holders},
               PutView{from, t.item->id, t.item->base_version,
                       AsView(t.item->policy_data)})) {
        if (addr != from) group.recipients.push_back(std::move(addr));
      }
    }
  }

  // An unreachable holder is retried with backoff and eventually dropped
  // (DispatchNotifications); its next put is still caught by the policy's
  // version check.
  PublishUpdates(std::move(groups));
  return reply;
}

Result<ObjectRecord> Site::BuildPushRecord(
    ObjectId id, std::span<const net::Address> recipients) {
  ObjectRecord rec;
  rec.id = id;
  std::vector<RefSnap> snaps;
  {
    ObjectTable::ShardGuard guard(table_, id);
    OBIWAN_ASSIGN_OR_RETURN(MetaRef meta, FindMeta(id));
    rec.class_name = meta.obj->obiwan_class().name();
    rec.version = *meta.version;
    snaps = CaptureLocked(*meta.obj, rec.fields);
  }
  // Nothing travels inline: every local target goes out as one shared pin
  // that each recipient of this record can fault through.
  rec.refs = ExportRefs(snaps, {}, recipients);
  return rec;
}

void Site::PublishUpdates(std::vector<UpdateGroup> groups) {
  std::vector<OutboundNotify> outbound;
  const bool push = policy_->PushUpdatesOnPut();
  for (UpdateGroup& group : groups) {
    if (group.recipients.empty()) continue;
    wire::Writer body;
    if (push) {
      Result<ObjectRecord> record = BuildPushRecord(group.id, group.recipients);
      if (!record.ok()) continue;
      wire::Encode(body, *record);
    } else {
      wire::Encode(body, InvalidateRequest{{group.id}, {group.version}});
    }
    const std::size_t payload = body.size();
    auto frame = std::make_shared<const Bytes>(rmi::WrapRequest(
        push ? rmi::MessageKind::kPush : rmi::MessageKind::kInvalidate, body,
        TraceContext::Current(), DeadlineBudget()));
    // Mint this update's journey: (id, version) identifies it on every site
    // it touches, and each recipient's notification records its enqueue now
    // so queue time (fanout batch + any retry backoff) is measurable.
    JourneySink* journey = journey_sink();
    if (journey != nullptr) {
      const Nanos now = clock_.Now();
      journey->OnPutCommit(group.id, group.version, now,
                           group.recipients.size(), push,
                           TraceContext::Current());
      for (const net::Address& addr : group.recipients) {
        journey->OnNotifyEnqueue(group.id, group.version, addr, now);
      }
    }
    for (net::Address& addr : group.recipients) {
      outbound.push_back(OutboundNotify{std::move(addr), frame, payload,
                                        group.id, push, group.version});
    }
  }
  {
    std::lock_guard lock(mutex_);
    CollectDueRetriesLocked(outbound);
  }
  DispatchNotifications(std::move(outbound));
}

Status Site::MarkMasterUpdated(ObjectId id) {
  // A master mutated in place (through a local reference, not a put). Bump
  // its version and notify holders exactly as an accepted put would, so
  // remote replicas become observably stale.
  std::vector<UpdateGroup> updates(1);
  UpdateGroup& update = updates.front();
  update.id = id;
  {
    ObjectTable::ShardGuard guard(table_, id);
    MasterEntry* e = table_.Master(id);
    if (e == nullptr) {
      return NotFoundError("not a master here: " + ToString(id));
    }
    ++e->version;
    e->last_update = clock_.Now();
    update.version = e->version;
    update.recipients = e->holders;  // snapshot; notify outside the guard
  }
  Trace("update",
        ToString(id) + " now at version " + std::to_string(update.version));

  // BuildPushRecord takes the same shard's guard, so publishing runs after
  // the bump above is released. A racing second bump just makes the pushed
  // record carry an even newer version — the demander's monotonic apply
  // guard handles that.
  PublishUpdates(std::move(updates));
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Update fanout & holder lifecycle
// ---------------------------------------------------------------------------

void Site::SetNotifyFanout(std::size_t width) { fanout_.set_width(width); }

void Site::SetHolderFailureThreshold(std::uint32_t threshold) {
  std::lock_guard lock(mutex_);
  holder_failure_threshold_ = threshold;
}

void Site::SetNotifyRetryPolicy(NotifyRetryPolicy policy) {
  std::lock_guard lock(mutex_);
  notify_retry_policy_ = policy;
}

void Site::DispatchNotifications(std::vector<OutboundNotify> batch) {
  if (batch.empty()) return;
  std::vector<FanoutPool::Task> tasks;
  tasks.reserve(batch.size());
  for (const OutboundNotify& note : batch) {
    tasks.push_back([this, &note] {
      // Wire-send and ack-return stamps bracket the notify round trip
      // inside the fanout task, so each recipient's hop times are its own
      // even under the jumpable virtual clock (RunAll finishes at the max).
      JourneySink* journey = journey_sink();
      if (journey != nullptr) {
        journey->OnWireSend(note.id, note.version, note.addr, clock_.Now());
      }
      Status status =
          TimedRequest(telemetry_.op_notify, note.addr, AsView(*note.frame))
              .status();
      if (journey != nullptr) {
        journey->OnAckReturn(note.id, note.version, note.addr, clock_.Now(),
                             status.ok());
      }
      return status;
    });
  }
  std::vector<Status> statuses = fanout_.RunAll(std::move(tasks));

  // Holders that crossed the failure threshold are dropped *after* the site
  // mutex is released: DropHolder takes the table's world guard, and shard
  // locks must never be acquired under the site mutex (it is a leaf).
  std::vector<net::Address> drops;
  {
    std::lock_guard lock(mutex_);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      OutboundNotify& note = batch[i];
      if (statuses[i].ok()) {
        telemetry_.invalidations_sent->Inc();
        // Symmetric with the receiver's Handle(kPush), which counts the wire
        // body: payload bytes, not the envelope.
        if (note.push) telemetry_.replication_bytes_out->Inc(note.payload_bytes);
        if (auto hit = holder_health_.find(note.addr);
            hit != holder_health_.end()) {
          hit->second.consecutive_failures = 0;
        }
      } else {
        OBIWAN_LOG(kDebug) << "notification to " << note.addr
                           << " failed: " << statuses[i];
        net::Address addr = note.addr;
        if (HandleNotifyFailureLocked(std::move(note))) {
          drops.push_back(std::move(addr));
        }
      }
    }
    SyncHolderGaugesLocked();
  }
  for (const net::Address& addr : drops) DropHolder(addr);
}

void Site::CollectDueRetriesLocked(std::vector<OutboundNotify>& out) {
  if (notify_retries_.empty()) return;
  const Nanos now = clock_.Now();
  for (auto it = notify_retries_.begin(); it != notify_retries_.end();) {
    if (it->next_attempt <= now) {
      telemetry_.notify_retries->Inc();
      out.push_back(std::move(it->note));
      it = notify_retries_.erase(it);
    } else {
      ++it;
    }
  }
  telemetry_.notify_retry_depth->Set(
      static_cast<std::int64_t>(notify_retries_.size()));
}

bool Site::HandleNotifyFailureLocked(OutboundNotify note) {
  auto hit = holder_health_.find(note.addr);
  if (hit == holder_health_.end()) {
    // The holder was dropped or released while this batch was in flight.
    return false;
  }
  ++hit->second.consecutive_failures;
  if (holder_failure_threshold_ != 0 &&
      hit->second.consecutive_failures >= holder_failure_threshold_) {
    return true;  // caller drops the holder once the site mutex is released
  }
  if (note.attempt >= notify_retry_policy_.max_attempts) return false;
  // Carry the previous backoff forward instead of re-deriving the schedule
  // from attempt zero: the old loop re-read the policy's initial_backoff on
  // every requeue, so a policy change mid-flight silently reset (or blew up)
  // an in-flight notification's schedule.
  note.backoff = note.backoff == 0
                     ? notify_retry_policy_.initial_backoff
                     : std::min(note.backoff * 2, notify_retry_policy_.max_backoff);
  const Nanos backoff = std::min(note.backoff, notify_retry_policy_.max_backoff);
  ++note.attempt;
  const Nanos next_attempt = clock_.Now() + backoff;

  // A newer notification for the same (holder, object) supersedes a queued
  // one — the holder only ever needs the latest state/version. Either way
  // the two entries coalesced into one: count it, or the retry-depth gauge
  // silently understates how many notifications actually failed.
  for (PendingNotify& pending : notify_retries_) {
    if (pending.note.addr == note.addr && pending.note.id == note.id) {
      telemetry_.notify_superseded->Inc();
      if (note.version >= pending.note.version) {
        pending = PendingNotify{std::move(note), next_attempt, backoff};
      }
      return false;
    }
  }
  // Bound the queue per holder: drop the entry closest to resend (oldest).
  std::size_t per_holder = 0;
  for (const PendingNotify& pending : notify_retries_) {
    if (pending.note.addr == note.addr) ++per_holder;
  }
  if (per_holder >= notify_retry_policy_.per_holder_queue) {
    auto oldest = notify_retries_.end();
    for (auto it = notify_retries_.begin(); it != notify_retries_.end(); ++it) {
      if (it->note.addr != note.addr) continue;
      if (oldest == notify_retries_.end() ||
          it->next_attempt < oldest->next_attempt) {
        oldest = it;
      }
    }
    if (oldest != notify_retries_.end()) notify_retries_.erase(oldest);
  }
  notify_retries_.push_back(PendingNotify{std::move(note), next_attempt, backoff});
  return false;
}

void Site::DropHolder(const net::Address& addr) {
  // Atomic with respect to re-registration: the world guard excludes every
  // ServeGet holder registration (which runs under a shard guard with the
  // health reset nested inside it), and the site mutex covers the health and
  // retry state. Re-check the threshold under both before acting — a get
  // that raced in after the failing batch healed the holder, and dropping it
  // now would erase a live registration.
  ObjectTable::WorldGuard world(table_);
  std::lock_guard lock(mutex_);
  auto hit = holder_health_.find(addr);
  if (hit == holder_health_.end()) return;
  if (holder_failure_threshold_ == 0 ||
      hit->second.consecutive_failures < holder_failure_threshold_) {
    return;  // re-registered (healed) since the drop was decided
  }
  holder_health_.erase(hit);
  table_.RemoveHolderEverywhere(addr);
  std::erase_if(notify_retries_, [&](const PendingNotify& pending) {
    return pending.note.addr == addr;
  });
  telemetry_.holders_dropped->Inc();
  Trace("holder", addr + " dropped after repeated notification failures");
}

void Site::SyncHolderGaugesLocked() {
  std::int64_t active = 0;
  std::int64_t suspect = 0;
  for (const auto& [addr, health] : holder_health_) {
    (health.consecutive_failures == 0 ? active : suspect) += 1;
  }
  telemetry_.holders_active->Set(active);
  telemetry_.holders_suspect->Set(suspect);
  telemetry_.notify_retry_depth->Set(
      static_cast<std::int64_t>(notify_retries_.size()));
}

// Caller holds pins_mutex_.
bool Site::HolderStillPinnedLocked(const net::Address& addr,
                                   ObjectId oid) const {
  for (const auto& [pin, entry] : proxy_ins_) {
    const bool covers =
        entry.cluster ? std::find(entry.members.begin(), entry.members.end(),
                                  oid) != entry.members.end()
                      : entry.target == oid;
    if (!covers) continue;
    if (std::find(entry.users.begin(), entry.users.end(), addr) !=
        entry.users.end()) {
      return true;
    }
  }
  return false;
}

bool Site::HolderAnywhere(const net::Address& addr) const {
  {
    std::lock_guard pins(pins_mutex_);
    for (const auto& [pin, entry] : proxy_ins_) {
      if (std::find(entry.users.begin(), entry.users.end(), addr) !=
          entry.users.end()) {
        return true;
      }
    }
  }
  // Pins mutex released before the table scan: the holder index walk takes
  // shard guards, which must never nest inside a leaf lock.
  return table_.HolderAnywhere(addr);
}

std::size_t Site::PumpNotifyRetries() {
  std::vector<OutboundNotify> due;
  {
    std::lock_guard lock(mutex_);
    CollectDueRetriesLocked(due);
  }
  const std::size_t attempted = due.size();
  DispatchNotifications(std::move(due));
  return attempted;
}

std::size_t Site::pending_notify_retries() const {
  std::lock_guard lock(mutex_);
  return notify_retries_.size();
}

Status Site::ServePush(const ObjectRecord& record) {
  SpanScope span(&sinks_, clock_, id_, "serve.push", ToString(record.id),
                 TraceContext::Current());
  {
    // Early filter only — the authoritative check is Materialize's monotonic
    // apply guard, which re-reads the version under the same shard guard it
    // decodes under (a late push racing a newer sync must not regress the
    // replica).
    ObjectTable::ShardGuard guard(table_, record.id);
    ReplicaEntry* rec = table_.Replica(record.id);
    if (rec == nullptr) {
      // No longer holding this replica; nothing to update.
      return Status::Ok();
    }
    if (record.version < rec->version) {
      // A late or retried push from before our last sync — applying it
      // would regress the replica. The sender's state is already covered.
      return Status::Ok();
    }
  }
  JourneySink* journey = journey_sink();
  if (journey != nullptr) {
    journey->OnHolderReceive(record.id, record.version, clock_.Now(),
                             /*push=*/true);
  }
  GetReply reply;
  reply.objects.push_back(record);
  ProxyDescriptor via;
  via.target = record.id;
  OBIWAN_ASSIGN_OR_RETURN(
      auto obj, Materialize(via, reply, ReplicationMode::Incremental(),
                            /*refresh=*/true, record.id));
  (void)obj;
  if (journey != nullptr) {
    journey->OnReplicaApply(record.id, record.version, clock_.Now());
  }
  telemetry_.invalidations_received->Inc();  // counted as an update notification
  Trace("push", ToString(record.id) + " updated in place");
  ReplicaUpdateCallback callback;
  {
    std::lock_guard lock(mutex_);
    callback = on_replica_update_;
  }
  if (callback) callback(record.id, /*stale=*/false);
  return Status::Ok();
}

Status Site::ServeRenew(ProxyId pin) {
  std::lock_guard pins(pins_mutex_);
  auto it = proxy_ins_.find(pin);
  if (it == proxy_ins_.end()) return NotFoundError("unknown proxy-in");
  TouchPin(it->second);
  return Status::Ok();
}

Status Site::RenewProxy(const ProxyDescriptor& descriptor) {
  return SendPinRequest(telemetry_.op_renew, rmi::MessageKind::kRenew,
                        descriptor);
}

Status Site::SendPinRequest(const SiteTelemetry::Op& op, rmi::MessageKind kind,
                            const ProxyDescriptor& descriptor) {
  TraceContext::Scope span(TraceContext::CurrentOrNew(id_));
  wire::Writer body;
  wire::Encode(body, descriptor.pin);
  return TimedRequest(op, descriptor.provider,
                      AsView(rmi::WrapRequest(kind, body, TraceContext::Current(),
                                              DeadlineBudget(), address())))
      .status();
}

Status Site::ServeInvalidate(const InvalidateRequest& req) {
  SpanScope span(&sinks_, clock_, id_, "serve.invalidate",
                 std::to_string(req.ids.size()) + " id(s)",
                 TraceContext::Current());
  std::vector<ObjectId> invalidated;
  std::vector<std::pair<ObjectId, std::uint64_t>> received;
  for (std::size_t i = 0; i < req.ids.size(); ++i) {
    ObjectId oid = req.ids[i];
    ObjectTable::ShardGuard guard(table_, oid);
    ReplicaEntry* e = table_.Replica(oid);
    if (e == nullptr) continue;
    e->stale = true;
    if (i < req.versions.size()) {
      e->known_master_version =
          std::max(e->known_master_version, req.versions[i]);
    } else {
      // Unversioned invalidation (older peer): the master moved at least
      // one version past what we hold.
      e->known_master_version =
          std::max(e->known_master_version, e->version + 1);
    }
    telemetry_.invalidations_received->Inc();
    Trace("invalidate", ToString(oid) + " marked stale");
    invalidated.push_back(oid);
    received.emplace_back(oid, e->known_master_version);
  }
  if (JourneySink* journey = journey_sink()) {
    // Holder-side receive stamp, keyed by the same (id, version) the
    // provider minted; the apply hop lands later, when the refresh brings
    // the replica to this version.
    const Nanos now = clock_.Now();
    for (const auto& [oid, version] : received) {
      journey->OnHolderReceive(oid, version, now, /*push=*/false);
    }
  }
  ReplicaUpdateCallback callback;
  {
    std::lock_guard lock(mutex_);
    callback = on_replica_update_;
  }
  if (callback) {
    for (ObjectId oid : invalidated) callback(oid, /*stale=*/true);
  }
  return Status::Ok();
}

Status Site::ServeRelease(const net::Address& from, ProxyId pin) {
  // Pin bookkeeping and the "still pinned elsewhere?" decision happen in one
  // pins-mutex critical section, so a concurrent get re-pinning the same
  // object either lands before the decision (and keeps the holder) or after
  // the unlink below (and re-registers it via its own shard guard).
  std::vector<ObjectId> unlink;
  {
    std::lock_guard pins(pins_mutex_);
    auto it = proxy_ins_.find(pin);
    if (it == proxy_ins_.end()) return NotFoundError("unknown proxy-in");
    ProxyInEntry& entry = it->second;
    std::erase(entry.users, from);
    if (!entry.users.empty()) {
      // Other demanders still fault/put through this pin; only the releasing
      // site's interest is gone.
      return Status::Ok();
    }
    const std::vector<ObjectId> affected =
        entry.cluster ? entry.members : std::vector<ObjectId>{entry.target};
    if (auto tit = pin_by_target_.find(entry.target);
        tit != pin_by_target_.end() && tit->second == pin) {
      pin_by_target_.erase(tit);
    }
    proxy_ins_.erase(it);
    telemetry_.proxy_ins->Set(static_cast<std::int64_t>(proxy_ins_.size()));
    for (ObjectId oid : affected) {
      if (!HolderStillPinnedLocked(from, oid)) unlink.push_back(oid);
    }
  }
  // If that was the demander's last pin covering an object, it can no longer
  // fault or put it — stop sending it invalidations/pushes.
  for (ObjectId oid : unlink) {
    ObjectTable::ShardGuard guard(table_, oid);
    table_.UnlinkHolder(oid, from);
  }
  const bool anywhere = HolderAnywhere(from);
  {
    std::lock_guard lock(mutex_);
    if (!anywhere) holder_health_.erase(from);
    SyncHolderGaugesLocked();
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Provider side: Call (the RMI skeleton path)
// ---------------------------------------------------------------------------

Result<Bytes> Site::ServeCall(const rmi::CallRequest& call) {
  SpanScope span(&sinks_, clock_, id_, "serve.call",
                 call.method + " on " + ToString(call.target),
                 TraceContext::Current());
  telemetry_.calls_served->Inc();
  std::shared_ptr<Shareable> obj = table_.FindLocked(call.target);
  if (obj == nullptr) {
    return NotFoundError("call target not present: " + ToString(call.target));
  }
  const MethodInfo* method = obj->obiwan_class().FindMethod(call.method);
  if (method == nullptr) {
    return NotFoundError("no method '" + call.method + "' on class " +
                         obj->obiwan_class().name());
  }
  wire::Reader args(AsView(call.args));
  // Dispatched with the site lock *released*: the method body may dereference
  // a proxy (a fault that re-enters this site with a nested get) or put its
  // edits back — the same reentrancy a local LMI invocation has. The
  // shared_ptr keeps the target alive even if it is released concurrently.
  return method->dispatch(*obj, args);
}

// ---------------------------------------------------------------------------
// Demander side
// ---------------------------------------------------------------------------

Result<std::shared_ptr<Shareable>> Site::DemandThrough(
    const ProxyDescriptor& descriptor, ObjectId root, ReplicationMode mode,
    bool refresh, bool shortcut_local) {
  // The whole fault-and-replicate flow — this get, the provider's handler,
  // and any nested fault it triggers — shares one correlation id.
  TraceContext::Scope flow(TraceContext::CurrentOrNew(id_));
  // Opened only when a proxy-out dereference actually goes remote; the get
  // span below (and everything under it) then records as its child —
  // fault → get → rpc → dispatch → serve.get in the exported timeline.
  std::optional<SpanScope> fault_span;
  if (!refresh && shortcut_local) {
    // Identity preservation: a replica (or our own master) short-circuits
    // the fault without touching the network.
    if (auto local = table_.FindLocked(root)) return local;
    telemetry_.object_faults->Inc();
    fault_span.emplace(&sinks_, clock_, id_, "fault",
                       ToString(root) + " via " + descriptor.provider,
                       TraceContext::Current());
  }
  telemetry_.gets_sent->Inc();
  SpanScope get_span(&sinks_, clock_, id_, "get",
                     ToString(root) + (refresh ? " (refresh)" : "") + " from " +
                         descriptor.provider,
                     TraceContext::Current());

  // The request travels with the site lock *released*: a synchronous
  // transport may serve the provider side on another thread of this very
  // process (or even this very site, over TCP loopback).
  GetRequest req{descriptor.pin, root, mode, refresh};
  wire::Writer body;
  wire::Encode(body, req);
  OBIWAN_ASSIGN_OR_RETURN(
      Bytes reply_bytes,
      TimedRequest(telemetry_.op_get, descriptor.provider,
                   AsView(rmi::WrapRequest(rmi::MessageKind::kGet, body,
                                           TraceContext::Current(),
                                           DeadlineBudget(), address()))));
  telemetry_.replication_bytes_in->Inc(reply_bytes.size());
  wire::Reader r(AsView(reply_bytes));
  GetReply reply = wire::Decode<GetReply>(r);
  OBIWAN_RETURN_IF_ERROR(r.status());

  return Materialize(descriptor, reply, mode, refresh, root);
}

Result<std::shared_ptr<Shareable>> Site::Materialize(const ProxyDescriptor& via,
                                                     const GetReply& reply,
                                                     ReplicationMode mode,
                                                     bool refresh, ObjectId want) {
  SpanScope span(&sinks_, clock_, id_, "materialize",
                 std::to_string(reply.objects.size()) + " object(s)",
                 TraceContext::Current());
  if (reply.objects.empty()) return DataLossError("empty replication batch");

  const ProxyDescriptor* cluster_provider =
      reply.cluster ? &reply.cluster->provider : nullptr;

  std::unordered_map<ObjectId, std::shared_ptr<Shareable>, ObjectIdHash> present;
  std::vector<bool> fresh(reply.objects.size(), false);

  // Pass 1: instantiate new replicas / reconcile existing ones, each record
  // under its own shard guard.
  for (std::size_t i = 0; i < reply.objects.size(); ++i) {
    const ObjectRecord& rec = reply.objects[i];

    // New instances decode before taking the guard: the object is private
    // until EmplaceReplica publishes it.
    OBIWAN_ASSIGN_OR_RETURN(const ClassInfo* ci,
                            ClassRegistry::Instance().Find(rec.class_name));

    ObjectTable::ShardGuard guard(table_, rec.id);

    if (MasterEntry* master = table_.Master(rec.id)) {
      // Our own object came back around a chain; the master is
      // authoritative — never overwrite it from a get.
      present.emplace(rec.id, master->obj);
      continue;
    }

    if (ReplicaEntry* e = table_.Replica(rec.id)) {
      present.emplace(rec.id, e->obj);
      // Monotonic apply guard: a late or retried push/refresh from before
      // our last sync must not regress the replica. (ServePush's early
      // check is only a filter; this one runs under the shard guard the
      // decode runs under, so the race is actually closed.)
      if (refresh && rec.version >= e->version) {
        if (e->obj->obiwan_class().refs().size() != rec.refs.size()) {
          return DataLossError("refresh ref schema mismatch for class " +
                               rec.class_name);
        }
        wire::Reader fields(AsView(rec.fields));
        OBIWAN_RETURN_IF_ERROR(e->obj->obiwan_class().DecodeFields(*e->obj, fields));
        e->version = rec.version;
        e->stale = false;
        e->known_master_version = std::max(e->known_master_version, rec.version);
        e->last_sync = clock_.Now();
        ++e->sync_count;
        policy_->OnReplicaData(ReplicaView{rec.id, e->version, e->policy_state},
                               AsView(rec.policy_data));
        fresh[i] = true;
      }
      // A per-object channel upgrades a replica that had none (or only the
      // shared cluster channel) to individually updatable.
      if (rec.provider.valid() && (!e->provider.valid() || e->in_cluster)) {
        e->provider = rec.provider;
        e->in_cluster = false;
      }
      continue;
    }

    if (ci->refs().size() != rec.refs.size()) {
      return DataLossError("ref schema mismatch for class " + rec.class_name);
    }
    std::shared_ptr<Shareable> obj = ci->NewInstance();
    wire::Reader fields(AsView(rec.fields));
    OBIWAN_RETURN_IF_ERROR(ci->DecodeFields(*obj, fields));

    ReplicaEntry entry;
    entry.obj = obj;
    entry.version = rec.version;
    entry.known_master_version = rec.version;
    entry.last_sync = clock_.Now();
    entry.sync_count = 1;
    if (rec.provider.valid()) {
      entry.provider = rec.provider;
    } else if (cluster_provider != nullptr) {
      entry.provider = *cluster_provider;
      entry.in_cluster = true;
    }
    auto [stored, inserted] = table_.EmplaceReplica(rec.id, std::move(entry));
    if (!inserted) {
      // Lost a materialize race within this guard's shard epoch (or the id
      // turned out to be mastered here): the winner's object is the one
      // every reference must alias.
      if (stored != nullptr) {
        present.emplace(rec.id, stored->obj);
      } else if (MasterEntry* master = table_.Master(rec.id)) {
        present.emplace(rec.id, master->obj);
      }
      continue;
    }
    policy_->OnReplicaData(
        ReplicaView{rec.id, stored->version, stored->policy_state},
        AsView(rec.policy_data));
    present.emplace(rec.id, std::move(obj));
    fresh[i] = true;
    telemetry_.replicas_created->Inc();
  }
  telemetry_.replicas->Set(static_cast<std::int64_t>(table_.replica_count()));

  if (reply.cluster) {
    std::lock_guard pins(pins_mutex_);
    cluster_members_[reply.cluster->provider.pin] = reply.cluster->members;
  }

  // Pre-resolve swizzle targets outside any shard guard: pass 2 binds refs
  // under each record's guard, where self-locking lookups are off limits.
  std::unordered_map<ObjectId, std::shared_ptr<Shareable>, ObjectIdHash> resolved;
  for (std::size_t i = 0; i < reply.objects.size(); ++i) {
    if (!fresh[i]) continue;
    for (const RefEntry& entry : reply.objects[i].refs) {
      const ObjectId tid = entry.target;
      if (tid.valid() && !present.contains(tid) && !resolved.contains(tid)) {
        resolved.emplace(tid, table_.FindLocked(tid));
      }
    }
  }
  auto lookup = [&](ObjectId tid) -> std::shared_ptr<Shareable> {
    if (auto it = present.find(tid); it != present.end()) return it->second;
    if (auto it = resolved.find(tid); it != resolved.end()) return it->second;
    return nullptr;
  };

  // Pass 2: swizzle references of fresh records. Existing replicas touched
  // by a non-refresh get keep their topology (they may carry local edits).
  for (std::size_t i = 0; i < reply.objects.size(); ++i) {
    if (!fresh[i]) continue;
    const ObjectRecord& rec = reply.objects[i];
    std::shared_ptr<Shareable>& obj = present.at(rec.id);
    ObjectTable::ShardGuard guard(table_, rec.id);
    const auto& ref_infos = obj->obiwan_class().refs();
    for (std::size_t j = 0; j < ref_infos.size(); ++j) {
      const RefEntry& entry = rec.refs[j];
      if (!BindRef(ref_infos[j].get(*obj), entry, lookup(entry.target), mode)) {
        return DataLossError("dangling inline reference in batch");
      }
    }
  }

  ObjectId root = want.valid() ? want : via.target;
  auto it = present.find(root);
  if (it == present.end()) {
    return DataLossError("replication batch missing requested root");
  }
  return it->second;
}

// ---------------------------------------------------------------------------
// Put / Refresh / Prefetch
// ---------------------------------------------------------------------------

Result<PutItem> Site::BuildPutItem(ObjectId id, bool read_only) {
  PutItem item;
  item.id = id;
  item.read_only = read_only;
  std::vector<RefSnap> snaps;
  {
    ObjectTable::ShardGuard guard(table_, id);
    ReplicaEntry* e = table_.Replica(id);
    if (e == nullptr) {
      return FailedPreconditionError("not a replica here: " + ToString(id));
    }
    item.base_version = e->version;
    if (read_only) return item;  // validation-only: no state travels
    item.policy_data =
        policy_->MakePutData(ReplicaView{id, e->version, e->policy_state}, clock_);
    snaps = CaptureLocked(*e->obj, item.fields);
  }

  // Not ExportRefs: a put names every target by id, since the provider holds
  // (or can reach) all of them, except an object this site masters — the
  // replica grew an edge to it, and the provider can only reach it through a
  // pin pointing back here.
  item.refs.reserve(snaps.size());
  for (const RefSnap& snap : snaps) {
    if (snap.proxy != nullptr) {
      item.refs.push_back(RefEntry::Inline(snap.proxy->target()));
    } else if (snap.local == nullptr) {
      item.refs.push_back(RefEntry::Null());
    } else if (ObjectId tid = EnsureId(snap.local); table_.ContainsMaster(tid)) {
      item.refs.push_back(RefEntry::Proxy(DescriptorFor(
          NewProxyIn(tid), tid, snap.local->obiwan_class().name())));
    } else {
      item.refs.push_back(RefEntry::Inline(tid));
    }
  }
  return item;
}

Status Site::PutItems(const ProxyDescriptor& provider,
                      const std::vector<std::pair<ObjectId, bool>>& ids,
                      bool transactional) {
  // Install the flow id before building items so the whole reintegration —
  // serialization included — records as one span under one correlation id.
  TraceContext::Scope flow(TraceContext::CurrentOrNew(id_));
  SpanScope span(&sinks_, clock_, id_,
                 transactional ? "commit" : "put",
                 std::to_string(ids.size()) + " item(s) to " +
                     provider.provider,
                 TraceContext::Current());
  PutRequest req;
  req.pin = provider.pin;
  req.transactional = transactional;
  req.items.reserve(ids.size());
  for (const auto& [oid, read_only] : ids) {
    OBIWAN_ASSIGN_OR_RETURN(PutItem item, BuildPutItem(oid, read_only));
    req.items.push_back(std::move(item));
  }

  wire::Writer body;
  wire::Encode(body, req);
  telemetry_.puts_sent->Inc();
  Bytes frame = rmi::WrapRequest(
      transactional ? rmi::MessageKind::kCommit : rmi::MessageKind::kPut, body,
      TraceContext::Current(), DeadlineBudget(), address());
  // Payload (wire body) bytes, symmetric with the provider's Handle(kPut).
  telemetry_.replication_bytes_out->Inc(body.size());
  OBIWAN_ASSIGN_OR_RETURN(
      Bytes reply_bytes,
      TimedRequest(transactional ? telemetry_.op_commit : telemetry_.op_put,
                   provider.provider, AsView(frame)));
  wire::Reader r(AsView(reply_bytes));
  PutReply reply = wire::Decode<PutReply>(r);
  OBIWAN_RETURN_IF_ERROR(r.status());
  if (reply.new_versions.size() != ids.size()) {
    return DataLossError("put reply version count mismatch");
  }

  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (ids[i].second) continue;  // read-only items do not advance
    ObjectTable::ShardGuard guard(table_, ids[i].first);
    if (ReplicaEntry* e = table_.Replica(ids[i].first)) {
      e->version = reply.new_versions[i];
      e->stale = false;
      // An accepted put is a synchronisation: we now hold exactly the master
      // state our write produced.
      e->known_master_version = std::max(e->known_master_version, e->version);
      e->last_sync = clock_.Now();
      ++e->put_count;
    }
  }
  return Status::Ok();
}

Status Site::CommitReplicas(const std::vector<ObjectId>& reads,
                            const std::vector<ObjectId>& writes) {
  // Group by provider address; each group commits atomically at its
  // provider, groups commit independently (relaxed, per DESIGN.md).
  std::unordered_map<net::Address, std::pair<ProxyDescriptor,
                                             std::vector<std::pair<ObjectId, bool>>>>
      groups;
  auto add = [&](ObjectId oid, bool read_only) -> Status {
    OBIWAN_ASSIGN_OR_RETURN(ProxyDescriptor provider, ReplicaProvider(oid));
    auto& group = groups[provider.provider];
    if (group.second.empty()) group.first = provider;
    group.second.emplace_back(oid, read_only);
    return Status::Ok();
  };
  for (ObjectId oid : writes) OBIWAN_RETURN_IF_ERROR(add(oid, /*read_only=*/false));
  for (ObjectId oid : reads) {
    // An object both read and written travels once, as a write.
    if (std::find(writes.begin(), writes.end(), oid) != writes.end()) continue;
    OBIWAN_RETURN_IF_ERROR(add(oid, /*read_only=*/true));
  }
  for (auto& [addr, group] : groups) {
    OBIWAN_RETURN_IF_ERROR(PutItems(group.first, group.second,
                                    /*transactional=*/true));
  }
  return Status::Ok();
}

Status Site::Put(RefBase& ref) {
  if (!ref.IsLocal()) {
    return FailedPreconditionError("put requires a resolved local replica");
  }
  ObjectId oid = ref.id();
  if (!oid.valid()) {
    oid = table_.PtrId(ref.local_raw());
    if (!oid.valid()) {
      return FailedPreconditionError("object was never replicated or exported");
    }
  }
  ProxyDescriptor provider;
  {
    ObjectTable::ShardGuard guard(table_, oid);
    if (table_.Master(oid) != nullptr) {
      return FailedPreconditionError("object is mastered here; nothing to put");
    }
    ReplicaEntry* e = table_.Replica(oid);
    if (e == nullptr) {
      return FailedPreconditionError("not a replica here: " + ToString(oid));
    }
    if (e->in_cluster) {
      // §4.3: cluster members share a single proxy pair and "can not be
      // individually updated".
      return FailedPreconditionError(
          "replica belongs to a cluster; use PutCluster");
    }
    if (!e->provider.valid()) {
      return FailedPreconditionError("replica has no provider channel");
    }
    provider = e->provider;
  }
  return PutItems(provider, {{oid, false}}, /*transactional=*/false);
}

Status Site::PutCluster(RefBase& ref) {
  if (!ref.IsLocal()) {
    return FailedPreconditionError("put requires a resolved local replica");
  }
  ProxyDescriptor provider;
  {
    ObjectTable::ShardGuard guard(table_, ref.id());
    ReplicaEntry* e = table_.Replica(ref.id());
    if (e == nullptr) {
      return FailedPreconditionError("not a replica here: " + ToString(ref.id()));
    }
    if (!e->provider.valid()) {
      return FailedPreconditionError("replica has no provider channel");
    }
    provider = e->provider;
  }
  std::vector<ObjectId> members;
  bool degenerate = false;
  {
    std::lock_guard pins(pins_mutex_);
    auto cit = cluster_members_.find(provider.pin);
    if (cit != cluster_members_.end()) {
      members = cit->second;
    } else {
      degenerate = true;
    }
  }
  std::vector<std::pair<ObjectId, bool>> items;
  if (degenerate) {
    items.emplace_back(ref.id(), false);  // degenerate cluster of one
  } else {
    items.reserve(members.size());
    for (ObjectId member : members) {
      if (table_.ContainsReplica(member)) items.emplace_back(member, false);
    }
  }
  return PutItems(provider, items, /*transactional=*/false);
}

std::vector<ObjectId> Site::StaleReplicaIds() const {
  std::vector<ObjectId> ids;
  table_.ForEachReplica([&](ObjectId oid, const ReplicaEntry& e) {
    if (e.stale) ids.push_back(oid);
  });
  return ids;
}

Status Site::RefreshReplica(ObjectId id) {
  ProxyDescriptor provider;
  {
    ObjectTable::ShardGuard guard(table_, id);
    ReplicaEntry* e = table_.Replica(id);
    if (e == nullptr) {
      // kNotFound tells the resync daemon the replica is gone (evicted or
      // restored away) and the entry can be forgotten, not retried.
      return NotFoundError("not a replica here: " + ToString(id));
    }
    if (!e->provider.valid()) {
      return FailedPreconditionError("replica has no provider channel");
    }
    provider = e->provider;
  }
  Status refreshed = DemandThrough(provider, id, ReplicationMode::Incremental(),
                                   /*refresh=*/true)
                         .status();
  if (refreshed.ok()) {
    if (JourneySink* journey = journey_sink()) {
      // The invalidation's apply hop: the replica just caught up to the
      // version it reached, which closes the receive->apply interval the
      // matching OnHolderReceive opened.
      std::uint64_t version = 0;
      {
        ObjectTable::ShardGuard guard(table_, id);
        if (ReplicaEntry* e = table_.Replica(id)) version = e->version;
      }
      if (version > 0) journey->OnReplicaApply(id, version, clock_.Now());
    }
  }
  return refreshed;
}

Status Site::Refresh(RefBase& ref) {
  if (!ref.IsLocal()) {
    return FailedPreconditionError("refresh requires a resolved local replica");
  }
  ObjectId oid = ref.id();
  ProxyDescriptor provider;
  {
    ObjectTable::ShardGuard guard(table_, oid);
    ReplicaEntry* e = table_.Replica(oid);
    if (e == nullptr) {
      return FailedPreconditionError("not a replica here: " + ToString(oid));
    }
    if (!e->provider.valid()) {
      return FailedPreconditionError("replica has no provider channel");
    }
    provider = e->provider;
  }
  return DemandThrough(provider, oid, ReplicationMode::Incremental(),
                       /*refresh=*/true)
      .status();
}

Status Site::PrefetchAll(RefBase& ref) {
  if (ref.IsEmpty()) return Status::Ok();
  // One flow id + one parent span for the whole walk, so the prefetcher's
  // cascade of faults shows up as a single tree in the timeline.
  TraceContext::Scope flow(TraceContext::CurrentOrNew(id_));
  SpanScope span(&sinks_, clock_, id_, "prefetch", ToString(ref.id()),
                 TraceContext::Current());
  OBIWAN_RETURN_IF_ERROR(ref.Demand());

  std::unordered_set<const Shareable*> visited;
  std::vector<Shareable*> stack{ref.local_raw()};
  while (!stack.empty()) {
    Shareable* obj = stack.back();
    stack.pop_back();
    if (!visited.insert(obj).second) continue;
    for (const RefFieldInfo& rf : obj->obiwan_class().refs()) {
      RefBase& rb = rf.get(*obj);
      if (rb.IsEmpty()) continue;
      OBIWAN_RETURN_IF_ERROR(rb.Demand());
      stack.push_back(rb.local_raw());
    }
  }
  return Status::Ok();
}

std::size_t Site::EvictIdleReplicas() {
  // Idle = the table holds the only shared_ptr (use_count() == 1): no
  // application Ref, no reference field of a live object, no in-flight
  // batch. Erasing a replica releases its fields, which can strand the
  // replicas they pointed at, in any shard (hence the world guard). A
  // worklist re-checks only those targets, so a chain of n evicts in O(n).
  // The sweep repeats until it finds nothing, because a cascade can also
  // pass through a local object outside the table. Use counts only fall
  // here, so removal order does not change the evicted set.
  ObjectTable::WorldGuard world(table_);
  std::size_t evicted = 0;
  std::vector<ObjectId> work;
  for (;;) {
    table_.ForEachReplica([&](ObjectId oid, const ReplicaEntry& e) {
      if (e.obj.use_count() == 1) work.push_back(oid);
    });
    if (work.empty()) break;
    while (!work.empty()) {
      const ObjectId oid = work.back();
      work.pop_back();
      const ReplicaEntry* e = table_.Replica(oid);
      if (e == nullptr || e->obj.use_count() != 1) continue;
      // Popped only after the erase below, so each target is re-checked
      // with this replica's reference already gone.
      for (const RefFieldInfo& rf : e->obj->obiwan_class().refs()) {
        const RefBase& rb = rf.get(*e->obj);
        if (rb.IsLocal()) work.push_back(table_.PtrId(rb.local_raw()));
      }
      table_.EraseReplica(oid);
      ++evicted;
    }
  }
  telemetry_.replicas->Set(static_cast<std::int64_t>(table_.replica_count()));
  return evicted;
}

bool Site::IsStale(const RefBase& ref) const {
  ObjectTable::ShardGuard guard(table_, ref.id());
  const ReplicaEntry* e = table_.Replica(ref.id());
  return e != nullptr && e->stale;
}

Result<std::uint64_t> Site::ReplicaVersion(const RefBase& ref) const {
  ObjectTable::ShardGuard guard(table_, ref.id());
  const ReplicaEntry* e = table_.Replica(ref.id());
  if (e == nullptr) {
    return NotFoundError("not a replica here: " + ToString(ref.id()));
  }
  return e->version;
}

Result<ProxyDescriptor> Site::ReplicaProvider(ObjectId id) const {
  ObjectTable::ShardGuard guard(table_, id);
  const ReplicaEntry* e = table_.Replica(id);
  if (e == nullptr) {
    return NotFoundError("not a replica here: " + ToString(id));
  }
  if (!e->provider.valid()) {
    return FailedPreconditionError("replica has no provider channel");
  }
  return e->provider;
}

Status Site::ReleaseProxy(const ProxyDescriptor& descriptor) {
  return SendPinRequest(telemetry_.op_release, rmi::MessageKind::kRelease,
                        descriptor);
}

// ---------------------------------------------------------------------------
// RMI client side
// ---------------------------------------------------------------------------

Result<Bytes> Site::CallRaw(const net::Address& to, ObjectId target,
                            const std::string& method, Bytes args) {
  TraceContext::Scope flow(TraceContext::CurrentOrNew(id_));
  SpanScope span(&sinks_, clock_, id_, "rmi", method + " on " + ToString(target),
                 TraceContext::Current());
  telemetry_.calls_sent->Inc();
  rmi::CallRequest call{target, method, std::move(args)};
  return TimedRequest(telemetry_.op_call, to,
                      AsView(rmi::EncodeCall(call, TraceContext::Current(),
                                             DeadlineBudget())));
}

Result<Bytes> Site::CallBatchRaw(const net::Address& to,
                                 const std::vector<rmi::CallRequest>& calls) {
  TraceContext::Scope flow(TraceContext::CurrentOrNew(id_));
  SpanScope span(&sinks_, clock_, id_, "batch",
                 std::to_string(calls.size()) + " call(s) at " + to,
                 TraceContext::Current());
  telemetry_.calls_sent->Inc(calls.size());
  return TimedRequest(
      telemetry_.op_call, to,
      AsView(rmi::EncodeCallBatch(calls, TraceContext::Current(),
                                  DeadlineBudget())));
}

Status Site::Ping(const net::Address& to) {
  TraceContext::Scope span(TraceContext::CurrentOrNew(id_));
  wire::Writer body;
  OBIWAN_ASSIGN_OR_RETURN(
      Bytes reply,
      TimedRequest(telemetry_.op_ping, to,
                   AsView(rmi::WrapRequest(rmi::MessageKind::kPing, body,
                                           TraceContext::Current(),
                                           DeadlineBudget()))));
  (void)reply;
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Inbound dispatch
// ---------------------------------------------------------------------------

Result<Bytes> Site::Handle(rmi::MessageKind kind, const net::Address& from,
                           wire::Reader& body) {
  switch (kind) {
    case rmi::MessageKind::kCall: {
      OBIWAN_ASSIGN_OR_RETURN(rmi::CallRequest call, rmi::DecodeCall(body));
      return ServeCall(call);
    }
    case rmi::MessageKind::kPing:
      return Bytes{};
    case rmi::MessageKind::kGet: {
      GetRequest req = wire::Decode<GetRequest>(body);
      OBIWAN_RETURN_IF_ERROR(body.status());
      OBIWAN_ASSIGN_OR_RETURN(GetReply reply, ServeGet(from, req));
      wire::Writer w;
      wire::Encode(w, reply);
      Bytes encoded = std::move(w).Take();
      telemetry_.replication_bytes_out->Inc(encoded.size());
      return encoded;
    }
    case rmi::MessageKind::kPut:
    case rmi::MessageKind::kCommit: {
      telemetry_.replication_bytes_in->Inc(body.remaining());
      PutRequest req = wire::Decode<PutRequest>(body);
      OBIWAN_RETURN_IF_ERROR(body.status());
      if (kind == rmi::MessageKind::kCommit) req.transactional = true;
      OBIWAN_ASSIGN_OR_RETURN(PutReply reply, ServePut(from, req));
      wire::Writer w;
      wire::Encode(w, reply);
      return std::move(w).Take();
    }
    case rmi::MessageKind::kInvalidate: {
      InvalidateRequest req = wire::Decode<InvalidateRequest>(body);
      OBIWAN_RETURN_IF_ERROR(body.status());
      OBIWAN_RETURN_IF_ERROR(ServeInvalidate(req));
      return Bytes{};
    }
    case rmi::MessageKind::kRelease: {
      auto pin = wire::Decode<ProxyId>(body);
      OBIWAN_RETURN_IF_ERROR(body.status());
      OBIWAN_RETURN_IF_ERROR(ServeRelease(from, pin));
      return Bytes{};
    }
    case rmi::MessageKind::kRenew: {
      auto pin = wire::Decode<ProxyId>(body);
      OBIWAN_RETURN_IF_ERROR(body.status());
      OBIWAN_RETURN_IF_ERROR(ServeRenew(pin));
      return Bytes{};
    }
    case rmi::MessageKind::kPush: {
      telemetry_.replication_bytes_in->Inc(body.remaining());
      auto record = wire::Decode<ObjectRecord>(body);
      OBIWAN_RETURN_IF_ERROR(body.status());
      OBIWAN_RETURN_IF_ERROR(ServePush(record));
      return Bytes{};
    }
    case rmi::MessageKind::kCallBatch: {
      OBIWAN_ASSIGN_OR_RETURN(std::vector<rmi::CallRequest> calls,
                              rmi::DecodeCallBatch(body));
      std::vector<Result<Bytes>> results;
      results.reserve(calls.size());
      for (const rmi::CallRequest& call : calls) {
        results.push_back(ServeCall(call));  // items fail independently
      }
      return rmi::EncodeBatchReply(results);
    }
    case rmi::MessageKind::kInspect: {
      InspectReport report = Inspect();
      wire::Writer w;
      wire::Encode(w, report);
      return std::move(w).Take();
    }
    default:
      return UnimplementedError("site cannot handle this message kind");
  }
}

}  // namespace obiwan::core
