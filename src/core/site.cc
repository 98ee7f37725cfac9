#include "core/site.h"

#include <algorithm>

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

// Each SiteTelemetry counter and its registry series; the constructor walks
// this table, so a new counter is one handle plus one row here.
struct SiteCounterSpec {
  Counter* SiteTelemetry::*handle;
  const char* name;
  const char* help;
};

constexpr SiteCounterSpec kSiteCounters[] = {
    {&SiteTelemetry::object_faults, "obiwan_site_object_faults_total",
     "Proxy-out demands that went remote"},
    {&SiteTelemetry::gets_sent, "obiwan_site_gets_sent_total",
     "Get requests issued"},
    {&SiteTelemetry::gets_served, "obiwan_site_gets_served_total",
     "Get requests served"},
    {&SiteTelemetry::puts_sent, "obiwan_site_puts_sent_total",
     "Put/commit batches sent"},
    {&SiteTelemetry::puts_served, "obiwan_site_puts_served_total",
     "Put/commit batches served"},
    {&SiteTelemetry::calls_sent, "obiwan_site_calls_sent_total",
     "Remote invocations issued"},
    {&SiteTelemetry::calls_served, "obiwan_site_calls_served_total",
     "Remote invocations served"},
    {&SiteTelemetry::proxy_ins_created, "obiwan_site_proxy_ins_created_total",
     "Provider-side proxy-ins created"},
    {&SiteTelemetry::proxy_outs_created, "obiwan_site_proxy_outs_created_total",
     "Demander-side proxy-outs created"},
    {&SiteTelemetry::replicas_created, "obiwan_site_replicas_created_total",
     "Replicas materialized"},
    {&SiteTelemetry::objects_served, "obiwan_site_objects_served_total",
     "Objects serialized into get replies"},
    {&SiteTelemetry::invalidations_sent, "obiwan_site_invalidations_sent_total",
     "Invalidations/pushes delivered"},
    {&SiteTelemetry::invalidations_received,
     "obiwan_site_invalidations_received_total",
     "Invalidations/pushes received"},
    {&SiteTelemetry::replication_bytes_in,
     "obiwan_site_replication_bytes_in_total",
     "Replica state bytes received (get replies, puts served)"},
    {&SiteTelemetry::replication_bytes_out,
     "obiwan_site_replication_bytes_out_total",
     "Replica state bytes shipped (get replies served, puts sent)"},
    {&SiteTelemetry::notify_retries, "obiwan_notify_retries_total",
     "Queued holder notifications re-sent after backoff"},
    {&SiteTelemetry::notify_superseded, "obiwan_notify_superseded_total",
     "Queued notify retries coalesced with a same-holder same-object entry "
     "(superseded by version) instead of deepening the retry queue"},
    {&SiteTelemetry::holders_dropped, "obiwan_holders_dropped_total",
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

  auto op = [&](Literal name) {
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
      telemetry_(id, MetricsRegistry::Default()) {
  created_at_ = clock_.Now();
  SetConsistencyPolicy(std::make_unique<NoConsistency>());
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
  // The registry outlives the site; zero the gauges so this instance's
  // series does not freeze at its last value.
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

Site::OutboundRpc::OutboundRpc(Site& site, const SiteTelemetry::Op& op,
                               const net::Address& to, bool overlapping)
    : site_(site),
      op_(op),
      to_(to),
      start_(site.clock_.Now()),
      span_(&site.sinks_, site.clock_, start_, site.id_, "rpc",
            {.format = "{k} {t}", .kind = op.name, .text = to},
            TraceContext::Current(),
            overlapping ? std::optional(SpanContext::Current()) : std::nullopt) {}

void Site::OutboundRpc::Finish(const Status& status) {
  const Nanos end = site_.clock_.Now();
  span_.EndAt(end);
  op_.latency->Observe(end - start_);
  if (status.ok()) return;
  op_.errors->Inc();
  span_.MarkFailed();
  // An instant under the rpc span, which the thread may not have open.
  RecordInstant(&site_.sinks_, site_.clock_, site_.id_, "error",
                {.format = "{k} to {t}",
                 .kind = op_.name,
                 .text = to_ + ": " + status.ToString()},
                TraceContext::Current(), span_.id());
  // A Status error escaping the site is the flight recorder's cue: if a
  // dump is armed, this writes the black boxes of every site.
  FlightRecorder::Global().NotifyFailure(status.message());
}

Result<Bytes> Site::TimedRequest(const SiteTelemetry::Op& op,
                                 const net::Address& to, BytesView frame) {
  OutboundRpc rpc(*this, op, to);
  Result<Bytes> reply =
      transport_->Request(to, frame, net::CallOptions{request_deadline_});
  rpc.Finish(reply.status());
  return reply;
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
  if (!oid.valid()) {
    return FailedPreconditionError("object is registered at another site");
  }
  std::lock_guard lock(pins_mutex_);
  auto& [pin, entry] = NewProxyInLocked(oid, {});
  // A bound name is advertised indefinitely; its pin must not be swept by
  // the lease collector while the registry still points at it.
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
  // Fast path: the object's identity slot names known objects (masters and
  // replicas alike) without taking any lock.
  ObjectId existing = table_.PtrId(obj.get());
  if (existing.valid()) return existing;
  // Mint a candidate id, take its shard, then race for the object's slot.
  // Must not be called with another shard guard held (the world is fine:
  // guards no-op under it).
  const ObjectId oid = MintId();
  ObjectTable::ShardGuard guard(table_, oid);
  return ClaimMaster(obj, oid);
}

ObjectId Site::ClaimMaster(const std::shared_ptr<Shareable>& obj,
                           ObjectId oid) {
  // The winner inserts the master record while still holding the shard
  // guard, so a loser that looks the returned id up blocks until the record
  // exists; a lost race wastes the minted id, which is harmless (ids are
  // never required to be dense), and so does an object another site holds
  // (the invalid id comes back).
  const ObjectId winner = table_.PtrIdOrInsert(obj.get(), oid);
  if (winner != oid) return winner;
  MasterEntry entry;
  entry.obj = obj;
  entry.last_update = clock_.Now();
  table_.InsertMaster(oid, std::move(entry));
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
  return NewProxyInLocked(target, users).first;
}

Site::ProxyInMap::value_type& Site::NewProxyInLocked(
    ObjectId target, std::span<const net::Address> users) {
  // Reuse an existing single-object proxy-in for the same target; repeated
  // gets of one object do not need distinct channels.
  auto [it, fresh] = pin_by_target_.try_emplace(target, nullptr);
  if (fresh) {
    it->second = &*proxy_ins_.try_emplace(ProxyId{id_, next_pin_++}).first;
    it->second->second.target = target;
    telemetry_.proxy_ins_created->Inc();
    clock_.Sleep(proxy_export_cost_);
  }
  ProxyInEntry& entry = it->second->second;
  TouchPin(entry);
  RegisterUsers(entry.users, users);
  return *it->second;
}

ProxyId Site::NewClusterProxyInLocked(ObjectId root,
                                      std::vector<ObjectId> members,
                                      std::span<const net::Address> users) {
  ProxyId pin{id_, next_pin_++};
  ProxyInEntry& entry = proxy_ins_[pin];
  entry.target = root;
  entry.members = std::move(members);
  entry.cluster = true;
  TouchPin(entry);
  RegisterUsers(entry.users, users);
  telemetry_.proxy_ins_created->Inc();
  clock_.Sleep(proxy_export_cost_);
  return pin;
}

std::size_t Site::CollectExpiredProxyIns() {
  std::lock_guard lock(pins_mutex_);
  if (proxy_lease_ <= 0) return 0;
  std::size_t collected = 0;
  const Nanos now = clock_.Now();
  for (auto it = proxy_ins_.begin(); it != proxy_ins_.end();) {
    if (it->second.expires_at != 0 && it->second.expires_at <= now) {
      if (auto tit = pin_by_target_.find(it->second.target);
          tit != pin_by_target_.end() && tit->second == &*it) {
        pin_by_target_.erase(tit);
      }
      it = proxy_ins_.erase(it);
      ++collected;
    } else {
      ++it;
    }
  }
  return collected;
}

ProxyDescriptor Site::DescriptorFor(ProxyId pin, ObjectId target,
                                    std::string class_name) const {
  return ProxyDescriptor{pin, transport_->LocalAddress(), target,
                         std::move(class_name)};
}

Result<std::shared_ptr<Shareable>> Site::FindLocal(ObjectId id) const {
  std::shared_ptr<Shareable> obj = table_.FindLocked(id);
  if (obj == nullptr) return NotFoundError("object not present: " + ToString(id));
  return obj;
}

// Caller holds the shard guard of `id` (or the world) for as long as the
// returned pointers are used.
Site::MetaRef Site::FindMeta(ObjectId id) {
  auto [master, replica] = table_.Lookup(id);
  if (master != nullptr) {
    return MetaRef{master->obj.get(), &master->version, &master->policy_state,
                   &master->holders, master};
  }
  if (replica != nullptr) {
    return MetaRef{replica->obj.get(), &replica->version,
                   &replica->policy_state, &replica->holders, nullptr};
  }
  return {};
}

std::size_t Site::master_count() const { return table_.master_count(); }
std::size_t Site::replica_count() const { return table_.replica_count(); }
std::size_t Site::proxy_in_count() const {
  std::lock_guard lock(pins_mutex_);
  return proxy_ins_.size();
}

void Site::SetConsistencyPolicy(std::unique_ptr<ConsistencyPolicy> policy) {
  if (policy == nullptr) return;
  std::lock_guard lock(mutex_);
  policy_.store(policy.get(), std::memory_order_release);
  policies_.push_back(std::move(policy));
}

// ---------------------------------------------------------------------------
// Records: walk, capture and bind references
// ---------------------------------------------------------------------------

Status Site::WalkBatch(OutboundBatch& batch, ObjectTable::BatchGuard& guard,
                       std::span<const ObjectId> roots, const GetRequest* get) {
  const bool expand = get != nullptr && !get->refresh;
  std::uint32_t limit = 0;  // 0 = unlimited
  if (expand && (get->mode.kind == ReplicationMode::Kind::kIncremental ||
                 get->mode.kind == ReplicationMode::Kind::kCluster)) {
    limit = std::max<std::uint32_t>(get->mode.count, 1);
  }
  // The scratch is sized by the count only up to what this site holds: the
  // count comes off the wire, and a batch never outgrows the table.
  const std::size_t expected =
      expand ? std::min<std::size_t>(
                   limit, table_.master_count() + table_.replica_count())
             : roots.size();
  // Breadth-first from the root, each entry an id and its depth. Boundaries
  // are refs that are unresolved proxies here (forwarded) or nodes beyond
  // the batch budget.
  std::vector<std::pair<ObjectId, std::uint32_t>> queue;
  if (expand) queue.reserve(expected + 1);  // the root, a target per object

  // One attempt at the walk: false if the guard had to let go.
  auto attempt = [&]() -> Result<bool> {
    batch = OutboundBatch{};
    batch.Reserve(expected);
    if (!expand) {
      for (ObjectId id : roots) {
        if (batch.members.contains(id)) continue;
        OBIWAN_ASSIGN_OR_RETURN(const Read read, ReadObject(batch, guard, id));
        if (read == Read::kRestart) return false;
      }
      return true;
    }
    queue.assign(1, {roots.front(), 0});
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const auto [oid, depth] = queue[head];
      if (batch.members.contains(oid)) continue;
      if (limit != 0 && batch.nodes.size() >= limit) break;
      OBIWAN_ASSIGN_OR_RETURN(const Read read, ReadObject(batch, guard, oid));
      if (read == Read::kRestart) return false;
      if (read == Read::kAbsent) continue;
      if (get->mode.kind == ReplicationMode::Kind::kClusterDepth &&
          depth >= get->mode.depth) {
        continue;  // depth-bounded cluster boundary
      }
      for (std::size_t k = batch.nodes.back().first_ref; k < batch.refs.size();
           ++k) {
        if (batch.refs[k].local != nullptr) {
          queue.emplace_back(batch.refs[k].id, depth + 1);
        }
      }
    }
    return true;
  };
  for (;;) {
    OBIWAN_ASSIGN_OR_RETURN(const bool complete, attempt());
    if (complete) return Status::Ok();
    guard.Relock();
  }
}

Result<Site::Read> Site::ReadObject(OutboundBatch& batch,
                                    ObjectTable::BatchGuard& guard,
                                    ObjectId id) {
  if (!guard.Add(id)) return Read::kRestart;
  MetaRef meta = FindMeta(id);
  if (meta.obj == nullptr) return Read::kAbsent;
  const std::size_t first = batch.refs.size();
  for (const RefFieldInfo& rf : meta.obj->obiwan_class().refs()) {
    const RefBase& rb = rf.get_const(*meta.obj);
    OutboundBatch::Field& field = batch.refs.emplace_back();
    if (rb.IsProxy()) {
      field.forwarded = &rb.proxy()->descriptor();
      continue;
    }
    if (!rb.IsLocal()) continue;
    field.local = rb.local_raw();
    field.id = table_.PtrId(field.local);
    if (field.id.valid()) continue;
    // Name the target under the guard: its fresh id's shard joins the guard
    // first, so a reader of the id blocks until the master record exists.
    const ObjectId oid = MintId();
    if (!guard.Add(oid)) return Read::kRestart;
    field.id = ClaimMaster(rb.local(), oid);
    if (!field.id.valid()) {
      return FailedPreconditionError(ToString(id) +
                                     " links to an object of another site");
    }
  }
  batch.nodes.push_back({id, first, meta});
  batch.ids.push_back(id);
  batch.members.insert(id);
  return Read::kAdded;
}

void Site::CaptureBatch(const OutboundBatch& batch, const GetRequest* get,
                        std::span<const net::Address> users, wire::Writer& w) {
  const bool fresh_get = get != nullptr && !get->refresh;
  const bool shared_pair = fresh_get && get->mode.SharedProxyPair();
  const bool object_pins = fresh_get && !shared_pair;
  auto travels_inline = [&](ObjectId tid) {
    return get != nullptr && batch.members.contains(tid);
  };
  const net::Address self = address();
  ConsistencyPolicy& policy = consistency_policy();
  // Holder registration rides the walk's guard with the site mutex nested
  // inside (shard -> site is the legal lock order), so a concurrent
  // DropHolder sweep, which checks the holder's health under each shard's
  // guard, never unlinks a registration that completed before it reached
  // the shard.

  std::vector<ProxyId> pins;
  pins.reserve(batch.refs.size() + (object_pins ? batch.nodes.size() : 0));
  ProxyId cluster_pin;
  {
    std::lock_guard lock(pins_mutex_);
    if (shared_pair) {
      cluster_pin = NewClusterProxyInLocked(batch.ids.front(), batch.ids, users);
    }
    for (const OutboundBatch::Node& node : batch.nodes) {
      const std::size_t end =
          node.first_ref + node.meta.obj->obiwan_class().refs().size();
      for (std::size_t k = node.first_ref; k < end; ++k) {
        const OutboundBatch::Field& field = batch.refs[k];
        if (field.local != nullptr && !travels_inline(field.id)) {
          pins.push_back(NewProxyInLocked(field.id, users).first);
        }
      }
      if (object_pins) {
        // Incremental mode: the per-object proxy pair of §4.2, giving this
        // replica its individual put/refresh channel.
        pins.push_back(NewProxyInLocked(node.id, users).first);
      }
    }
  }

  if (get != nullptr) w.Varint(batch.nodes.size());
  std::size_t next_pin = 0;
  std::size_t fields_hint = 0;
  for (const OutboundBatch::Node& node : batch.nodes) {
    const MetaRef& meta = node.meta;
    const ClassInfo& ci = meta.obj->obiwan_class();
    const Bytes policy_data =
        get == nullptr
            ? Bytes{}
            : policy.MakeGetData(MasterView{node.id, *meta.version,
                                            *meta.policy_state, *meta.holders},
                                 users.front());
    WriteRecordHead(w, node.id, ci.name(), *meta.version, AsView(policy_data));
    const wire::Writer::BlobMark fields = w.BeginBlob(fields_hint);
    ci.EncodeFields(*meta.obj, w);
    fields_hint = w.EndBlob(fields);

    const std::size_t ref_count = ci.refs().size();
    w.Varint(ref_count);
    for (std::size_t k = node.first_ref; k < node.first_ref + ref_count; ++k) {
      const OutboundBatch::Field& field = batch.refs[k];
      if (field.forwarded != nullptr) {
        WriteRef(w, {RefEntry::Tag::kProxy, field.forwarded->target,
                     ViewOf(*field.forwarded)});
      } else if (field.local == nullptr) {
        WriteRef(w, {});
      } else if (travels_inline(field.id)) {
        WriteRef(w, {RefEntry::Tag::kInline, field.id, {}});
      } else {
        WriteRef(w, {RefEntry::Tag::kProxy, field.id,
                     {pins[next_pin++], self, field.id,
                      field.local->obiwan_class().name()}});
      }
    }
    WriteRecordChannel(w, object_pins ? DescriptorView{pins[next_pin++], self,
                                                       node.id, ci.name()}
                                      : DescriptorView{});
    if (get != nullptr) {
      const std::vector<net::Address>& holders = *meta.holders;
      if (std::find(holders.begin(), holders.end(), users.front()) ==
          holders.end()) {
        table_.LinkHolder(node.id, users.front());
      }
      if (meta.master != nullptr) ++meta.master->gets_served;
    }
  }

  if (get != nullptr) {
    const DescriptorView cluster{
        cluster_pin, self, batch.ids.front(),
        batch.nodes.front().meta.obj->obiwan_class().name()};
    WriteClusterTail(w, shared_pair ? &cluster : nullptr, batch.ids);
    {
      // A (re-)registering holder starts healthy: a get proves the device is
      // back, even if it was dropped as unreachable earlier.
      std::lock_guard health(mutex_);
      holder_health_[users.front()].consecutive_failures = 0;
    }
    telemetry_.objects_served->Inc(batch.nodes.size());
  }
  record_bytes_hint_.store(w.size() / batch.nodes.size(),
                           std::memory_order_relaxed);
}

bool Site::BindRef(RefBase& rb, const RefView& entry,
                   std::shared_ptr<Shareable> local, ReplicationMode mode) {
  if (entry.tag == RefEntry::Tag::kNull) {
    rb.Reset();
  } else if (local != nullptr) {
    // The target is already present here: bind directly, no proxy-out.
    rb.BindLocal(entry.target, std::move(local));
  } else if (entry.tag == RefEntry::Tag::kInline) {
    return false;
  } else {
    rb.BindProxy(std::make_shared<ProxyOut>(this, entry.proxy.Owned(), mode));
    telemetry_.proxy_outs_created->Inc();
  }
  return true;
}

// ---------------------------------------------------------------------------
// Provider side: Get
// ---------------------------------------------------------------------------

Result<Bytes> Site::ServeGet(const net::Address& from, const GetRequest& req) {
  SpanScope span(&sinks_, clock_, id_, "serve.get",
                 {.format = req.refresh ? Literal("root {o} for {t} (refresh)")
                                        : Literal("root {o} for {t}"),
                  .object = req.root,
                  .text = from},
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

  // --- walk and serialize, under one guard ---------------------------------
  // Refresh returns current state of what the pin covers: the whole cluster
  // for a cluster pin, the requested root otherwise.
  const std::span<const ObjectId> roots =
      req.refresh && pin_cluster ? std::span<const ObjectId>(pin_members)
                                 : std::span<const ObjectId>(&req.root, 1);
  OutboundBatch batch;
  ObjectTable::BatchGuard guard(table_);
  OBIWAN_RETURN_IF_ERROR(WalkBatch(batch, guard, roots, &req));
  if (batch.nodes.empty()) {
    return NotFoundError(!req.refresh  ? "get root not present"
                         : pin_cluster ? "nothing left to refresh"
                                       : "refresh root not present");
  }
  wire::Writer reply(batch.nodes.size() *
                         record_bytes_hint_.load(std::memory_order_relaxed) +
                     64);
  CaptureBatch(batch, &req, std::span<const net::Address>(&from, 1), reply);
  return std::move(reply).Take();
}

// ---------------------------------------------------------------------------
// Provider side: Put
// ---------------------------------------------------------------------------

Result<PutReply> Site::ServePut(const net::Address& from, const PutRequest& req) {
  SpanScope span(&sinks_, clock_, id_, "serve.put",
                 {.format = req.transactional
                                ? Literal("{n} item(s) from {t} (tx)")
                                : Literal("{n} item(s) from {t}"),
                  .number = req.items.size(),
                  .text = from},
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

  ConsistencyPolicy& policy = consistency_policy();
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
      MetaRef meta = FindMeta(item.id);
      if (meta.obj == nullptr) {
        return NotFoundError("object not present: " + ToString(item.id));
      }
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
      OBIWAN_RETURN_IF_ERROR(policy.ValidatePut(
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
        BindRef(ref_infos[j].get(*t.meta.obj), ViewOf(entry),
                ref_target(entry.target), ReplicationMode::Incremental());
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
      for (net::Address addr : policy.AfterPut(
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

Status Site::BuildPushRecord(ObjectId id,
                             std::span<const net::Address> recipients,
                             wire::Writer& body) {
  OutboundBatch batch;
  ObjectTable::BatchGuard guard(table_);
  OBIWAN_RETURN_IF_ERROR(WalkBatch(batch, guard,
                                   std::span<const ObjectId>(&id, 1),
                                   /*get=*/nullptr));
  if (batch.nodes.empty()) {
    return NotFoundError("object not present: " + ToString(id));
  }
  // Nothing travels inline: every local target goes out as one shared pin
  // that each recipient of this record can fault through.
  CaptureBatch(batch, /*get=*/nullptr, recipients, body);
  return Status::Ok();
}

void Site::PublishUpdates(std::vector<UpdateGroup> groups) {
  std::vector<OutboundNotify> outbound;
  const bool push = consistency_policy().PushUpdatesOnPut();
  for (UpdateGroup& group : groups) {
    if (group.recipients.empty()) continue;
    wire::Writer body;
    if (push) {
      body = wire::Writer(record_bytes_hint_.load(std::memory_order_relaxed));
      if (!BuildPushRecord(group.id, group.recipients, body).ok()) continue;
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
  Trace("update", {.format = "{o} now at version {n}",
                   .object = id,
                   .number = update.version});

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

void Site::SetNotifyFanout(std::size_t width) {
  notify_width_.store(width == 0 ? 1 : width, std::memory_order_relaxed);
}

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
  std::vector<net::Exchange> exchanges;
  exchanges.reserve(batch.size());
  for (const OutboundNotify& note : batch) {
    exchanges.push_back({note.addr, AsView(*note.frame)});
  }
  // The exchanges overlap, so each one's bookkeeping runs in the transport's
  // hooks: its wire-send and ack-return stamps, rpc span and latency are its
  // own send and reply instants.
  JourneySink* journey = journey_sink();
  std::vector<std::optional<OutboundRpc>> rpcs(batch.size());
  const net::ExchangeHooks hooks{
      [&](std::size_t i) {
        const OutboundNotify& note = batch[i];
        notify_inflight_.fetch_add(1, std::memory_order_relaxed);
        if (journey != nullptr) {
          journey->OnWireSend(note.id, note.version, note.addr, clock_.Now());
        }
        rpcs[i].emplace(*this, telemetry_.op_notify, note.addr,
                        /*overlapping=*/true);
      },
      [&](std::size_t i, const Result<Bytes>& reply) {
        const OutboundNotify& note = batch[i];
        rpcs[i]->Finish(reply.status());
        rpcs[i].reset();
        if (journey != nullptr) {
          journey->OnAckReturn(note.id, note.version, note.addr, clock_.Now(),
                               reply.ok());
        }
        notify_inflight_.fetch_sub(1, std::memory_order_relaxed);
      }};
  const std::vector<Result<Bytes>> replies = transport_->RequestAll(
      exchanges, notify_width_.load(std::memory_order_relaxed),
      net::CallOptions{request_deadline_}, hooks);

  // Holders that crossed the failure threshold are dropped *after* the site
  // mutex is released: DropHolder takes shard guards, and shard locks must
  // never be acquired under the site mutex (it is a leaf).
  std::vector<net::Address> drops;
  {
    std::lock_guard lock(mutex_);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      OutboundNotify& note = batch[i];
      if (replies[i].ok()) {
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
                           << " failed: " << replies[i].status();
        net::Address addr = note.addr;
        if (HandleNotifyFailureLocked(std::move(note))) {
          drops.push_back(std::move(addr));
        }
      }
    }
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
        pending = PendingNotify{std::move(note), next_attempt};
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
  notify_retries_.push_back(PendingNotify{std::move(note), next_attempt});
  return false;
}

void Site::DropHolder(const net::Address& addr) {
  // The decision is atomic under the site mutex: re-check the threshold (a
  // get that raced in after the failing batch healed the holder, and
  // dropping it now would erase a live registration), forget its health and
  // purge its retries.
  {
    std::lock_guard lock(mutex_);
    auto hit = holder_health_.find(addr);
    if (hit == holder_health_.end()) return;
    if (holder_failure_threshold_ == 0 ||
        hit->second.consecutive_failures < holder_failure_threshold_) {
      return;  // re-registered (healed) since the drop was decided
    }
    holder_health_.erase(hit);
    std::erase_if(notify_retries_, [&](const PendingNotify& pending) {
      return pending.note.addr == addr;
    });
    telemetry_.holders_dropped->Inc();
  }
  // Then unlink it shard by shard. CaptureBatch links a holder and gives it
  // a health entry under the same batch guards, so a health entry seen under
  // a shard's guard means a registration has completed since the decision:
  // the sweep stops there and keeps it. A registration in a shard the sweep
  // already passed linked after the sweep did, so it stays too.
  table_.RemoveHolderEverywhere(addr, [&] {
    std::lock_guard lock(mutex_);
    return holder_health_.contains(addr);
  });
  Trace("holder",
        {.format = "{t} dropped after repeated notification failures",
         .text = addr});
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

Status Site::ServePush(const BatchView& batch) {
  const RecordView& record = batch.records.front();
  SpanScope span(&sinks_, clock_, id_, "serve.push",
                 {.format = "{o}", .object = record.id},
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
  OBIWAN_RETURN_IF_ERROR(Materialize(batch, ReplicationMode::Incremental(),
                                     /*refresh=*/true, record.id)
                             .status());
  if (journey != nullptr) {
    journey->OnReplicaApply(record.id, record.version, clock_.Now());
  }
  telemetry_.invalidations_received->Inc();  // counted as an update notification
  Trace("push", {.format = "{o} updated in place", .object = record.id});
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
                 {.format = "{n} id(s)", .number = req.ids.size()},
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
    Trace("invalidate", {.format = "{o} marked stale", .object = oid});
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
        tit != pin_by_target_.end() && tit->second == &*it) {
      pin_by_target_.erase(tit);
    }
    proxy_ins_.erase(it);
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
  if (!HolderAnywhere(from)) {
    std::lock_guard lock(mutex_);
    holder_health_.erase(from);
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Provider side: Call (the RMI skeleton path)
// ---------------------------------------------------------------------------

Result<Bytes> Site::ServeCall(const rmi::CallRequest& call) {
  SpanScope span(&sinks_, clock_, id_, "serve.call",
                 {.format = "{t} on {o}",
                  .object = call.target,
                  .text = call.method},
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
    fault_span.emplace(&sinks_, clock_, id_, Literal("fault"),
                       SpanName{.format = "{o} via {t}",
                                .object = root,
                                .text = descriptor.provider},
                       TraceContext::Current());
  }
  telemetry_.gets_sent->Inc();
  SpanScope get_span(&sinks_, clock_, id_, "get",
                     {.format = refresh ? Literal("{o} (refresh) from {t}")
                                        : Literal("{o} from {t}"),
                      .object = root,
                      .text = descriptor.provider},
                     TraceContext::Current());

  // The request travels with the site lock *released*: a synchronous
  // transport may serve the provider side on another thread of this very
  // process (or even this very site, over TCP loopback).
  GetRequest req{descriptor.pin, root, mode, refresh};
  wire::Writer body(kMaxGetRequestBytes);
  wire::Encode(body, req);
  OBIWAN_ASSIGN_OR_RETURN(
      Bytes reply_bytes,
      TimedRequest(telemetry_.op_get, descriptor.provider,
                   AsView(rmi::WrapRequest(rmi::MessageKind::kGet, body,
                                           TraceContext::Current(),
                                           DeadlineBudget(), address()))));
  telemetry_.replication_bytes_in->Inc(reply_bytes.size());
  // The whole reply is parsed before the table is touched; the views point
  // into reply_bytes, which outlives Materialize.
  BatchView batch;
  wire::Reader r(AsView(reply_bytes));
  ReadGetReply(r, batch);
  OBIWAN_RETURN_IF_ERROR(r.status());
  return Materialize(batch, mode, refresh, root);
}

Result<std::shared_ptr<Shareable>> Site::Materialize(const BatchView& batch,
                                                     ReplicationMode mode,
                                                     bool refresh,
                                                     ObjectId root) {
  SpanScope span(&sinks_, clock_, id_, "materialize",
                 {.format = "{n} object(s)", .number = batch.records.size()},
                 TraceContext::Current());
  const std::vector<RecordView>& records = batch.records;
  const std::size_t n = records.size();
  if (n == 0) return DataLossError("empty replication batch");

  // What each record becomes here: the object every reference to it must
  // alias, and whether its state (and so its topology) is applied from the
  // record. An existing replica touched by a non-refresh get keeps its state
  // and topology (it may carry local edits).
  struct Slot {
    const ClassInfo* ci = nullptr;
    std::shared_ptr<Shareable> obj;
    ReplicaEntry* replica = nullptr;  // an existing replica
    bool fresh = false;
    bool repeated = false;  // its id comes more than once in the batch
  };
  std::vector<Slot> slots(n);
  std::vector<ObjectId> ids(n);
  std::size_t root_index = n;
  for (std::size_t i = 0; i < n; ++i) {
    const RecordView& rec = records[i];
    const ClassInfo* ci = i > 0 ? slots[i - 1].ci : nullptr;
    if (ci == nullptr || ci->name() != rec.class_name) {
      OBIWAN_ASSIGN_OR_RETURN(ci, ClassRegistry::Instance().Find(rec.class_name));
    }
    if (ci->refs().size() != rec.ref_count) {
      return DataLossError("ref schema mismatch for class " +
                           std::string(rec.class_name));
    }
    slots[i].ci = ci;
    ids[i] = rec.id;
    if (root_index == n && rec.id == root) root_index = i;
  }
  if (root_index == n) {
    return DataLossError("replication batch missing requested root");
  }

  // Batch members by id, for swizzling.
  std::vector<std::size_t> by_id(n);
  for (std::size_t i = 0; i < n; ++i) by_id[i] = i;
  std::sort(by_id.begin(), by_id.end(),
            [&](std::size_t a, std::size_t b) { return ids[a] < ids[b]; });
  for (std::size_t i = 1; i < n; ++i) {
    if (ids[by_id[i]] == ids[by_id[i - 1]]) {
      slots[by_id[i]].repeated = slots[by_id[i - 1]].repeated = true;
    }
  }
  auto member = [&](ObjectId id) -> std::size_t {
    auto it = std::lower_bound(
        by_id.begin(), by_id.end(), id,
        [&](std::size_t i, const ObjectId& key) { return ids[i] < key; });
    return it != by_id.end() && ids[*it] == id ? *it : n;
  };

  // Targets outside the batch are resolved before the guard: they live in
  // arbitrary shards, and no shard guard may be taken while one is held.
  std::vector<std::shared_ptr<Shareable>> outside(batch.refs.size());
  for (std::size_t k = 0; k < batch.refs.size(); ++k) {
    const RefView& ref = batch.refs[k];
    if (!ref.target.valid() || member(ref.target) != n) continue;
    outside[k] = table_.FindLocked(ref.target);
    if (outside[k] == nullptr && ref.tag == RefEntry::Tag::kInline) {
      return DataLossError("dangling inline reference in batch");
    }
  }

  ConsistencyPolicy& policy = consistency_policy();
  {
    ObjectTable::BatchGuard guard(table_, ids);

    // Map every record to its local object. New instances are decoded here
    // but stay private until the pass below publishes them, so a record that
    // fails to decode leaves the table as it was.
    for (std::size_t i = 0; i < n; ++i) {
      const RecordView& rec = records[i];
      Slot& slot = slots[i];
      auto [master, replica] = table_.Lookup(rec.id);
      if (master != nullptr) {
        // Our own object came back around a chain; the master is
        // authoritative — never overwrite it from a get.
        slot.obj = master->obj;
      } else if (replica != nullptr) {
        slot.obj = replica->obj;
        slot.replica = replica;
        // Monotonic apply guard: a late or retried push/refresh from before
        // our last sync must not regress the replica. (ServePush's early
        // check is only a filter; this one runs under the shard guard the
        // decode runs under, so the race is actually closed.)
        slot.fresh = refresh && rec.version >= replica->version;
        if (slot.fresh &&
            replica->obj->obiwan_class().refs().size() != rec.ref_count) {
          return DataLossError("refresh ref schema mismatch for class " +
                               std::string(rec.class_name));
        }
      } else {
        slot.obj = slot.ci->NewInstance();
        wire::Reader fields(rec.fields);
        OBIWAN_RETURN_IF_ERROR(slot.ci->DecodeFields(*slot.obj, fields));
        slot.fresh = true;
      }
    }

    // One sync instant for the whole batch.
    const Nanos synced_at = clock_.Now();
    for (std::size_t i = 0; i < n; ++i) {
      const RecordView& rec = records[i];
      Slot& slot = slots[i];
      if (ReplicaEntry* e = slot.replica) {
        if (slot.fresh) {
          wire::Reader fields(rec.fields);
          OBIWAN_RETURN_IF_ERROR(
              e->obj->obiwan_class().DecodeFields(*e->obj, fields));
          e->version = rec.version;
          e->stale = false;
          e->known_master_version = std::max(e->known_master_version, rec.version);
          e->last_sync = synced_at;
          ++e->sync_count;
          policy.OnReplicaData(ReplicaView{rec.id, e->version, e->policy_state},
                               rec.policy_data);
        }
        // A per-object channel upgrades a replica that had none (or only the
        // shared cluster channel) to individually updatable.
        if (rec.provider.valid() && (!e->provider.valid() || e->in_cluster)) {
          e->provider = rec.provider.Owned();
          e->in_cluster = false;
        }
        continue;
      }
      if (!slot.fresh) continue;  // a master

      ReplicaEntry entry;
      entry.obj = slot.obj;
      entry.version = rec.version;
      entry.known_master_version = rec.version;
      entry.last_sync = synced_at;
      entry.sync_count = 1;
      if (rec.provider.valid()) {
        entry.provider = rec.provider.Owned();
      } else if (batch.has_cluster) {
        entry.provider = batch.cluster.Owned();
        entry.in_cluster = true;
      }
      ReplicaEntry* stored = nullptr;
      if (!slot.repeated) {
        // Found absent under this guard above: no second probe.
        stored = table_.InsertReplica(rec.id, std::move(entry));
      } else if (auto [first, inserted] =
                     table_.EmplaceReplica(rec.id, std::move(entry));
                 inserted) {
        stored = first;
      } else {
        // The id came twice in this batch: the first copy's object is the
        // one every reference must alias.
        slot.obj = first != nullptr ? first->obj : table_.Find(rec.id);
        slot.fresh = false;
        continue;
      }
      policy.OnReplicaData(
          ReplicaView{rec.id, stored->version, stored->policy_state},
          rec.policy_data);
      telemetry_.replicas_created->Inc();
    }

    // Swizzle references of fresh records.
    for (std::size_t i = 0; i < n; ++i) {
      const Slot& slot = slots[i];
      if (!slot.fresh) continue;
      const RecordView& rec = records[i];
      const auto& ref_infos = slot.obj->obiwan_class().refs();
      for (std::size_t j = 0; j < ref_infos.size(); ++j) {
        const std::size_t k = rec.first_ref + j;
        const RefView& ref = batch.refs[k];
        const std::size_t target = ref.target.valid() ? member(ref.target) : n;
        if (!BindRef(ref_infos[j].get(*slot.obj), ref,
                     target < n ? slots[target].obj : outside[k], mode)) {
          return DataLossError("dangling inline reference in batch");
        }
      }
    }
  }

  if (batch.has_cluster) {
    std::lock_guard pins(pins_mutex_);
    cluster_members_[batch.cluster.pin] = batch.cluster_members;
  }
  return slots[root_index].obj;
}

// ---------------------------------------------------------------------------
// Put / Refresh / Prefetch
// ---------------------------------------------------------------------------

Result<PutItem> Site::BuildPutItem(ObjectId id, bool read_only) {
  PutItem item;
  item.id = id;
  item.read_only = read_only;
  // Fields and refs as they are under the replica's shard guard; the refs
  // are named after it is released (EnsureId may lock other shards).
  std::vector<RefBase> snaps;
  {
    ObjectTable::ShardGuard guard(table_, id);
    ReplicaEntry* e = table_.Replica(id);
    if (e == nullptr) {
      return FailedPreconditionError("not a replica here: " + ToString(id));
    }
    item.base_version = e->version;
    if (read_only) return item;  // validation-only: no state travels
    item.policy_data = consistency_policy().MakePutData(
        ReplicaView{id, e->version, e->policy_state}, clock_);
    const ClassInfo& ci = e->obj->obiwan_class();
    wire::Writer fields;
    ci.EncodeFields(*e->obj, fields);
    item.fields = std::move(fields).Take();
    for (const RefFieldInfo& rf : ci.refs()) snaps.push_back(rf.get_const(*e->obj));
  }

  // Unlike a get or a push, a put names every target by id, since the
  // provider holds (or can reach) all of them, except an object this site
  // masters — the replica grew an edge to it, and the provider can only
  // reach it through a pin pointing back here.
  item.refs.reserve(snaps.size());
  for (const RefBase& snap : snaps) {
    if (snap.IsProxy()) {
      item.refs.push_back(RefEntry::Inline(snap.proxy()->target()));
    } else if (!snap.IsLocal()) {
      item.refs.push_back(RefEntry::Null());
    } else if (ObjectId tid = EnsureId(snap.local()); !tid.valid()) {
      return FailedPreconditionError(ToString(id) +
                                     " links to an object of another site");
    } else if (table_.ContainsMaster(tid)) {
      item.refs.push_back(RefEntry::Proxy(DescriptorFor(
          NewProxyIn(tid), tid, snap.local()->obiwan_class().name())));
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
                 transactional ? Literal("commit") : Literal("put"),
                 {.format = "{n} item(s) to {t}",
                  .number = ids.size(),
                  .text = provider.provider},
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

  const Nanos synced_at = clock_.Now();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (ids[i].second) continue;  // read-only items do not advance
    ObjectTable::ShardGuard guard(table_, ids[i].first);
    if (ReplicaEntry* e = table_.Replica(ids[i].first)) {
      e->version = reply.new_versions[i];
      e->stale = false;
      // An accepted put is a synchronisation: we now hold exactly the master
      // state our write produced.
      e->known_master_version = std::max(e->known_master_version, e->version);
      e->last_sync = synced_at;
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
  // kNotFound tells the resync daemon the replica is gone (evicted or
  // restored away) and the entry can be forgotten, not retried.
  return RefreshReplica(id, StatusCode::kNotFound);
}

Status Site::Refresh(RefBase& ref) {
  if (!ref.IsLocal()) {
    return FailedPreconditionError("refresh requires a resolved local replica");
  }
  return RefreshReplica(ref.id(), StatusCode::kFailedPrecondition);
}

Status Site::RefreshReplica(ObjectId id, StatusCode absent) {
  ProxyDescriptor provider;
  {
    ObjectTable::ShardGuard guard(table_, id);
    ReplicaEntry* e = table_.Replica(id);
    if (e == nullptr) {
      return Status(absent, "not a replica here: " + ToString(id));
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

Status Site::PrefetchAll(RefBase& ref) {
  if (ref.IsEmpty()) return Status::Ok();
  // One flow id + one parent span for the whole walk, so the prefetcher's
  // cascade of faults shows up as a single tree in the timeline.
  TraceContext::Scope flow(TraceContext::CurrentOrNew(id_));
  SpanScope span(&sinks_, clock_, id_, "prefetch",
                 {.format = "{o}", .object = ref.id()}, TraceContext::Current());
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
  SpanScope span(&sinks_, clock_, id_, "rmi",
                 {.format = "{t} on {o}", .object = target, .text = method},
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
                 {.format = "{n} call(s) at {t}",
                  .number = calls.size(),
                  .text = to},
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
      OBIWAN_ASSIGN_OR_RETURN(Bytes encoded, ServeGet(from, req));
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
      BatchView record;
      ReadRecord(body, record);
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
