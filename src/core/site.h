// Site: one OBIWAN process.
//
// The paper's architecture gives "the application programmer the view of a
// network of machines in which one or more processes run; objects exist
// inside processes" (§2). A Site is such a process: it owns a transport
// endpoint, the tables that implement both halves of the replication
// protocol, and the RMI dispatch plane.
//
// Provider side (site S2 in Figure 1):
//   - table_ (masters): objects this site created, with version + policy state
//   - proxy_ins_      : proxy-in handles through which demanders fetch/put
//   - ServeGet        : graph traversal + serialization of a replica batch
//   - ServePut        : applying replica state back onto masters
//
// Demander side (site S1):
//   - table_ (replicas): local replicas keyed by their master's ObjectId —
//                    the identity map that guarantees one replica per master
//   - Materialize  : instantiate records, swizzle references, create
//                    proxy-outs at graph boundaries
//   - DemandThrough: the object-fault path used by ProxyOut
//
// Both halves live in one lock-striped ObjectTable (core/object_table.h);
// the site mutex is a small non-recursive leaf guarding holder health and
// the notify retry queue only.
//
// A site is usually both at once: it re-exports replicas it holds, so chains
// of sites (PDA <- laptop <- office PC) work without special cases.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/clock.h"
#include "common/contention.h"
#include "common/ids.h"
#include "common/metrics.h"
#include "common/status.h"
#include "common/trace.h"
#include "core/consistency.h"
#include "core/fanout.h"
#include "core/inspect.h"
#include "core/messages.h"
#include "core/mode.h"
#include "core/object_table.h"
#include "core/proxy.h"
#include "core/ref.h"
#include "core/shareable.h"
#include "net/transport.h"
#include "rmi/call.h"
#include "rmi/dispatcher.h"
#include "rmi/registry.h"

namespace obiwan::core {

template <typename T>
class RemoteRef;
class JourneySink;

struct SiteStats {
  std::uint64_t object_faults = 0;  // proxy-out demands that went remote
  std::uint64_t gets_sent = 0;
  std::uint64_t gets_served = 0;
  std::uint64_t puts_sent = 0;
  std::uint64_t puts_served = 0;
  std::uint64_t calls_sent = 0;
  std::uint64_t calls_served = 0;
  std::uint64_t proxy_ins_created = 0;
  std::uint64_t proxy_outs_created = 0;
  std::uint64_t replicas_created = 0;
  std::uint64_t objects_served = 0;
  std::uint64_t invalidations_sent = 0;
  std::uint64_t invalidations_received = 0;
  std::uint64_t replication_bytes_in = 0;   // replica state received
  std::uint64_t replication_bytes_out = 0;  // replica state shipped
  std::uint64_t notify_retries = 0;         // queued notifications re-sent
  std::uint64_t notify_superseded = 0;      // queued retries coalesced by version
  std::uint64_t holders_dropped = 0;        // holders unregistered as unreachable
};

// Pre-resolved metric handles for one site. All protocol counters live in the
// metrics registry (labels: site id + a per-instance sequence number, so two
// sites with the same id in one process never share a series); SiteStats is a
// thin adapter computed from these counters against a movable baseline, which
// is what keeps ResetStats() cheap while the registry stays monotonic. The
// field-to-series mapping lives in one descriptor table (site.cc) that the
// constructor, Raw() and View() all walk, so adding a counter means adding
// one struct field and one table row.
struct SiteTelemetry {
  SiteTelemetry(SiteId site, MetricsRegistry& metrics);

  // One handle per SiteStats field, same names.
  Counter* object_faults;
  Counter* gets_sent;
  Counter* gets_served;
  Counter* puts_sent;
  Counter* puts_served;
  Counter* calls_sent;
  Counter* calls_served;
  Counter* proxy_ins_created;
  Counter* proxy_outs_created;
  Counter* replicas_created;
  Counter* objects_served;
  Counter* invalidations_sent;
  Counter* invalidations_received;
  Counter* replication_bytes_in;
  Counter* replication_bytes_out;
  Counter* notify_retries;
  Counter* notify_superseded;
  Counter* holders_dropped;

  // Live table sizes.
  Gauge* masters;
  Gauge* replicas;
  Gauge* proxy_ins;

  // Replication-state gauges, computed when read: Site::RefreshTelemetry
  // (every /metrics and /healthz scrape) and Site::Inspect (kInspect,
  // FleetMonitor) recompute them from the tables; no protocol path does:
  // obiwan_objects{role=master|replica|frontier} — topology by role, where
  // "frontier" counts distinct targets of unresolved proxy-outs;
  // obiwan_replica_staleness_versions{agg=max|p95} — how far behind the
  // replicas are in master versions; obiwan_replica_staleness_age_ns — the
  // oldest replica's time since last sync; obiwan_leases_expiring — leased
  // proxy-ins within half a lease of expiry.
  Gauge* objects_master;
  Gauge* objects_replica;
  Gauge* objects_frontier;
  Gauge* staleness_max;
  Gauge* staleness_p95;
  Gauge* staleness_age_max;
  Gauge* leases_expiring;

  // Holder lifecycle (refreshed by Site::SyncHolderGauges after every
  // fanout/registration/release): obiwan_holders{state=active|suspect} —
  // registered holders by health, where "suspect" means at least one
  // consecutive notification failure; obiwan_notify_retry_depth — queued
  // notifications awaiting their backoff deadline.
  Gauge* holders_active;
  Gauge* holders_suspect;
  Gauge* notify_retry_depth;

  // obiwan_site_uptime_ns — nanoseconds since this Site was constructed, on
  // the site's clock. A sawtooth reset to ~0 on a dashboard means the site
  // restarted; refreshed by Site::RefreshTelemetry (admin scrapes and
  // FleetMonitor polls).
  Gauge* uptime;

  // Client-side RPC telemetry, one bundle per operation the site issues.
  struct Op {
    Histogram* latency = nullptr;  // round-trip time on the site's clock
    Counter* errors = nullptr;
    const char* name = "";  // op label, reused as the rpc span name
  };
  Op op_call;
  Op op_get;
  Op op_put;
  Op op_commit;
  Op op_ping;
  Op op_release;
  Op op_renew;
  Op op_notify;   // invalidations / pushes fanned out after a put
  Op op_inspect;  // remote replication-state pulls

  // Current counter values as the legacy struct (no baseline applied).
  SiteStats Raw() const;
  // Raw() minus the stored baseline, saturating.
  SiteStats View() const;
  void Rebaseline() { baseline = Raw(); }

  SiteStats baseline;
};

class Site final : public rmi::Service {
 public:
  // Spans the per-site flight recorder keeps for post-mortem dumps.
  static constexpr std::size_t kFlightRecorderCapacity = 512;

  // The site takes ownership of its transport. `clock` is used for
  // policy timestamps; benches pass the simulation's VirtualClock.
  Site(SiteId id, std::unique_ptr<net::Transport> transport,
       Clock& clock = SystemClock::Instance());
  ~Site() override;

  Site(const Site&) = delete;
  Site& operator=(const Site&) = delete;

  // Start serving inbound requests (registers the dispatcher with the
  // transport).
  Status Start();
  void Stop();

  SiteId id() const { return id_; }
  net::Address address() const { return transport_->LocalAddress(); }
  net::Transport& transport() { return *transport_; }
  Clock& clock() { return clock_; }

  // --- naming ---------------------------------------------------------------

  // Host the name server on this site.
  void HostRegistry();
  // Point this site at a name server (possibly its own address).
  void UseRegistry(net::Address registry_address);

  // Export `obj` (if needed) and register it under `name`.
  Status Bind(const std::string& name, const std::shared_ptr<Shareable>& obj);
  Status Rebind(const std::string& name, const std::shared_ptr<Shareable>& obj);
  Status Unbind(const std::string& name);

  // Resolve `name` to a typed remote reference. Defined in remote_ref.h.
  template <typename T>
  Result<RemoteRef<T>> Lookup(const std::string& name);

  // --- masters ----------------------------------------------------------------

  // Make `obj` a master of this site (idempotent); returns its ObjectId.
  ObjectId Export(const std::shared_ptr<Shareable>& obj);

  // Master version counter (bumped on every accepted put).
  Result<std::uint64_t> MasterVersion(ObjectId id) const;

  // A master was edited *locally* (not through a put): bump its version and
  // notify every registered holder, exactly like the after-put fanout —
  // a versioned invalidation, or the new state itself under an
  // updates-dissemination policy. Best-effort: an unreachable holder simply
  // misses the notification and discovers the staleness on its next sync.
  Status MarkMasterUpdated(ObjectId id);

  // --- update fanout & holder lifecycle ---------------------------------------
  // After-put notifications (invalidations or pushes) go out through a
  // bounded parallel pool (core/fanout.h), so one unreachable holder costs
  // the batch a single notification deadline instead of stalling every
  // other holder behind it.
  void SetNotifyFanout(std::size_t width);

  // A holder that fails `threshold` consecutive notifications is dropped
  // from every holders list (obiwan_holders_dropped_total); its next get
  // re-registers it. 0 disables dropping. Default: 3.
  void SetHolderFailureThreshold(std::uint32_t threshold);

  // Transiently failed notifications are queued per holder and re-sent with
  // exponential backoff — piggybacked on the next fanout whose clock passes
  // their deadline, or explicitly via PumpNotifyRetries().
  struct NotifyRetryPolicy {
    Nanos initial_backoff = 100 * kMilli;
    Nanos max_backoff = 10 * kSecond;
    std::uint32_t max_attempts = 4;     // total sends per notification
    std::size_t per_holder_queue = 16;  // oldest dropped beyond this
  };
  void SetNotifyRetryPolicy(NotifyRetryPolicy policy);

  // Re-send every queued notification whose backoff deadline has passed.
  // Returns the number attempted.
  std::size_t PumpNotifyRetries();
  std::size_t pending_notify_retries() const;

  // --- replication (demander side) -------------------------------------------

  // Core of the demand path: fetch a batch through `descriptor` and
  // materialize it locally. Returns the local object for `root`.
  // With `shortcut_local` (the object-fault path), a root that is already
  // local resolves without touching the network; an explicit get
  // (RemoteRef::Replicate) passes false so the batch is always fetched and
  // coverage expands, with existing replicas reused by identity.
  Result<std::shared_ptr<Shareable>> DemandThrough(const ProxyDescriptor& descriptor,
                                                   ObjectId root,
                                                   ReplicationMode mode,
                                                   bool refresh,
                                                   bool shortcut_local = true);

  // Ship a replica's state back to its master (§2.2 step: B'.put ->
  // BProxyIn.put). Fails with kFailedPrecondition for cluster members, which
  // can only be updated as a whole (§4.3).
  Status Put(RefBase& ref);

  // Ship the whole cluster `ref` belongs to back to the provider.
  Status PutCluster(RefBase& ref);

  // Re-fetch current master state into the existing replica (the paper's
  // "refresh replica B' (method BProxyIn.get)").
  Status Refresh(RefBase& ref);

  // Resolve every proxy-out reachable from `ref`, using each proxy's own
  // mode — the "perfect mechanism of pre-fetching" of §2.1 footnote 3, and
  // the way an application pins a graph before disconnecting.
  Status PrefetchAll(RefBase& ref);

  bool IsStale(const RefBase& ref) const;
  Result<std::uint64_t> ReplicaVersion(const RefBase& ref) const;

  // Replicas currently marked stale (invalidated, not yet refreshed) —
  // the work list the resync daemon (core/resync.h) drains.
  std::vector<ObjectId> StaleReplicaIds() const;

  // Re-fetch current master state into the replica `id` through its
  // provider channel — Refresh(RefBase&) addressed by ObjectId, for
  // callers (the resync daemon) that hold no application Ref.
  Status RefreshReplica(ObjectId id);

  // Memory reclamation for limited-memory info-appliances (§2.1 motivates
  // incremental replication with exactly this constraint): drop every
  // replica that nothing outside the replica table references — no
  // application Ref and no other local object's reference field points at
  // it. An evicted object is re-fetched transparently if a proxy for it
  // faults later. Local edits that were never Put are lost with the replica;
  // call sparingly or after synchronising. Returns the number evicted.
  std::size_t EvictIdleReplicas();

  // --- persistence (mobility across restarts) ----------------------------------
  // Serialize this site's full object state — masters, replicas (with their
  // provider channels), proxy-ins and cluster membership — so a mobile
  // device can power down and resume where it left off, including replicas
  // it was editing offline. Counters and ids are preserved, so remote sites'
  // descriptors remain valid if this site restarts at the same address.
  // (Non-const: objects that never needed an id are assigned one so the
  // snapshot is self-consistent.)
  Result<Bytes> SaveSnapshot();
  // Restore into a freshly constructed site with the same SiteId. Fails with
  // kFailedPrecondition if the site already holds objects.
  Status LoadSnapshot(BytesView snapshot);

  // Atomic (per provider) optimistic commit: validate that every object in
  // `reads` and `writes` is still at the version this site last synchronised
  // at, then apply the write states. Objects are grouped by provider; each
  // provider's group is all-or-nothing, groups commit independently — the
  // paper's "relaxed transactional support" hook (§1).
  Status CommitReplicas(const std::vector<ObjectId>& reads,
                        const std::vector<ObjectId>& writes);

  // Replica's provider channel (needed by the transaction layer to route a
  // commit). Error if `id` is not a replica here.
  Result<ProxyDescriptor> ReplicaProvider(ObjectId id) const;

  // Release a provider-side proxy-in this site no longer needs.
  Status ReleaseProxy(const ProxyDescriptor& descriptor);

  // --- proxy-in leases (distributed GC) ----------------------------------------
  // The Java prototype relied on the JVM collecting unreachable proxies; for
  // provider-side proxy-ins this site offers lease-based collection instead:
  // with a lease duration set, every proxy-in expires unless used or renewed,
  // and CollectExpiredProxyIns() reclaims the dead ones. Zero (default)
  // disables leasing — proxy-ins then live until released explicitly.
  void SetProxyLeaseDuration(Nanos duration) { proxy_lease_ = duration; }
  std::size_t CollectExpiredProxyIns();
  // Demander side: keep a proxy-in alive across idle periods.
  Status RenewProxy(const ProxyDescriptor& descriptor);

  // --- RMI --------------------------------------------------------------------

  // Raw remote invocation; the typed face is RemoteRef<T>::Invoke.
  Result<Bytes> CallRaw(const net::Address& to, ObjectId target,
                        const std::string& method, Bytes args);

  // Batched invocation: several calls in one round trip, traced and timed
  // like CallRaw. Returns the raw batch reply frame (DecodeBatchReply).
  Result<Bytes> CallBatchRaw(const net::Address& to,
                             const std::vector<rmi::CallRequest>& calls);

  Status Ping(const net::Address& to);

  // --- consistency -------------------------------------------------------------

  // Install a policy (provider and demander side of this site). Never null.
  void SetConsistencyPolicy(std::unique_ptr<ConsistencyPolicy> policy);
  ConsistencyPolicy& consistency_policy() { return *policy_; }

  // Per-request deadline for every RPC this site issues: applied as the
  // transport CallOptions deadline and advertised in the request envelope as
  // the remaining budget, so providers shed work whose caller already gave
  // up. 0 restores the transport default; net::kNoDeadline disables.
  void SetRequestDeadline(Nanos deadline);
  Nanos request_deadline() const { return request_deadline_; }

  // Model the cost of creating and exporting one proxy-in — in the Java
  // prototype this is a UnicastRemoteObject export plus stub bookkeeping,
  // the per-object cost §4.2 measures and §4.3 eliminates with clustering.
  // Charged against the site's clock (virtual in simulations); zero by
  // default, so real deployments pay only the true CPU cost.
  void SetProxyExportCost(Nanos cost) { proxy_export_cost_ = cost; }

  // --- admin endpoint ----------------------------------------------------------
  // Serve the observability plane over HTTP (obs/http_admin.h): /metrics,
  // /healthz, /inspect.json, /frontier.json|.dot, /flight. `addr` is
  // "host:port", ":port" or "port"; port 0 picks a free one (admin_address()
  // reports the bound port). Implemented in src/obs/http_admin.cc so
  // obiwan_core never links the obs library — callers of ServeAdmin must
  // link obiwan_obs (the obiwan umbrella target does).
  struct AdminOptions {
    // Per-request socket budget on the admin port.
    Nanos request_deadline = 5 * kSecond;
    // /healthz turns 503 when more than this many replicas are stale —
    // readiness tracks whether resync is keeping up, not just liveness.
    std::size_t max_stale_backlog = 1024;
    // Lock-starvation check: when > 0, /healthz turns 503 if the p99 lock
    // wait across all tracked locks since the previous health check exceeds
    // this budget. Off by default — enabling it makes readiness drop under
    // heavy contention, which is a deliberate load-shedding choice.
    Nanos lock_wait_budget = 0;
    // Convergence budget: when > 0, /healthz turns 503 while the p99
    // time-to-all-holders of update journeys completed in the fast alert
    // window exceeds this. Off by default — it makes readiness track update
    // dissemination, not just liveness.
    Nanos convergence_budget = 0;
  };
  Status ServeAdmin(const std::string& addr);
  Status ServeAdmin(const std::string& addr, AdminOptions options);
  void StopAdmin() {
    admin_.reset();
    admin_address_.clear();
  }
  // "127.0.0.1:<port>" while serving, "" otherwise.
  const std::string& admin_address() const { return admin_address_; }

  // Recompute every continuous gauge — table sizes, staleness/lease/role,
  // holder health, uptime — from current state. Admin /metrics and /healthz
  // scrapes call this first. The staleness/lease/role gauges are computed
  // only here and in Inspect(), so a registry dump that skips both shows
  // them as of the last such pull; every protocol operation stays
  // O(batch) instead of rescanning the tables.
  void RefreshTelemetry();

  // --- introspection -------------------------------------------------------------

  SiteStats stats() const { return telemetry_.View(); }
  void ResetStats() { telemetry_.Rebaseline(); }

  // Structured report over the replica tables: per-object role, versions,
  // staleness (versions + virtual-time age), payload bytes, serve counts and
  // reference topology; per-proxy-in lease countdown. Also refreshes the
  // replication gauges. (Non-const for the same reason as SaveSnapshot:
  // locally referenced objects that never needed an id are assigned one so
  // the report's edge set is complete.)
  InspectReport Inspect();

  // Pull a remote site's report through the kInspect RMI method — a
  // fleet-wide view from any endpoint.
  Result<InspectReport> InspectRemote(const net::Address& to);

  // Compact JSON summary of the replica table (bounded size), embedded in
  // flight-recorder dumps so post-mortems capture replication state at
  // failure time, not just spans.
  std::string ReplicaSummaryJson();

  // Attach a span tracer (shared across sites to get a merged timeline).
  // Pass nullptr to detach; the tracer must outlive the site while attached.
  // Independent of the always-on flight recorder ring below.
  void SetTracer(Tracer* tracer) { sinks_.SetAttached(tracer); }

  // The site's always-on bounded span buffer (black box): holds the last N
  // spans whether or not a tracer is attached, and is registered with
  // FlightRecorder::Global() for post-mortem Chrome-trace dumps.
  Tracer& flight_recorder() { return flight_; }

  // Application hook for remotely triggered replica changes: fires after an
  // invalidation marks a replica stale (`stale`=true) and after a pushed
  // update refreshed one in place (`stale`=false). Runs outside the site
  // lock, on the thread that served the notification; keep it quick and do
  // not call back into blocking site operations from it.
  // Returns the previously installed callback so wrappers (the resync
  // daemon) can chain it and restore it on teardown.
  using ReplicaUpdateCallback = std::function<void(ObjectId id, bool stale)>;
  ReplicaUpdateCallback SetReplicaUpdateCallback(ReplicaUpdateCallback callback) {
    std::lock_guard lock(mutex_);
    auto previous = std::move(on_replica_update_);
    on_replica_update_ = std::move(callback);
    return previous;
  }

  // Observability hook for update dissemination (core/journey.h): the put,
  // fanout, notify-ack, invalidate and push paths stamp hop timestamps into
  // the sink. Pass nullptr to detach; the sink must outlive the site while
  // attached (ServeAdmin installs an obs::JourneyTracker and detaches it
  // when the admin endpoint stops). Returns the previously installed sink.
  JourneySink* SetJourneySink(JourneySink* sink) {
    return journey_sink_.exchange(sink, std::memory_order_acq_rel);
  }
  JourneySink* journey_sink() const {
    return journey_sink_.load(std::memory_order_acquire);
  }

  // Runs `fn` with every object-table shard held (the "world" lock) and
  // returns its result. Local mutations of a replica whose provider pushes
  // full updates (`core::PushUpdates`) race with push application on
  // transport threads unless made through here (or WithObjectLock). The
  // world guard is reentrant per thread and shard guards no-op under it, so
  // site calls (Put, Refresh) remain legal inside `fn` — the replacement
  // for the old recursive site mutex. Prefer WithObjectLock: the world
  // guard serializes against every shard.
  template <typename Fn>
  auto WithSiteLock(Fn&& fn) {
    ObjectTable::WorldGuard guard(table_);
    return std::forward<Fn>(fn)();
  }

  // Runs `fn` under the single shard guarding `ref`'s target record — the
  // sharded-table fast path for protecting local mutations of one object
  // (and of objects only this thread touches) against concurrent push/
  // invalidate application. `fn` must not call back into site operations
  // that lock other shards.
  template <typename Fn>
  auto WithObjectLock(const RefBase& ref, Fn&& fn) {
    ObjectId id = ref.id();
    if (!id.valid() && ref.IsLocal()) id = table_.PtrId(ref.local_raw());
    ObjectTable::ShardGuard guard(table_, id);
    return std::forward<Fn>(fn)();
  }
  template <typename Fn>
  auto WithObjectLock(ObjectId id, Fn&& fn) {
    ObjectTable::ShardGuard guard(table_, id);
    return std::forward<Fn>(fn)();
  }

  std::size_t master_count() const;
  std::size_t replica_count() const;
  std::size_t proxy_in_count() const;

  // ObjectTable::CheckConsistency under the world guard (records, pointer
  // identity, holder index and counts agree), for tests and debug checks.
  bool CheckTableConsistency() const {
    ObjectTable::WorldGuard world(table_);
    return table_.CheckConsistency();
  }

  // Holder notifications executing right now across all fanout batches
  // (queue-depth sampling; see obs/profiler.h).
  std::size_t notify_inflight() const { return fanout_.in_flight(); }

  // Local object (master or replica) by id, if present.
  Result<std::shared_ptr<Shareable>> FindLocal(ObjectId id) const;

  // rmi::Service: handles kCall/kPing/kGet/kPut/kRelease/kInvalidate/
  // kCommit/kRenew/kPush/kCallBatch/kInspect.
  Result<Bytes> Handle(rmi::MessageKind kind, const net::Address& from,
                       wire::Reader& body) override;

 private:
  // MasterEntry / ReplicaEntry moved to core/object_table.h: they are the
  // flat records the sharded table stores in its per-shard arenas.

  struct ProxyInEntry {
    ObjectId target;                // demand root at creation time
    std::vector<ObjectId> members;  // cluster pins only
    bool cluster = false;
    Nanos expires_at = 0;   // 0 = no lease
    bool anchored = false;  // name-server bind pins never expire
    // Demanders sharing this pin (gets, push records, cluster channels).
    // A release only erases the pin — and only unregisters the releasing
    // holder — once its last user is gone.
    std::vector<net::Address> users;
  };

  // Assign an ObjectId to a local object if it does not have one, making it
  // a master of this site. Replicas keep their master's id.
  ObjectId EnsureId(const std::shared_ptr<Shareable>& obj);

  // `users` are registered on the pin (see ProxyInEntry::users). Per-target
  // pins are reused through pin_by_target_, so repeated gets and push-record
  // builds share one pin instead of minting one per call. NewProxyIn locks
  // the pins mutex itself; the Locked variant is for callers already
  // holding it.
  ProxyId NewProxyIn(ObjectId target, std::span<const net::Address> users = {});
  ProxyId NewProxyInLocked(ObjectId target, std::span<const net::Address> users);
  ProxyId NewClusterProxyIn(ObjectId root, std::vector<ObjectId> members,
                            std::span<const net::Address> users);
  ProxyDescriptor DescriptorFor(ProxyId pin, ObjectId target,
                                std::string class_name) const;

  // Export `obj` under an anchored pin for a name-server binding.
  Result<rmi::BoundObject> AnchoredBinding(const std::shared_ptr<Shareable>& obj);

  // Send `descriptor.pin` to its provider as a kRenew or kRelease request.
  Status SendPinRequest(const SiteTelemetry::Op& op, rmi::MessageKind kind,
                        const ProxyDescriptor& descriptor);

  // One reference field as read under its owner's shard guard: the local
  // target or the unresolved proxy-out (both null for an empty ref).
  struct RefSnap {
    std::shared_ptr<Shareable> local;
    std::shared_ptr<ProxyOut> proxy;
  };
  // Encode `obj`'s value fields into `fields` and snapshot its references.
  // Caller holds `obj`'s shard guard; the snapshot is resolved (ExportRefs,
  // BuildPutItem) after the guard is released, because resolving assigns
  // ids and mints pins in other shards and under the pins mutex.
  std::vector<RefSnap> CaptureLocked(const Shareable& obj, Bytes& fields);
  // Outbound record refs, the one inline-or-proxy decision for gets and
  // pushes: a local target in `inline_ids` travels inline, any other local
  // target as its reused pin with `users` registered on it, and an
  // unresolved proxy is forwarded so the receiver faults straight to the
  // original provider (replica chains). No shard guard may be held.
  std::vector<RefEntry> ExportRefs(
      const std::vector<RefSnap>& snaps,
      const std::unordered_set<ObjectId, ObjectIdHash>& inline_ids,
      std::span<const net::Address> users);
  // Bind one received reference field. `local` is the entry's target if it
  // is present here (else null); an absent proxy target becomes a proxy-out
  // in `mode`. Returns false, leaving `rb` untouched, when an inline entry's
  // target is absent.
  bool BindRef(RefBase& rb, const RefEntry& entry,
               std::shared_ptr<Shareable> local, ReplicationMode mode);

  // Uniform provider-side metadata for masters and re-exported replicas.
  // The pointers alias the record inside the object table: the caller must
  // hold the shard guard of `id` (or the world) for as long as it uses them.
  struct MetaRef {
    std::shared_ptr<Shareable> obj;
    std::uint64_t* version;
    Bytes* policy_state;
    std::vector<net::Address>* holders;
  };
  Result<MetaRef> FindMeta(ObjectId id);

  // Refresh a pin's lease on any use.
  void TouchPin(ProxyInEntry& entry);

  void Trace(std::string_view category, std::string_view detail) {
    // An instant under the open span, fanned out to the flight-recorder ring
    // (always on) and the attached tracer (when set) — a detached site keeps
    // its black box.
    RecordInstant(&sinks_, clock_, id_, category, detail,
                  TraceContext::Current());
  }

  // Single choke point for outbound RPCs: times the round trip into `op`'s
  // latency histogram on the site clock and counts failures. `frame` must
  // already carry the current trace id (WrapRequest).
  Result<Bytes> TimedRequest(const SiteTelemetry::Op& op, const net::Address& to,
                             BytesView frame);

  // Deadline budget to advertise in outbound envelopes: the effective
  // request deadline when one is set (site override or transport default),
  // -1 (no header) when requests are unbounded.
  Nanos DeadlineBudget() const;

  // Refresh the masters/replicas/proxy-ins gauges from the table sizes.
  // Self-locking (pins mutex for the proxy-in count); call with no pins
  // lock held.
  void SyncGauges();

  // Recompute the staleness/topology gauges (obiwan_objects{role},
  // obiwan_replica_staleness_versions max/p95, staleness age, expiring
  // leases) from the tables. O(objects + refs), locking shard by shard —
  // call with no shard guard or leaf lock held (or with the world, as
  // Inspect does). Only the pull paths call it: RefreshTelemetry and
  // Inspect.
  void UpdateReplicationGauges();

  // Inspect() body; call with the world held.
  InspectReport InspectLocked();

  // Assign ids to every locally referenced object (fixed point), so reports
  // and snapshots cover the complete edge set. World held.
  void EnsureGraphIds();

  // Snapshot restore body; the public wrapper clears all tables on failure.
  Status LoadSnapshotLocked(BytesView snapshot);

  // Serialize the current master/replica state of `id` for a push: every
  // resolved reference travels as a proxy descriptor so any holder can
  // swizzle or fault it. Built once per fanout; `recipients` are registered
  // as users of every boundary pin the record references.
  Result<ObjectRecord> BuildPushRecord(ObjectId id,
                                       std::span<const net::Address> recipients);

  // Serialize replica `id` for a put. Read-only items carry only the base
  // version (for commit-time validation).
  Result<PutItem> BuildPutItem(ObjectId id, bool read_only);

  // An update to publish: `id` reached master `version`, and `recipients`
  // hold a copy that is now behind.
  struct UpdateGroup {
    ObjectId id;
    std::uint64_t version = 0;
    std::vector<net::Address> recipients;
  };
  // Notify every group's recipients — the new state itself under an
  // updates-dissemination policy, a versioned invalidation otherwise — and
  // send due retries along with them, all as one fanout batch. Each body is
  // built once per group and its frame shared by the recipients. Takes shard
  // guards (BuildPushRecord): call with none held.
  void PublishUpdates(std::vector<UpdateGroup> groups);

  // One notification (invalidation or push) addressed to one holder. The
  // frame is shared across the whole fanout — built once per object.
  struct OutboundNotify {
    net::Address addr;
    std::shared_ptr<const Bytes> frame;
    std::size_t payload_bytes = 0;  // wire body, not the envelope
    ObjectId id{};
    bool push = false;
    std::uint64_t version = 0;
    std::uint32_t attempt = 1;
    // Backoff the *previous* requeue waited, carried forward so the next
    // one doubles it and clamps once — not re-derived from attempt 0 every
    // pump (O(attempts) per requeue and wrong after SetNotifyRetryPolicy
    // mutates the policy mid-flight). 0 = not yet queued.
    Nanos backoff = 0;
  };
  struct PendingNotify {
    OutboundNotify note;
    Nanos next_attempt = 0;
    Nanos backoff = 0;
  };
  struct HolderHealth {
    std::uint32_t consecutive_failures = 0;
  };

  // Send a batch through the fanout pool, then apply the outcome under the
  // site mutex: successes reset holder health and count bytes/invalidations;
  // failures advance health toward the drop threshold or queue a retry.
  // Holders that crossed the threshold are dropped after the mutex is
  // released (DropHolder needs the world lock, which must never be acquired
  // under the site mutex).
  void DispatchNotifications(std::vector<OutboundNotify> batch);
  // Move retry-queue entries whose backoff deadline passed into `out`.
  // Site mutex held.
  void CollectDueRetriesLocked(std::vector<OutboundNotify>& out);
  // Returns true when `note`'s holder just crossed the failure threshold
  // and should be dropped. Site mutex held.
  bool HandleNotifyFailureLocked(OutboundNotify note);
  // Drop an unreachable holder: remove `addr` from every holders list (via
  // the per-shard holder index) and purge its queued retries. Takes the
  // world lock and the site mutex together, re-checks the failure count
  // under both, and aborts if the holder re-registered (a get resets its
  // health) in the window since the threshold was observed — the drop and
  // the sweep are atomic with respect to re-registration.
  void DropHolder(const net::Address& addr);
  // Site mutex held.
  void SyncHolderGaugesLocked();

  // Does `addr` still hold a pin covering `oid`? Pins mutex held.
  bool HolderStillPinnedLocked(const net::Address& addr, ObjectId oid) const;
  // Is `addr` registered anywhere (any pin user or holders list)?
  // Self-locking (pins mutex, then shard-by-shard holder index).
  bool HolderAnywhere(const net::Address& addr) const;

  // Provider side.
  Result<GetReply> ServeGet(const net::Address& from, const GetRequest& req);
  Result<PutReply> ServePut(const net::Address& from, const PutRequest& req);
  Status ServeInvalidate(const InvalidateRequest& req);
  Result<Bytes> ServeCall(const rmi::CallRequest& call);
  Status ServeRelease(const net::Address& from, ProxyId pin);
  Status ServeRenew(ProxyId pin);
  Status ServePush(const ObjectRecord& record);

  // Demander side.
  Result<std::shared_ptr<Shareable>> Materialize(const ProxyDescriptor& via,
                                                 const GetReply& reply,
                                                 ReplicationMode mode,
                                                 bool refresh, ObjectId want);

  std::shared_ptr<Shareable> FindLocalUnlocked(ObjectId id) const;

  // Ship the listed replicas to one provider; the bool marks read-only
  // (validation-only) items.
  Status PutItems(const ProxyDescriptor& provider,
                  const std::vector<std::pair<ObjectId, bool>>& ids,
                  bool transactional);

  SiteId id_;
  std::unique_ptr<net::Transport> transport_;
  Clock& clock_;
  rmi::Dispatcher dispatcher_;
  std::optional<rmi::RegistryService> registry_service_;
  std::optional<rmi::RegistryClient> registry_client_;
  std::unique_ptr<ConsistencyPolicy> policy_;
  bool started_ = false;

  // The sharded object table: masters, replicas, the pointer-identity map
  // and the per-shard holder index, each shard behind its own
  // TrackedMutex{"site.shard"} (see core/object_table.h for the layout and
  // the full lock-order rules). What used to be the single recursive
  // TrackedRecursiveMutex{"site"} over every table — the serialization
  // bench_contention's committed baseline measures — is now split three
  // ways: the table's shard locks, the pins mutex below, and a shrunken
  // non-recursive site mutex over cross-shard holder state only.
  mutable ObjectTable table_;

  // Cross-shard state: holder health, the notification retry queue, the
  // replica-update callback and the retry/threshold knobs. Non-recursive,
  // still tracked under lock name "site". Lock order: a shard guard (or the
  // world) may be held when acquiring this mutex, never the reverse; no
  // shard lock and no pins lock may be acquired while holding it.
  mutable TrackedMutex mutex_{"site"};

  // Provider-side pins: proxy_ins_, the per-target index and demander-side
  // cluster membership. A leaf lock like mutex_: never acquire a shard lock
  // or another leaf lock under it.
  mutable TrackedMutex pins_mutex_{"site.pins"};
  std::unordered_map<ProxyId, ProxyInEntry, ProxyIdHash> proxy_ins_;
  // Per-target index over non-cluster proxy_ins_, so repeated gets and push
  // records reuse a pin in O(1) instead of scanning the table.
  std::unordered_map<ObjectId, ProxyId, ObjectIdHash> pin_by_target_;
  // Demander-side cluster membership: cluster proxy-in -> member ids.
  std::unordered_map<ProxyId, std::vector<ObjectId>, ProxyIdHash> cluster_members_;

  // Holder lifecycle: consecutive-failure tally per registered holder and
  // the bounded per-holder retry queue (see NotifyRetryPolicy). Under mutex_.
  std::unordered_map<net::Address, HolderHealth> holder_health_;
  std::vector<PendingNotify> notify_retries_;
  std::uint32_t holder_failure_threshold_ = 3;
  NotifyRetryPolicy notify_retry_policy_;

  std::atomic<std::uint64_t> next_object_{1};
  std::uint64_t next_pin_ = 1;  // under pins_mutex_
  Nanos created_at_ = 0;  // clock_ reading at construction, for the uptime gauge
  Nanos proxy_export_cost_ = 0;
  Nanos proxy_lease_ = 0;
  Nanos request_deadline_ = 0;  // 0 = transport default

  SiteTelemetry telemetry_;
  FanoutPool fanout_;
  // Always-on flight-recorder ring (last N spans of this site) plus
  // the optional attached tracer, fanned out through sinks_.
  Tracer flight_{kFlightRecorderCapacity};
  TraceSinks sinks_;
  ReplicaUpdateCallback on_replica_update_;
  // Update-journey hop sink (core/journey.h); null when no tracker is
  // attached. Atomic so protocol threads read it lock-free.
  std::atomic<JourneySink*> journey_sink_{nullptr};

  // The attached HttpAdminServer, type-erased so this header stays free of
  // obs dependencies. Must be destroyed before the rest of the site (its
  // handlers capture `this`) — ~Site resets it first.
  std::shared_ptr<void> admin_;
  std::string admin_address_;
};

}  // namespace obiwan::core
