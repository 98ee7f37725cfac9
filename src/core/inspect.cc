// Replication-state introspection: report assembly (Site::Inspect and the
// replication gauges, which are computed only when read) and the JSON /
// text / DOT renderers.
#include "core/inspect.h"

#include <algorithm>
#include <cstdio>
#include <unordered_set>

#include "common/metrics.h"
#include "core/site.h"
#include "rmi/protocol.h"

namespace obiwan::core {

namespace {

std::string ToString(const ProxyId& id) {
  return "pin(" + std::to_string(id.site) + ":" + std::to_string(id.local) + ")";
}

// Human-readable duration on the site's (possibly virtual) clock.
std::string FormatNanos(Nanos ns) {
  if (ns < 0) return "-";
  char buf[32];
  if (ns < 1'000) {
    std::snprintf(buf, sizeof buf, "%lldns", static_cast<long long>(ns));
  } else if (ns < 1'000'000) {
    std::snprintf(buf, sizeof buf, "%.1fus", ns / 1e3);
  } else if (ns < 1'000'000'000) {
    std::snprintf(buf, sizeof buf, "%.1fms", ns / 1e6);
  } else {
    std::snprintf(buf, sizeof buf, "%.2fs", ns / 1e9);
  }
  return buf;
}

std::string Pad(std::string s, std::size_t width) {
  if (s.size() < width) s.append(width - s.size(), ' ');
  return s;
}

// DOT double-quoted string (class names and ids end up in labels).
std::string DotString(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Site: gauges and report assembly
// ---------------------------------------------------------------------------

void Site::UpdateReplicationGauges() {
  telemetry_.objects_master->Set(
      static_cast<std::int64_t>(table_.master_count()));
  telemetry_.objects_replica->Set(
      static_cast<std::int64_t>(table_.replica_count()));

  const Nanos now = clock_.Now();

  // Frontier = distinct targets of unresolved proxy-outs: where the
  // incremental wavefront currently stops. Two phases: collect candidate
  // targets during the per-shard sweeps (where self-locking lookups are off
  // limits), then probe presence with no shard guard held.
  std::unordered_set<ObjectId, ObjectIdHash> candidates;
  auto scan = [&](const std::shared_ptr<Shareable>& obj) {
    for (const RefFieldInfo& rf : obj->obiwan_class().refs()) {
      RefBase& rb = rf.get(*obj);
      if (rb.IsProxy()) candidates.insert(rb.proxy()->target());
    }
  };
  std::vector<std::uint64_t> lags;
  lags.reserve(table_.replica_count());
  Nanos age_max = 0;
  table_.ForEachMaster(
      [&](ObjectId, const MasterEntry& e) { scan(e.obj); });
  table_.ForEachReplica([&](ObjectId, const ReplicaEntry& e) {
    scan(e.obj);
    std::uint64_t lag = e.known_master_version > e.version
                            ? e.known_master_version - e.version
                            : (e.stale ? 1 : 0);
    lags.push_back(lag);
    if (e.last_sync != 0 && now > e.last_sync) {
      age_max = std::max(age_max, now - e.last_sync);
    }
  });
  std::int64_t frontier = 0;
  for (ObjectId tid : candidates) {
    if (!table_.Contains(tid)) ++frontier;
  }
  telemetry_.objects_frontier->Set(frontier);

  std::uint64_t lag_max = 0, lag_p95 = 0;
  if (!lags.empty()) {
    std::sort(lags.begin(), lags.end());
    lag_max = lags.back();
    lag_p95 = lags[(lags.size() - 1) * 95 / 100];
  }
  telemetry_.staleness_max->Set(static_cast<std::int64_t>(lag_max));
  telemetry_.staleness_p95->Set(static_cast<std::int64_t>(lag_p95));
  telemetry_.staleness_age_max->Set(age_max);

  std::int64_t expiring = 0;
  if (proxy_lease_ > 0) {
    std::lock_guard pins(pins_mutex_);
    for (const auto& [pin, entry] : proxy_ins_) {
      if (!entry.anchored && entry.expires_at != 0 &&
          entry.expires_at - now <= proxy_lease_ / 2) {
        ++expiring;
      }
    }
  }
  telemetry_.leases_expiring->Set(expiring);
}

void Site::EnsureGraphIds() {
  // Minting an id inserts a new master whose own refs must be visited too —
  // iterate to a fixed point (and never call EnsureId while iterating a
  // shard it can grow: collect the objects first, then mint).
  std::size_t known = table_.master_count() + 1;  // force one pass
  while (known != table_.master_count()) {
    known = table_.master_count();
    std::vector<std::shared_ptr<Shareable>> objects;
    objects.reserve(table_.master_count() + table_.replica_count());
    table_.ForEachMaster(
        [&](ObjectId, const MasterEntry& e) { objects.push_back(e.obj); });
    table_.ForEachReplica(
        [&](ObjectId, const ReplicaEntry& e) { objects.push_back(e.obj); });
    for (const auto& obj : objects) {
      for (const RefFieldInfo& rf : obj->obiwan_class().refs()) {
        RefBase& rb = rf.get(*obj);
        if (rb.IsLocal()) (void)EnsureId(rb.local());
      }
    }
  }
}

InspectReport Site::InspectLocked() {
  InspectReport report;
  report.site = id_;
  report.address = transport_->LocalAddress();
  report.now = clock_.Now();
  report.masters = table_.master_count();
  report.replicas = table_.replica_count();
  {
    std::lock_guard pins(pins_mutex_);
    report.proxy_ins = proxy_ins_.size();
  }

  // EnsureGraphIds ran: the pointer-identity map covers every local target,
  // so this lookup never mutates the tables mid-iteration.
  auto edges_of = [&](const std::shared_ptr<Shareable>& obj) {
    std::vector<InspectEdge> edges;
    for (const RefFieldInfo& rf : obj->obiwan_class().refs()) {
      RefBase& rb = rf.get(*obj);
      if (rb.IsEmpty()) continue;
      InspectEdge edge;
      if (rb.IsLocal()) {
        ObjectId tid = table_.PtrId(rb.local_raw());
        if (!tid.valid()) continue;
        edge.to = tid;
        edge.proxy = false;
        edge.class_name = rb.local_raw()->obiwan_class().name();
      } else {
        const ProxyDescriptor& d = rb.proxy()->descriptor();
        edge.to = d.target;
        edge.proxy = true;
        edge.class_name = d.class_name;
      }
      edges.push_back(std::move(edge));
    }
    return edges;
  };

  auto payload_bytes = [](const std::shared_ptr<Shareable>& obj) {
    wire::Writer fields;
    obj->obiwan_class().EncodeFields(*obj, fields);
    return static_cast<std::uint64_t>(fields.size());
  };

  std::unordered_set<ObjectId, ObjectIdHash> frontier;
  report.objects.reserve(table_.master_count() + table_.replica_count());

  table_.ForEachMaster([&](ObjectId oid, const MasterEntry& e) {
    InspectEntry row;
    row.id = oid;
    row.master = true;
    row.class_name = e.obj->obiwan_class().name();
    row.local_version = e.version;
    row.known_master_version = e.version;
    row.age = e.last_update != 0 && report.now > e.last_update
                  ? report.now - e.last_update
                  : 0;
    row.payload_bytes = payload_bytes(e.obj);
    row.faults = e.gets_served;
    row.puts = e.puts_accepted;
    row.holders = e.holders.size();
    row.edges = edges_of(e.obj);
    report.objects.push_back(std::move(row));
  });

  table_.ForEachReplica([&](ObjectId oid, const ReplicaEntry& e) {
    InspectEntry row;
    row.id = oid;
    row.master = false;
    row.class_name = e.obj->obiwan_class().name();
    row.local_version = e.version;
    row.known_master_version = std::max(e.known_master_version, e.version);
    row.stale = e.stale;
    row.in_cluster = e.in_cluster;
    row.staleness_versions = e.known_master_version > e.version
                                 ? e.known_master_version - e.version
                                 : (e.stale ? 1 : 0);
    row.age = e.last_sync != 0 && report.now > e.last_sync
                  ? report.now - e.last_sync
                  : 0;
    row.payload_bytes = payload_bytes(e.obj);
    row.faults = e.sync_count;
    row.puts = e.put_count;
    row.holders = e.holders.size();
    row.edges = edges_of(e.obj);
    report.objects.push_back(std::move(row));
  });

  for (const InspectEntry& row : report.objects) {
    for (const InspectEdge& edge : row.edges) {
      // Contains self-locks, which no-ops under the world guard Inspect holds.
      if (edge.proxy && !table_.Contains(edge.to)) {
        frontier.insert(edge.to);
      }
    }
  }
  report.frontier = frontier.size();

  {
    std::lock_guard pins(pins_mutex_);
    report.pins.reserve(proxy_ins_.size());
    for (const auto& [pin, e] : proxy_ins_) {
      InspectPin row;
      row.pin = pin;
      row.target = e.target;
      row.cluster = e.cluster;
      row.anchored = e.anchored;
      row.members = e.members.size();
      row.lease_remaining =
          (e.anchored || e.expires_at == 0) ? -1 : e.expires_at - report.now;
      report.pins.push_back(row);
    }
  }

  // Deterministic order: the tables are hash maps, but reports must compare
  // equal across a snapshot round-trip (and diff cleanly between pulls).
  std::sort(report.objects.begin(), report.objects.end(),
            [](const InspectEntry& a, const InspectEntry& b) { return a.id < b.id; });
  std::sort(report.pins.begin(), report.pins.end(),
            [](const InspectPin& a, const InspectPin& b) { return a.pin < b.pin; });
  return report;
}

InspectReport Site::Inspect() {
  // The world guard freezes every shard at once: the report is a consistent
  // global snapshot, and the helpers below (EnsureId, lookups, sweeps) all
  // no-op their own guards under it.
  ObjectTable::WorldGuard world(table_);
  EnsureGraphIds();
  UpdateReplicationGauges();
  return InspectLocked();
}

Result<InspectReport> Site::InspectRemote(const net::Address& to) {
  TraceContext::Scope flow(TraceContext::CurrentOrNew(id_));
  SpanScope span(&sinks_, clock_, id_, "inspect", "pull from " + to,
                 TraceContext::Current());
  wire::Writer body;  // kInspect carries no request body
  OBIWAN_ASSIGN_OR_RETURN(
      Bytes reply,
      TimedRequest(telemetry_.op_inspect, to,
                   AsView(rmi::WrapRequest(rmi::MessageKind::kInspect, body,
                                           TraceContext::Current(),
                                           DeadlineBudget()))));
  wire::Reader r(AsView(reply));
  InspectReport report = wire::Decode<InspectReport>(r);
  OBIWAN_RETURN_IF_ERROR(r.status());
  return report;
}

std::string Site::ReplicaSummaryJson() {
  // Bounded by design: this rides inside flight-recorder dumps, which must
  // stay small enough to write during a failure.
  constexpr std::size_t kMaxRows = 64;
  const Nanos now = clock_.Now();
  const std::size_t replica_total = table_.replica_count();
  std::string out = "{\"site\":" + std::to_string(id_) +
                    ",\"masters\":" + std::to_string(table_.master_count()) +
                    ",\"replicas\":" + std::to_string(replica_total) +
                    ",\"proxy_ins\":" + std::to_string(proxy_in_count()) +
                    ",\"rows\":[";
  std::size_t emitted = 0;
  table_.ForEachReplica([&](ObjectId oid, const ReplicaEntry& e) {
    if (emitted == kMaxRows) return;
    if (emitted++ > 0) out += ',';
    out += "{\"id\":" + JsonString(ToString(oid)) +
           ",\"version\":" + std::to_string(e.version) +
           ",\"known\":" + std::to_string(std::max(e.known_master_version, e.version)) +
           ",\"stale\":" + (e.stale ? "true" : "false") +
           ",\"age_ns\":" +
           std::to_string(e.last_sync != 0 && now > e.last_sync ? now - e.last_sync
                                                                : 0) +
           "}";
  });
  out += "],\"truncated\":";
  out += replica_total > kMaxRows ? "true" : "false";
  out += '}';
  return out;
}

// ---------------------------------------------------------------------------
// Renderers
// ---------------------------------------------------------------------------

std::string ToJson(const InspectReport& report) {
  std::string out = "{\"site\":" + std::to_string(report.site) +
                    ",\"address\":" + JsonString(report.address) +
                    ",\"now_ns\":" + std::to_string(report.now) +
                    ",\"summary\":{\"masters\":" + std::to_string(report.masters) +
                    ",\"replicas\":" + std::to_string(report.replicas) +
                    ",\"proxy_ins\":" + std::to_string(report.proxy_ins) +
                    ",\"frontier\":" + std::to_string(report.frontier) +
                    "},\"objects\":[";
  for (std::size_t i = 0; i < report.objects.size(); ++i) {
    const InspectEntry& o = report.objects[i];
    if (i > 0) out += ',';
    out += "{\"id\":" + JsonString(ToString(o.id)) +
           ",\"role\":" + (o.master ? JsonString("master") : JsonString("replica")) +
           ",\"class\":" + JsonString(o.class_name) +
           ",\"version\":" + std::to_string(o.local_version) +
           ",\"known_master_version\":" + std::to_string(o.known_master_version) +
           ",\"stale\":" + (o.stale ? "true" : "false") +
           ",\"in_cluster\":" + (o.in_cluster ? "true" : "false") +
           ",\"staleness_versions\":" + std::to_string(o.staleness_versions) +
           ",\"age_ns\":" + std::to_string(o.age) +
           ",\"payload_bytes\":" + std::to_string(o.payload_bytes) +
           ",\"faults\":" + std::to_string(o.faults) +
           ",\"puts\":" + std::to_string(o.puts) +
           ",\"holders\":" + std::to_string(o.holders) + ",\"edges\":[";
    for (std::size_t j = 0; j < o.edges.size(); ++j) {
      const InspectEdge& e = o.edges[j];
      if (j > 0) out += ',';
      out += "{\"to\":" + JsonString(ToString(e.to)) +
             ",\"proxy\":" + (e.proxy ? "true" : "false") +
             ",\"class\":" + JsonString(e.class_name) + "}";
    }
    out += "]}";
  }
  out += "],\"pins\":[";
  for (std::size_t i = 0; i < report.pins.size(); ++i) {
    const InspectPin& p = report.pins[i];
    if (i > 0) out += ',';
    out += "{\"pin\":" + JsonString(ToString(p.pin)) +
           ",\"target\":" + JsonString(ToString(p.target)) +
           ",\"cluster\":" + (p.cluster ? "true" : "false") +
           ",\"anchored\":" + (p.anchored ? "true" : "false") +
           ",\"members\":" + std::to_string(p.members) +
           ",\"lease_remaining_ns\":" + std::to_string(p.lease_remaining) + "}";
  }
  out += "]}";
  return out;
}

std::string ToText(const InspectReport& report) {
  std::string out = "site " + std::to_string(report.site) + " (" +
                    report.address + ")  masters " +
                    std::to_string(report.masters) + "  replicas " +
                    std::to_string(report.replicas) + "  proxy-ins " +
                    std::to_string(report.proxy_ins) + "  frontier " +
                    std::to_string(report.frontier) + "\n";
  out += Pad("role", 9) + Pad("id", 14) + Pad("class", 14) + Pad("ver", 6) +
         Pad("known", 7) + Pad("lag", 5) + Pad("age", 10) + Pad("bytes", 7) +
         Pad("faults", 8) + Pad("puts", 6) + Pad("holders", 9) + "flags\n";
  for (const InspectEntry& o : report.objects) {
    std::string flags;
    if (o.stale) flags += "stale ";
    if (o.in_cluster) flags += "cluster ";
    out += Pad(o.master ? "master" : "replica", 9) + Pad(ToString(o.id), 14) +
           Pad(o.class_name, 14) + Pad(std::to_string(o.local_version), 6) +
           Pad(std::to_string(o.known_master_version), 7) +
           Pad(std::to_string(o.staleness_versions), 5) +
           Pad(FormatNanos(o.age), 10) + Pad(std::to_string(o.payload_bytes), 7) +
           Pad(std::to_string(o.faults), 8) + Pad(std::to_string(o.puts), 6) +
           Pad(std::to_string(o.holders), 9) + flags + "\n";
  }
  if (!report.pins.empty()) {
    out += "pins:\n";
    for (const InspectPin& p : report.pins) {
      out += "  " + ToString(p.pin) + " -> " + ToString(p.target);
      if (p.cluster) out += "  cluster(" + std::to_string(p.members) + ")";
      if (p.anchored) {
        out += "  anchored";
      } else if (p.lease_remaining >= 0) {
        out += "  lease " + FormatNanos(p.lease_remaining);
      }
      out += "\n";
    }
  }
  return out;
}

std::string FrontierDot(const InspectReport& report) {
  std::unordered_set<ObjectId, ObjectIdHash> present;
  for (const InspectEntry& o : report.objects) present.insert(o.id);

  std::string out = "digraph obiwan_frontier {\n";
  out += "  rankdir=LR;\n";
  out += "  label=\"site " + std::to_string(report.site) +
         " replication frontier\";\n";
  out += "  node [fontsize=10];\n";

  for (const InspectEntry& o : report.objects) {
    const char* fill = o.master ? "lightblue" : (o.stale ? "orange" : "lightyellow");
    out += "  \"" + DotString(ToString(o.id)) +
           "\" [shape=box,style=filled,fillcolor=" + fill + ",label=\"" +
           DotString(o.class_name) + "\\n" + DotString(ToString(o.id)) + " v" +
           std::to_string(o.local_version) + "\\n" +
           (o.master ? "master" : (o.stale ? "replica (stale)" : "replica")) +
           "\"];\n";
  }

  // The frontier: edge targets this site has not replicated — exactly where
  // the incremental wavefront stops.
  std::unordered_set<ObjectId, ObjectIdHash> frontier_emitted;
  for (const InspectEntry& o : report.objects) {
    for (const InspectEdge& e : o.edges) {
      if (present.contains(e.to) || !frontier_emitted.insert(e.to).second) {
        continue;
      }
      out += "  \"" + DotString(ToString(e.to)) +
             "\" [shape=ellipse,style=dashed,label=\"" + DotString(e.class_name) +
             "\\n" + DotString(ToString(e.to)) + "\\nfrontier\"];\n";
    }
  }

  for (const InspectEntry& o : report.objects) {
    for (const InspectEdge& e : o.edges) {
      out += "  \"" + DotString(ToString(o.id)) + "\" -> \"" +
             DotString(ToString(e.to)) + "\"";
      if (e.proxy) out += " [style=dashed]";
      out += ";\n";
    }
  }
  out += "}\n";
  return out;
}

std::string FrontierJson(const InspectReport& report) {
  std::unordered_set<ObjectId, ObjectIdHash> present;
  for (const InspectEntry& o : report.objects) present.insert(o.id);

  std::string out =
      "{\"site\":" + std::to_string(report.site) + ",\"nodes\":[";
  bool first = true;
  for (const InspectEntry& o : report.objects) {
    if (!first) out += ',';
    first = false;
    out += "{\"id\":" + JsonString(ToString(o.id)) + ",\"role\":" +
           (o.master ? JsonString("master") : JsonString("replica")) +
           ",\"class\":" + JsonString(o.class_name) +
           ",\"stale\":" + (o.stale ? "true" : "false") + "}";
  }
  std::unordered_set<ObjectId, ObjectIdHash> frontier_emitted;
  for (const InspectEntry& o : report.objects) {
    for (const InspectEdge& e : o.edges) {
      if (present.contains(e.to) || !frontier_emitted.insert(e.to).second) {
        continue;
      }
      if (!first) out += ',';
      first = false;
      out += "{\"id\":" + JsonString(ToString(e.to)) +
             ",\"role\":\"frontier\",\"class\":" + JsonString(e.class_name) +
             ",\"stale\":false}";
    }
  }
  out += "],\"edges\":[";
  first = true;
  for (const InspectEntry& o : report.objects) {
    for (const InspectEdge& e : o.edges) {
      if (!first) out += ',';
      first = false;
      out += "{\"from\":" + JsonString(ToString(o.id)) +
             ",\"to\":" + JsonString(ToString(e.to)) +
             ",\"proxy\":" + (e.proxy ? "true" : "false") + "}";
    }
  }
  out += "]}";
  return out;
}

}  // namespace obiwan::core
