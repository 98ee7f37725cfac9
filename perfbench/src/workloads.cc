#include "workloads.h"

#include <array>
#include <optional>
#include <random>
#include <thread>

#include "obiwan.h"
#include "test_objects.h"

namespace perfbench {
namespace {

using obiwan::Result;
using obiwan::Status;
using obiwan::TraceSinks;
using obiwan::core::Ref;
using obiwan::core::RemoteRef;
using obiwan::core::ReplicationMode;
using obiwan::core::Site;
using obiwan::test::Node;

// Distinct generator per (seed, stream), so client threads draw
// independent sequences from one workload seed.
std::mt19937_64 Rng(std::uint64_t seed, std::uint64_t stream) {
  return std::mt19937_64(seed * 0x9E3779B97F4A7C15ull + stream + 1);
}

Result<std::unique_ptr<Site>> StartSite(obiwan::SiteId id) {
  OBIWAN_ASSIGN_OR_RETURN(std::unique_ptr<obiwan::net::TcpTransport> transport,
                          obiwan::net::TcpTransport::Create(0));
  auto site = std::make_unique<Site>(id, std::move(transport));
  OBIWAN_RETURN_IF_ERROR(site->Start());
  return site;
}

// "<prefix><i>": object labels and registry names.
std::string Name(char prefix, int i) {
  std::string name(1, prefix);
  name += std::to_string(i);
  return name;
}

std::shared_ptr<Node> MakeNode(std::string label, std::size_t payload) {
  auto node = std::make_shared<Node>();
  node->label = std::move(label);
  node->payload.assign(payload, 0x5a);
  return node;
}

Status Violation(std::string what) {
  return obiwan::InternalError("correctness: " + std::move(what));
}

// Times ReplicaVersion + IsStale on `ref` in batches of 16 pairs; one
// sample (ns per pair) per batch.
void ProbeReplica(Site& site, const Ref<Node>& ref, int probes,
                  const TraceSinks* spans, Samples& out) {
  constexpr int kPerSample = 16;
  for (int i = 0; i < probes; i += kPerSample) {
    const std::int64_t t0 = NowNs();
    {
      LayerSpan span(spans, "core", "table_probe");
      for (int j = 0; j < kPerSample; ++j) {
        (void)site.ReplicaVersion(ref);
        (void)site.IsStale(ref);
      }
    }
    out.Add((NowNs() - t0) / kPerSample);
  }
}

// --- rmi_invoke ---------------------------------------------------------------

class RmiInvoke final : public Workload {
 public:
  static constexpr int kMasters = 64;
  static constexpr int kClients = 2;
  static constexpr std::size_t kPayload = 16;
  static constexpr int kPerClient = kMasters / kClients;
  static constexpr int kSessionCalls = 1024;

  explicit RmiInvoke(std::uint64_t seed) : seed_(seed) {}

  ~RmiInvoke() override {
    for (Client& c : clients_) {
      if (c.site) c.site->Stop();
    }
    if (provider_) provider_->Stop();
  }

  Status Setup() override {
    OBIWAN_ASSIGN_OR_RETURN(provider_, StartSite(1));
    provider_->HostRegistry();
    for (int i = 0; i < kMasters; ++i) {
      masters_.push_back(MakeNode(Name('m', i), kPayload));
      OBIWAN_RETURN_IF_ERROR(
          provider_->Bind(Name('m', i), masters_.back()));
    }
    // Each client owns half of the masters: Touch runs unlocked on the
    // provider, so two callers must not increment one object concurrently.
    for (int c = 0; c < kClients; ++c) {
      Client& client = clients_[c];
      OBIWAN_ASSIGN_OR_RETURN(client.site,
                              StartSite(static_cast<obiwan::SiteId>(2 + c)));
      client.site->UseRegistry(provider_->address());
      client.rng = Rng(seed_, c);
      for (int k = 0; k < kPerClient; ++k) {
        OBIWAN_ASSIGN_OR_RETURN(
            RemoteRef<Node> remote,
            client.site->Lookup<Node>(Name('m', c * kPerClient + k)));
        client.remotes.push_back(remote);
        client.expected.push_back(0);
        // Warm the pooled connection and the provider's dispatch path.
        OBIWAN_ASSIGN_OR_RETURN(std::int64_t v, remote.Invoke(&Node::Touch));
        if (v != ++client.expected.back()) return Violation("warm-up Touch");
      }
    }
    return Status::Ok();
  }

  PhaseResult Run(std::chrono::nanoseconds duration,
                  const TraceSinks* spans) override {
    std::array<PhaseResult, kClients> per;
    const std::int64_t start = NowNs();
    const std::int64_t end = start + duration.count();
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] { ClientLoop(clients_[c], end, spans, per[c]); });
    }
    for (std::thread& t : threads) t.join();
    PhaseResult out;
    out.elapsed_s = static_cast<double>(NowNs() - start) / 1e9;
    for (const PhaseResult& r : per) {
      out.attempted += r.attempted;
      out.failed += r.failed;
      out.op_ns.Append(r.op_ns);
      out.session_cpu_ns.Append(r.session_cpu_ns);
    }
    return out;
  }

  Status Check() override {
    // Every successful call incremented its master exactly once.
    for (int c = 0; c < kClients; ++c) {
      const Client& client = clients_[c];
      if (client.mismatches != 0) {
        return Violation(std::to_string(client.mismatches) +
                         " Touch replies out of sequence");
      }
      for (int k = 0; k < kPerClient; ++k) {
        const std::int64_t value = masters_[c * kPerClient + k]->value;
        if (value != client.expected[k]) {
          return Violation("master m" + std::to_string(c * kPerClient + k) +
                           " value " + std::to_string(value) + " != " +
                           std::to_string(client.expected[k]) +
                           " successful calls");
        }
      }
    }
    return Status::Ok();
  }

  void ProbeTable(int, const TraceSinks*, Samples&) override {}

  Site& client() override { return *clients_[0].site; }
  std::string provider_address() const override { return provider_->address(); }
  int clients() const override { return kClients; }
  int connections() const override { return kClients; }

 private:
  struct Client {
    std::unique_ptr<Site> site;
    std::vector<RemoteRef<Node>> remotes;
    std::vector<std::int64_t> expected;  // successful Touch calls per remote
    std::uint64_t mismatches = 0;
    std::mt19937_64 rng;
  };

  static void ClientLoop(Client& client, std::int64_t end,
                         const TraceSinks* spans, PhaseResult& out) {
    do {
      const std::int64_t session_start = CpuNowNs();
      bool clean = true;
      for (int i = 0; i < kSessionCalls; ++i) {
        const std::size_t k = client.rng() % client.remotes.size();
        const std::int64_t t0 = NowNs();
        Result<std::int64_t> reply = [&] {
          LayerSpan span(spans, "rmi", "invoke");
          return client.remotes[k].Invoke(&Node::Touch);
        }();
        out.op_ns.Add(NowNs() - t0);
        ++out.attempted;
        if (!reply.ok()) {
          ++out.failed;
          clean = false;
        } else if (*reply != ++client.expected[k]) {
          ++client.mismatches;
        }
      }
      if (clean) out.session_cpu_ns.Add(CpuNowNs() - session_start);
    } while (NowNs() < end);
  }

  const std::uint64_t seed_;
  std::unique_ptr<Site> provider_;
  std::vector<std::shared_ptr<Node>> masters_;
  std::array<Client, kClients> clients_;
};

// --- fault_walk ---------------------------------------------------------------

class FaultWalk final : public Workload {
 public:
  static constexpr int kNodes = 1024;
  static constexpr std::size_t kPayload = 1024;
  static constexpr std::uint32_t kBatch = 16;

  // The chain is fixed (the paper's list); the seed has nothing to pick.
  explicit FaultWalk(std::uint64_t) {}

  ~FaultWalk() override {
    if (demander_) demander_->Stop();
    if (provider_) provider_->Stop();
  }

  Status Setup() override {
    OBIWAN_ASSIGN_OR_RETURN(provider_, StartSite(1));
    provider_->HostRegistry();
    OBIWAN_ASSIGN_OR_RETURN(demander_, StartSite(2));
    demander_->UseRegistry(provider_->address());
    chain_ = obiwan::test::MakeChain(kNodes, kPayload, "n");
    OBIWAN_RETURN_IF_ERROR(provider_->Bind("chain", chain_));
    OBIWAN_ASSIGN_OR_RETURN(remote_, demander_->Lookup<Node>("chain"));
    for (int i = 0; i < kNodes; ++i) labels_.push_back(Name('n', i));
    PhaseResult warm;
    return Session(nullptr, warm);
  }

  PhaseResult Run(std::chrono::nanoseconds duration,
                  const TraceSinks* spans) override {
    PhaseResult out;
    const std::int64_t start = NowNs();
    const std::int64_t end = start + duration.count();
    do {
      if (!Session(spans, out).ok()) break;
    } while (NowNs() < end);
    out.elapsed_s = static_cast<double>(NowNs() - start) / 1e9;
    return out;
  }

  Status Check() override { return violation_; }

  void ProbeTable(int probes, const TraceSinks* spans, Samples& out) override {
    Result<Ref<Node>> root = remote_.Replicate(ReplicationMode::Incremental(kBatch));
    if (!root.ok()) return;
    ProbeReplica(*demander_, *root, probes, spans, out);
    root->Reset();
    demander_->EvictIdleReplicas();
  }

  Site& client() override { return *demander_; }
  std::string provider_address() const override { return provider_->address(); }
  int clients() const override { return 1; }
  int connections() const override { return 1; }

 private:
  // One Figure 5 session: replicate the root, fault in the rest of the
  // chain while visiting every node, then drop everything and evict.
  Status Session(const TraceSinks* spans, PhaseResult& out) {
    const std::int64_t session_start = CpuNowNs();
    Status s = Walk(spans, out);
    if (!s.ok()) {
      if (violation_.ok()) violation_ = s;
      return s;
    }
    {
      LayerSpan span(spans, "core", "evict");
      demander_->EvictIdleReplicas();
    }
    if (demander_->replica_count() != 0) {
      violation_ = Violation(std::to_string(demander_->replica_count()) +
                             " replicas left after eviction");
      return violation_;
    }
    out.session_cpu_ns.Add(CpuNowNs() - session_start);
    return Status::Ok();
  }

  Status Walk(const TraceSinks* spans, PhaseResult& out) {
    Result<Ref<Node>> root =
        remote_.Replicate(ReplicationMode::Incremental(kBatch));
    if (!root.ok()) {
      ++out.attempted;
      ++out.failed;
      return root.status();
    }
    Ref<Node>* cursor = &*root;
    for (int i = 0; i < kNodes; ++i) {
      if (cursor->IsEmpty()) {
        return Violation("chain ends after " + std::to_string(i) + " nodes");
      }
      if (cursor->IsProxy()) {
        ++out.attempted;
        const std::int64_t t0 = NowNs();
        try {
          LayerSpan span(spans, "core", "demand");
          (void)cursor->operator->();
        } catch (const obiwan::core::ObjectFaultError& e) {
          ++out.failed;
          return e.status();
        }
        out.op_ns.Add(NowNs() - t0);
      }
      const Node* node = cursor->get();
      if (node->label != labels_[i] || node->value != i) {
        return Violation("node " + std::to_string(i) + " reads " +
                         node->label + "/" + std::to_string(node->value));
      }
      cursor = &cursor->get()->next;
    }
    if (!cursor->IsEmpty()) return Violation("chain longer than expected");
    return Status::Ok();
  }

  std::unique_ptr<Site> provider_;
  std::unique_ptr<Site> demander_;
  std::shared_ptr<Node> chain_;
  RemoteRef<Node> remote_;
  std::vector<std::string> labels_;
  Status violation_;
};

// --- put_push -----------------------------------------------------------------

class PutPush final : public Workload {
 public:
  static constexpr int kMasters = 64;
  static constexpr int kHolders = 3;
  static constexpr std::size_t kPayload = 4096;
  // ~15 ms, so a run holds hundreds of sessions.
  static constexpr int kSessionPuts = 64;

  explicit PutPush(std::uint64_t seed) : rng_(Rng(seed, 0)) {}

  ~PutPush() override {
    for (Replicas& r : replicas_) r.refs.clear();
    for (Replicas& r : replicas_) r.site->Stop();
    if (provider_) provider_->Stop();
  }

  Status Setup() override {
    OBIWAN_ASSIGN_OR_RETURN(provider_, StartSite(1));
    provider_->HostRegistry();
    provider_->SetConsistencyPolicy(
        std::make_unique<obiwan::core::PushUpdates>());
    for (int i = 0; i < kMasters; ++i) {
      masters_.push_back(MakeNode(Name('p', i), kPayload));
      OBIWAN_RETURN_IF_ERROR(
          provider_->Bind(Name('p', i), masters_.back()));
    }
    // replicas_[0] is the writer, the rest are the push holders.
    for (int s = 0; s <= kHolders; ++s) {
      Replicas r;
      OBIWAN_ASSIGN_OR_RETURN(r.site, StartSite(static_cast<obiwan::SiteId>(2 + s)));
      r.site->UseRegistry(provider_->address());
      for (int i = 0; i < kMasters; ++i) {
        OBIWAN_ASSIGN_OR_RETURN(RemoteRef<Node> remote,
                                r.site->Lookup<Node>(Name('p', i)));
        OBIWAN_ASSIGN_OR_RETURN(
            Ref<Node> ref, remote.Replicate(ReplicationMode::Incremental(1)));
        r.refs.push_back(std::move(ref));
      }
      replicas_.push_back(std::move(r));
    }
    expected_.assign(kMasters, std::nullopt);
    // Warm every master's put and push path once.
    PhaseResult warm;
    for (int i = 0; i < kMasters; ++i) PutOne(i, nullptr, warm);
    return warm.failed == 0 ? Status::Ok()
                            : obiwan::InternalError("warm-up put failed");
  }

  PhaseResult Run(std::chrono::nanoseconds duration,
                  const TraceSinks* spans) override {
    PhaseResult out;
    const std::int64_t start = NowNs();
    const std::int64_t end = start + duration.count();
    do {
      const std::int64_t session_start = CpuNowNs();
      const std::uint64_t failed_before = out.failed;
      for (int i = 0; i < kSessionPuts; ++i) {
        PutOne(static_cast<int>(rng_() % kMasters), spans, out);
      }
      if (out.failed == failed_before) {
        out.session_cpu_ns.Add(CpuNowNs() - session_start);
      }
    } while (NowNs() < end);
    out.elapsed_s = static_cast<double>(NowNs() - start) / 1e9;
    return out;
  }

  // Puts reply only after the fanout, so the sites are quiescent here.
  Status Check() override {
    for (int i = 0; i < kMasters; ++i) {
      const obiwan::ObjectId id = replicas_[0].refs[i].id();
      const std::int64_t master_value =
          provider_->WithObjectLock(id, [&] { return masters_[i]->value; });
      OBIWAN_ASSIGN_OR_RETURN(std::uint64_t master_version,
                              provider_->MasterVersion(id));
      if (expected_[i] && *expected_[i] != master_value) {
        return Violation("master p" + std::to_string(i) + " lost a put");
      }
      for (Replicas& r : replicas_) {
        Ref<Node>& ref = r.refs[i];
        const std::int64_t value =
            r.site->WithObjectLock(ref, [&] { return ref.get()->value; });
        OBIWAN_ASSIGN_OR_RETURN(std::uint64_t version, r.site->ReplicaVersion(ref));
        if (value != master_value || version != master_version) {
          return Violation("site " + std::to_string(r.site->id()) +
                           " replica p" + std::to_string(i) + " at value " +
                           std::to_string(value) + " version " +
                           std::to_string(version) + ", master at " +
                           std::to_string(master_value) + " version " +
                           std::to_string(master_version));
        }
      }
    }
    return Status::Ok();
  }

  void ProbeTable(int probes, const TraceSinks* spans, Samples& out) override {
    ProbeReplica(*replicas_[1].site, replicas_[1].refs[0], probes,
                            spans, out);
  }

  Site& client() override { return *replicas_[0].site; }
  std::string provider_address() const override { return provider_->address(); }
  int clients() const override { return 1; }
  // Writer -> provider, provider -> each holder.
  int connections() const override { return 1 + kHolders; }

 private:
  struct Replicas {
    std::unique_ptr<Site> site;
    std::vector<Ref<Node>> refs;  // aligned with masters_
  };

  void PutOne(int i, const TraceSinks* spans, PhaseResult& out) {
    Site& writer = *replicas_[0].site;
    Ref<Node>& ref = replicas_[0].refs[i];
    const auto value = static_cast<std::int64_t>(rng_() >> 1);
    const std::int64_t t0 = NowNs();
    Status s;
    {
      LayerSpan span(spans, "core", "put");
      writer.WithObjectLock(ref, [&] { ref.get()->value = value; });
      s = writer.Put(ref);
    }
    out.op_ns.Add(NowNs() - t0);
    ++out.attempted;
    if (s.ok()) {
      expected_[i] = value;
    } else {
      ++out.failed;
    }
  }

  std::mt19937_64 rng_;
  std::unique_ptr<Site> provider_;
  std::vector<std::shared_ptr<Node>> masters_;
  std::vector<Replicas> replicas_;
  std::vector<std::optional<std::int64_t>> expected_;  // last accepted put
};

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"rmi_invoke", "fault_walk",
                                                 "put_push"};
  return names;
}

std::unique_ptr<Workload> MakeWorkload(std::string_view name,
                                       std::uint64_t seed) {
  if (name == "rmi_invoke") return std::make_unique<RmiInvoke>(seed);
  if (name == "fault_walk") return std::make_unique<FaultWalk>(seed);
  if (name == "put_push") return std::make_unique<PutPush>(seed);
  return nullptr;
}

}  // namespace perfbench
