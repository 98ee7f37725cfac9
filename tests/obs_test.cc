// Observability plane: Prometheus exposition-format lint, the embedded HTTP
// admin endpoint (served routes, readiness flips, concurrent scrapes — the
// TSan target), and FleetMonitor merge math on a deterministic virtual-clock
// multi-site sim.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "obiwan.h"
#include "test_objects.h"

namespace obiwan {
namespace {

using core::ReplicationMode;
using test::Node;

// ---------------------------------------------------------------------------
// Minimal HTTP client for the admin endpoint ("host:port" from
// Site::admin_address()). One request per connection, like real scrapers.
// ---------------------------------------------------------------------------

struct HttpReply {
  int status = 0;
  std::string content_type;
  std::string body;
};

// Connect to "host:port"; -1 on failure.
int HttpConnect(const std::string& address) {
  const auto colon = address.rfind(':');
  if (colon == std::string::npos) return -1;
  const std::string host = address.substr(0, colon);
  const int port = std::stoi(address.substr(colon + 1));

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, host.c_str(), &sa.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

HttpReply ParseReply(const std::string& raw) {
  HttpReply reply;
  // "HTTP/1.1 <status> ..." then headers, blank line, body.
  if (raw.compare(0, 5, "HTTP/") != 0) return reply;
  const auto space = raw.find(' ');
  if (space == std::string::npos) return reply;
  reply.status = std::atoi(raw.c_str() + space + 1);
  const auto blank = raw.find("\r\n\r\n");
  if (blank != std::string::npos) reply.body = raw.substr(blank + 4);
  const auto ct = raw.find("Content-Type: ");
  if (ct != std::string::npos && ct < blank) {
    const auto eol = raw.find("\r\n", ct);
    reply.content_type = raw.substr(ct + 14, eol - ct - 14);
  }
  return reply;
}

HttpReply HttpGet(const std::string& address, const std::string& path,
                  const std::string& method = "GET",
                  const std::string& extra_headers = "") {
  HttpReply reply;
  int fd = HttpConnect(address);
  if (fd < 0) return reply;
  const std::string request = method + " " + path +
                              " HTTP/1.1\r\nHost: test\r\n" + extra_headers +
                              "\r\n";
  (void)::send(fd, request.data(), request.size(), MSG_NOSIGNAL);
  std::string raw;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    raw.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return ParseReply(raw);
}

// ---------------------------------------------------------------------------
// Prometheus exposition-format lint
// ---------------------------------------------------------------------------

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    if (eol > pos) out.push_back(text.substr(pos, eol - pos));
    pos = eol + 1;
  }
  return out;
}

// Metric name of a sample line ("name{labels} value" / "name value").
std::string SampleName(const std::string& line) {
  const std::size_t end = line.find_first_of("{ ");
  return end == std::string::npos ? line : line.substr(0, end);
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// Lint the whole exposition: every sample belongs to a # TYPE'd family,
// counter samples end in _total, histogram samples use the native suffixes.
void LintExposition(const std::string& text) {
  std::map<std::string, std::string> family_type;  // name -> counter/gauge/...
  for (const std::string& line : Lines(text)) {
    if (line.rfind("# TYPE ", 0) == 0) {
      std::istringstream in(line.substr(7));
      std::string name, type;
      in >> name >> type;
      EXPECT_TRUE(type == "counter" || type == "gauge" || type == "histogram")
          << line;
      family_type[name] = type;
      continue;
    }
    if (line == "# EOF") continue;  // OpenMetrics not-truncated terminator
    if (line.rfind("#", 0) == 0) {
      EXPECT_EQ(line.rfind("# HELP ", 0), 0u) << "unknown comment: " << line;
      continue;
    }
    // Sample line, possibly carrying an OpenMetrics exemplar suffix:
    //   name{labels} value # {trace_id="...",...} exemplar_value
    std::string sample = line;
    const std::size_t exemplar_at = line.find(" # {");
    if (exemplar_at != std::string::npos) {
      sample = line.substr(0, exemplar_at);
      const std::string exemplar = line.substr(exemplar_at + 3);
      EXPECT_TRUE(EndsWith(SampleName(sample), "_bucket"))
          << "exemplar outside a _bucket series: " << line;
      EXPECT_NE(exemplar.find("trace_id=\""), std::string::npos) << line;
      const std::size_t close = exemplar.find("} ");
      ASSERT_NE(close, std::string::npos) << line;
      EXPECT_NO_THROW((void)std::stod(exemplar.substr(close + 2))) << line;
    }
    const std::string name = SampleName(sample);
    ASSERT_FALSE(name.empty()) << line;
    // Value must parse as a number.
    const std::size_t space = sample.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_NO_THROW((void)std::stod(sample.substr(space + 1))) << line;

    std::string family = name;
    for (const char* suffix : {"_bucket", "_sum", "_count"}) {
      if (EndsWith(name, suffix)) {
        const std::string base = name.substr(0, name.size() - strlen(suffix));
        if (family_type.count(base) && family_type[base] == "histogram") {
          family = base;
        }
      }
    }
    ASSERT_TRUE(family_type.count(family)) << "sample without # TYPE: " << line;
    if (family_type[family] == "counter") {
      EXPECT_TRUE(EndsWith(name, "_total"))
          << "counter not normalized to _total: " << line;
    }
    if (family_type[family] == "histogram") {
      EXPECT_NE(family, name)
          << "histogram family must expose only _bucket/_sum/_count: " << line;
    }
  }
  EXPECT_FALSE(family_type.empty());
}

TEST(PrometheusExposition, LintsCleanWithLiveSite) {
  net::LoopbackNetwork network;
  core::Site site(61, network.CreateEndpoint("lint"));
  ASSERT_TRUE(site.Start().ok());
  site.HostRegistry();
  ASSERT_TRUE(site.Bind("doc", test::MakeChain(2, 16)).ok());
  site.RefreshTelemetry();

  const std::string text = MetricsRegistry::Default().DumpPrometheus();
  LintExposition(text);

  // Golden substrings the satellites added.
  EXPECT_NE(text.find("# TYPE obiwan_rmi_client_latency_ns histogram"),
            std::string::npos);
  EXPECT_NE(text.find("obiwan_rmi_client_latency_ns_bucket{"), std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\""), std::string::npos);
  EXPECT_NE(text.find("obiwan_build_info{"), std::string::npos);
  EXPECT_NE(text.find("obiwan_site_uptime_ns"), std::string::npos);
  // The text exporter keeps quantiles; the Prometheus one must not.
  EXPECT_EQ(text.find("p50="), std::string::npos);
}

TEST(PrometheusExposition, HistogramBucketsAreCumulative) {
  // A dedicated histogram with known observations, so the golden values are
  // exact: bounds 10/100/1000, observations 5, 50, 5000.
  auto& h = MetricsRegistry::Default().GetHistogram(
      "obiwan_obs_lint_hist", {}, {10, 100, 1000}, "exposition lint fixture");
  h.Reset();
  h.Observe(5);
  h.Observe(50);
  h.Observe(5000);

  const std::string text = MetricsRegistry::Default().DumpPrometheus();
  EXPECT_NE(text.find("obiwan_obs_lint_hist_bucket{le=\"10\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("obiwan_obs_lint_hist_bucket{le=\"100\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("obiwan_obs_lint_hist_bucket{le=\"1000\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("obiwan_obs_lint_hist_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("obiwan_obs_lint_hist_sum 5055"), std::string::npos);
  EXPECT_NE(text.find("obiwan_obs_lint_hist_count 3"), std::string::npos);
}

TEST(PrometheusExposition, CountersNormalizedToTotal) {
  // A counter registered without the conventional suffix is normalized on
  // export — and one that already has it is not double-suffixed.
  auto& c = MetricsRegistry::Default().GetCounter("obiwan_obs_lint_events", {},
                                                  "normalization fixture");
  c.Inc();
  const std::string text = MetricsRegistry::Default().DumpPrometheus();
  EXPECT_NE(text.find("# TYPE obiwan_obs_lint_events_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("obiwan_obs_lint_events_total 1"), std::string::npos);
  // Counters registered WITH the suffix (the site stats) must not be
  // double-suffixed.
  auto& pre = MetricsRegistry::Default().GetCounter(
      "obiwan_obs_lint_preformed_total", {}, "already-suffixed fixture");
  pre.Inc();
  const std::string again = MetricsRegistry::Default().DumpPrometheus();
  EXPECT_NE(again.find("obiwan_obs_lint_preformed_total 1"), std::string::npos);
  EXPECT_EQ(again.find("_total_total"), std::string::npos);
}

// ---------------------------------------------------------------------------
// HTTP admin endpoint
// ---------------------------------------------------------------------------

class AdminHttpTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto transport = net::TcpTransport::Create(0);
    ASSERT_TRUE(transport.ok()) << transport.status();
    site_ = std::make_unique<core::Site>(71, std::move(*transport));
    ASSERT_TRUE(site_->Start().ok());
    site_->HostRegistry();
    ASSERT_TRUE(site_->Bind("doc", test::MakeChain(3, 32)).ok());
    ASSERT_TRUE(site_->ServeAdmin("0").ok());  // kernel-assigned port
    ASSERT_FALSE(site_->admin_address().empty());
  }

  std::unique_ptr<core::Site> site_;
};

TEST_F(AdminHttpTest, ServesMetricsAndReports) {
  const HttpReply metrics = HttpGet(site_->admin_address(), "/metrics");
  EXPECT_EQ(metrics.status, 200);
  LintExposition(metrics.body);
  EXPECT_NE(metrics.body.find("obiwan_rmi_client_latency_ns_bucket{"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("obiwan_build_info{"), std::string::npos);
  // The scrape refreshed the continuous gauges without any protocol traffic.
  EXPECT_NE(metrics.body.find("obiwan_site_uptime_ns"), std::string::npos);

  const HttpReply inspect = HttpGet(site_->admin_address(), "/inspect.json");
  EXPECT_EQ(inspect.status, 200);
  EXPECT_NE(inspect.body.find("\"masters\""), std::string::npos);

  const HttpReply frontier = HttpGet(site_->admin_address(), "/frontier.json");
  EXPECT_EQ(frontier.status, 200);
  EXPECT_NE(frontier.body.find("\"nodes\""), std::string::npos);

  const HttpReply dot = HttpGet(site_->admin_address(), "/frontier.dot");
  EXPECT_EQ(dot.status, 200);
  EXPECT_NE(dot.body.find("digraph"), std::string::npos);

  const HttpReply flight = HttpGet(site_->admin_address(), "/flight");
  EXPECT_EQ(flight.status, 200);
  EXPECT_NE(flight.body.find("traceEvents"), std::string::npos);

  const HttpReply index = HttpGet(site_->admin_address(), "/");
  EXPECT_EQ(index.status, 200);
  EXPECT_NE(index.body.find("/metrics"), std::string::npos);
}

TEST_F(AdminHttpTest, RejectsUnknownPathAndMethod) {
  EXPECT_EQ(HttpGet(site_->admin_address(), "/no-such-endpoint").status, 404);
  EXPECT_EQ(HttpGet(site_->admin_address(), "/metrics", "POST").status, 405);
  // Query strings are stripped before route matching.
  EXPECT_EQ(HttpGet(site_->admin_address(), "/healthz?verbose=1").status, 200);
}

TEST_F(AdminHttpTest, MetricsNegotiateFormatAndTerminateWithEof) {
  // Default: Prometheus text, but always "# EOF"-terminated so a scraper
  // can tell a complete exposition from a truncated one.
  const HttpReply prom = HttpGet(site_->admin_address(), "/metrics");
  EXPECT_EQ(prom.status, 200);
  EXPECT_NE(prom.content_type.find("text/plain"), std::string::npos);
  EXPECT_NE(prom.content_type.find("version=0.0.4"), std::string::npos);
  ASSERT_GE(prom.body.size(), 6u);
  EXPECT_TRUE(EndsWith(prom.body, "# EOF\n"));
  LintExposition(prom.body);

  // An OpenMetrics scraper negotiates via Accept and gets the matching
  // content type (same payload; "# EOF" is mandatory there).
  const HttpReply om = HttpGet(
      site_->admin_address(), "/metrics", "GET",
      "Accept: application/openmetrics-text; version=1.0.0\r\n");
  EXPECT_EQ(om.status, 200);
  EXPECT_NE(om.content_type.find("application/openmetrics-text"),
            std::string::npos);
  EXPECT_TRUE(EndsWith(om.body, "# EOF\n"));

  // An unrelated Accept value still gets the Prometheus default.
  const HttpReply other = HttpGet(site_->admin_address(), "/metrics", "GET",
                                  "Accept: application/json\r\n");
  EXPECT_EQ(other.status, 200);
  EXPECT_NE(other.content_type.find("text/plain"), std::string::npos);
}

TEST_F(AdminHttpTest, ServesUpdateJourneysAndAlerts) {
  const HttpReply updates = HttpGet(site_->admin_address(), "/updates.json");
  EXPECT_EQ(updates.status, 200);
  EXPECT_NE(updates.content_type.find("application/json"), std::string::npos);
  EXPECT_NE(updates.body.find("\"minted\""), std::string::npos);
  EXPECT_NE(updates.body.find("\"ttfr_ns\""), std::string::npos);
  EXPECT_NE(updates.body.find("\"hops\""), std::string::npos);
  EXPECT_NE(updates.body.find("\"recent\""), std::string::npos);

  const HttpReply alerts = HttpGet(site_->admin_address(), "/alerts.json");
  EXPECT_EQ(alerts.status, 200);
  EXPECT_NE(alerts.body.find("\"update_convergence_burn\""),
            std::string::npos);
  EXPECT_NE(alerts.body.find("\"state\":\"ok\""), std::string::npos);
  EXPECT_NE(alerts.body.find("\"burn_rate\""), std::string::npos);

  const HttpReply index = HttpGet(site_->admin_address(), "/");
  EXPECT_NE(index.body.find("/updates.json"), std::string::npos);
  EXPECT_NE(index.body.find("/alerts.json"), std::string::npos);
}

TEST(AdminHttpJourneys, ServeAdminTracksDisseminationEndToEnd) {
  // ServeAdmin installs the journey sink: real update traffic shows up in
  // /updates.json (minted + completed + hop stamps) with no extra wiring.
  net::LoopbackNetwork network;
  core::Site provider(85, network.CreateEndpoint("prov"));
  core::Site demander(86, network.CreateEndpoint("dem"));
  ASSERT_TRUE(provider.Start().ok());
  ASSERT_TRUE(demander.Start().ok());
  provider.HostRegistry();
  demander.UseRegistry("prov");
  provider.SetConsistencyPolicy(
      std::make_unique<consistency::WriteInvalidate>());

  auto doc = std::make_shared<Node>();
  ASSERT_TRUE(provider.Bind("doc", doc).ok());
  const ObjectId oid = provider.Export(doc);
  auto remote = demander.Lookup<Node>("doc");
  ASSERT_TRUE(remote.ok());
  auto ref = remote->Replicate(ReplicationMode::Incremental(1));
  ASSERT_TRUE(ref.ok());

  ASSERT_TRUE(provider.ServeAdmin("0").ok());
  doc->SetValue(5);
  ASSERT_TRUE(provider.MarkMasterUpdated(oid).ok());

  const HttpReply updates = HttpGet(provider.admin_address(), "/updates.json");
  EXPECT_EQ(updates.status, 200);
  EXPECT_NE(updates.body.find("\"minted\":1"), std::string::npos);
  EXPECT_NE(updates.body.find("\"completed\":1"), std::string::npos);
  EXPECT_NE(updates.body.find("\"acked\":1"), std::string::npos);
  EXPECT_NE(updates.body.find("\"convergence_ns\""), std::string::npos);
  // The journey metrics reached the exposition too.
  const HttpReply metrics = HttpGet(provider.admin_address(), "/metrics");
  EXPECT_NE(metrics.body.find("obiwan_update_journeys_total"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("obiwan_update_convergence_ns_bucket"),
            std::string::npos);
  provider.StopAdmin();
}

TEST(AdminHttpSlowClient, DrippedRequestServedAndStallCutOffByDeadline) {
  auto transport = net::TcpTransport::Create(0);
  ASSERT_TRUE(transport.ok());
  core::Site site(87, std::move(*transport));
  ASSERT_TRUE(site.Start().ok());
  site.HostRegistry();
  core::Site::AdminOptions options;
  options.request_deadline = 300 * kMilli;  // short, so the stall test is fast
  ASSERT_TRUE(site.ServeAdmin("0", options).ok());

  // A client that drips its request one byte at a time must still be served:
  // the head parser accumulates partial reads until the blank line.
  {
    int fd = HttpConnect(site.admin_address());
    ASSERT_GE(fd, 0);
    const std::string request = "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n";
    for (char c : request) {
      ASSERT_EQ(::send(fd, &c, 1, MSG_NOSIGNAL), 1);
    }
    // Read the response one byte at a time too, to exercise framing.
    std::string raw;
    char c;
    while (::recv(fd, &c, 1, 0) == 1) raw.push_back(c);
    ::close(fd);
    EXPECT_EQ(ParseReply(raw).status, 200);
  }

  // A client that stalls mid-request must be cut off by the deadline — the
  // serving thread gets back to the accept loop and the in-flight gauge
  // returns to zero instead of wedging at one.
  {
    const auto start = std::chrono::steady_clock::now();
    int fd = HttpConnect(site.admin_address());
    ASSERT_GE(fd, 0);
    const char partial[] = "GET /metr";  // never finished
    ASSERT_GT(::send(fd, partial, sizeof(partial) - 1, MSG_NOSIGNAL), 0);
    std::string raw;
    char buf[256];
    ssize_t n;
    while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
      raw.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    EXPECT_GE(elapsed, std::chrono::milliseconds(250));
    EXPECT_LT(elapsed, std::chrono::seconds(5))
        << "stalled client held the connection past the deadline";
  }

  // The admin thread is free again: the next request answers promptly and
  // no connection is left in flight.
  EXPECT_EQ(HttpGet(site.admin_address(), "/healthz").status, 200);
  EXPECT_EQ(MetricsRegistry::Default().SumGauges("obiwan_admin_http_active"),
            0);
}

TEST_F(AdminHttpTest, HealthzFlipsWhenTransportStops) {
  const HttpReply healthy = HttpGet(site_->admin_address(), "/healthz");
  EXPECT_EQ(healthy.status, 200);
  EXPECT_NE(healthy.body.find("\"status\":\"ok\""), std::string::npos);

  // Readiness must track the RMI plane: stop serving it (the admin port
  // keeps answering, as a real readiness probe needs it to).
  site_->Stop();
  const HttpReply unhealthy = HttpGet(site_->admin_address(), "/healthz");
  EXPECT_EQ(unhealthy.status, 503);
  EXPECT_NE(unhealthy.body.find("\"status\":\"unhealthy\""), std::string::npos);
}

TEST(AdminHttpBacklog, HealthzTracksResyncBacklog) {
  // Provider + demander over loopback; the demander's admin endpoint with a
  // zero stale budget turns unready the moment an invalidation lands.
  net::LoopbackNetwork network;
  core::Site provider(81, network.CreateEndpoint("prov"));
  core::Site demander(82, network.CreateEndpoint("dem"));
  ASSERT_TRUE(provider.Start().ok());
  ASSERT_TRUE(demander.Start().ok());
  provider.HostRegistry();
  demander.UseRegistry("prov");
  provider.SetConsistencyPolicy(
      std::make_unique<consistency::WriteInvalidate>());

  auto doc = std::make_shared<Node>();
  ASSERT_TRUE(provider.Bind("doc", doc).ok());
  const ObjectId oid = provider.Export(doc);
  auto remote = demander.Lookup<Node>("doc");
  ASSERT_TRUE(remote.ok());
  auto ref = remote->Replicate(ReplicationMode::Incremental(1));
  ASSERT_TRUE(ref.ok());

  core::Site::AdminOptions options;
  options.max_stale_backlog = 0;
  ASSERT_TRUE(demander.ServeAdmin("0", options).ok());

  EXPECT_EQ(HttpGet(demander.admin_address(), "/healthz").status, 200);

  // Invalidate: one stale replica exceeds the zero budget.
  doc->SetValue(42);
  ASSERT_TRUE(provider.MarkMasterUpdated(oid).ok());
  ASSERT_EQ(demander.StaleReplicaIds().size(), 1u);
  EXPECT_EQ(HttpGet(demander.admin_address(), "/healthz").status, 503);

  // Resync drains the backlog; readiness recovers.
  ASSERT_TRUE(demander.RefreshReplica(oid).ok());
  EXPECT_EQ(HttpGet(demander.admin_address(), "/healthz").status, 200);
}

// A provider over real sockets, serving admin with `budget` as its
// convergence budget, after one put that its TCP fanout pushes to 2 holders:
// the /healthz reply.
HttpReply HealthzAfterFanout(Nanos budget) {
  std::vector<std::unique_ptr<core::Site>> sites;  // provider, writer, holders
  std::vector<core::Ref<Node>> refs;
  for (int i = 0; i < 4; ++i) {
    auto transport = net::TcpTransport::Create(0);
    if (!transport.ok()) return {};
    sites.push_back(std::make_unique<core::Site>(90 + i, std::move(*transport)));
    EXPECT_TRUE(sites.back()->Start().ok());
    if (i == 0) {
      sites[0]->HostRegistry();
      sites[0]->SetConsistencyPolicy(std::make_unique<core::PushUpdates>());
      core::Site::AdminOptions options;
      options.convergence_budget = budget;
      EXPECT_TRUE(sites[0]->ServeAdmin("0", options).ok());
      EXPECT_TRUE(sites[0]->Bind("doc", std::make_shared<Node>()).ok());
      continue;
    }
    sites.back()->UseRegistry(sites[0]->address());
    auto remote = sites.back()->Lookup<Node>("doc");
    if (!remote.ok()) return {};
    auto ref = remote->Replicate(ReplicationMode::Incremental(1));
    if (!ref.ok()) return {};
    refs.push_back(*ref);
  }
  refs[0].get()->value = 1;
  EXPECT_TRUE(sites[1]->Put(refs[0]).ok());
  return HttpGet(sites[0]->admin_address(), "/healthz");
}

// AdminOptions::convergence_budget: /healthz is unready while the p99
// time-to-all-holders of recent update journeys (stamped by the fanout's
// transport hooks) is over the budget, and ready under a generous one.
TEST(AdminHttpConvergence, HealthzTracksTheConvergenceBudget) {
  const HttpReply tight = HealthzAfterFanout(1);
  EXPECT_EQ(tight.status, 503) << tight.body;
  EXPECT_NE(tight.body.find("\"convergence_p99_ns\":"), std::string::npos)
      << tight.body;
  const HttpReply loose = HealthzAfterFanout(3600 * kSecond);
  EXPECT_EQ(loose.status, 200) << loose.body;
  EXPECT_NE(loose.body.find("\"convergence_p99_ns\":"), std::string::npos)
      << loose.body;
}

TEST_F(AdminHttpTest, ConcurrentScrapesRaceProtocolTraffic) {
  // The TSan workload: scrapers hammer every endpoint while the site serves
  // real replication traffic on its RMI plane.
  auto transport = net::TcpTransport::Create(0);
  ASSERT_TRUE(transport.ok());
  core::Site demander(72, std::move(*transport));
  ASSERT_TRUE(demander.Start().ok());
  demander.UseRegistry(site_->address());
  auto remote = demander.Lookup<Node>("doc");
  ASSERT_TRUE(remote.ok());
  auto ref = remote->Replicate(ReplicationMode::Incremental(2));
  ASSERT_TRUE(ref.ok());

  constexpr int kScrapers = 4;
  constexpr int kRequests = 12;
  std::atomic<int> ok_scrapes{0};
  std::vector<std::thread> scrapers;
  scrapers.reserve(kScrapers);
  for (int t = 0; t < kScrapers; ++t) {
    scrapers.emplace_back([this, &ok_scrapes] {
      const char* paths[] = {"/metrics", "/healthz", "/inspect.json"};
      for (int i = 0; i < kRequests; ++i) {
        const HttpReply r = HttpGet(site_->admin_address(), paths[i % 3]);
        if (r.status == 200) ok_scrapes.fetch_add(1);
      }
    });
  }
  for (int i = 0; i < 24; ++i) {
    ref->get()->SetValue(i);
    ASSERT_TRUE(demander.Put(*ref).ok());
    ASSERT_TRUE(demander.Refresh(*ref).ok());
  }
  for (std::thread& t : scrapers) t.join();
  EXPECT_EQ(ok_scrapes.load(), kScrapers * kRequests);
}

// ---------------------------------------------------------------------------
// FleetMonitor merge math (deterministic virtual-clock sim)
// ---------------------------------------------------------------------------

class FleetMonitorTest : public ::testing::Test {
 protected:
  static constexpr int kDevices = 4;

  void SetUp() override {
    network_ = std::make_unique<net::SimNetwork>(clock_, net::kPaperLan);
    office_ = std::make_unique<core::Site>(
        1, network_->CreateEndpoint("office"), clock_);
    ASSERT_TRUE(office_->Start().ok());
    office_->HostRegistry();
    office_->SetConsistencyPolicy(
        std::make_unique<consistency::WriteInvalidate>());
    office_->SetHolderFailureThreshold(0);
    office_->SetRequestDeadline(500 * kMilli);

    doc_ = std::make_shared<Node>();
    doc_->payload.resize(128);
    ASSERT_TRUE(office_->Bind("doc", doc_).ok());
    oid_ = office_->Export(doc_);

    std::vector<net::Address> targets = {"office"};
    for (int i = 0; i < kDevices; ++i) {
      const std::string name = "dev" + std::to_string(i);
      auto site = std::make_unique<core::Site>(
          static_cast<SiteId>(10 + i), network_->CreateEndpoint(name), clock_);
      ASSERT_TRUE(site->Start().ok());
      site->UseRegistry("office");
      auto remote = site->Lookup<Node>("doc");
      ASSERT_TRUE(remote.ok());
      auto ref = remote->Replicate(ReplicationMode::Incremental(1));
      ASSERT_TRUE(ref.ok());
      refs_.push_back(*ref);
      targets.push_back(name);
      devices_.push_back(std::move(site));
    }

    vantage_ = std::make_unique<core::Site>(
        99, network_->CreateEndpoint("mon"), clock_);
    ASSERT_TRUE(vantage_->Start().ok());
    vantage_->SetRequestDeadline(500 * kMilli);

    monitor_ = std::make_unique<obs::FleetMonitor>(*vantage_, targets);
  }

  void UpdateMaster(int times) {
    for (int i = 0; i < times; ++i) {
      doc_->SetValue(doc_->value + 1);
      ASSERT_TRUE(office_->MarkMasterUpdated(oid_).ok());
    }
  }

  VirtualClock clock_;
  std::unique_ptr<net::SimNetwork> network_;
  std::unique_ptr<core::Site> office_;
  std::unique_ptr<core::Site> vantage_;
  std::vector<std::unique_ptr<core::Site>> devices_;
  std::vector<core::Ref<Node>> refs_;
  std::shared_ptr<Node> doc_;
  ObjectId oid_;
  std::unique_ptr<obs::FleetMonitor> monitor_;
};

TEST_F(FleetMonitorTest, BaselineIsConverged) {
  const obs::FleetReport report = monitor_->PollOnce();
  EXPECT_EQ(report.sites, 5u);
  EXPECT_EQ(report.reachable, 5u);
  EXPECT_EQ(report.replicas, static_cast<std::uint64_t>(kDevices));
  EXPECT_GE(report.masters, 1u);
  EXPECT_EQ(report.stale_replicas, 0u);
  EXPECT_EQ(report.lag_versions_max, 0u);
  EXPECT_EQ(report.polls, 1u);
  // Every device registered as a holder of the doc.
  EXPECT_GE(report.holders, static_cast<std::uint64_t>(kDevices));
  // The doc is the hottest object: every device fetched it once.
  ASSERT_FALSE(report.hottest.empty());
  EXPECT_EQ(report.hottest[0].id, oid_);
  EXPECT_GE(report.hottest[0].traffic, static_cast<std::uint64_t>(kDevices));
}

TEST_F(FleetMonitorTest, HottestRankingBreaksTrafficTiesByObjectId) {
  // Three more masters, each fetched exactly once: an equal-traffic tie the
  // ranking must break by object id, not unordered_map iteration order.
  std::vector<ObjectId> aux;
  for (int i = 0; i < 3; ++i) {
    const std::string name = "aux" + std::to_string(i);
    auto obj = std::make_shared<Node>();
    ASSERT_TRUE(office_->Bind(name, obj).ok());
    aux.push_back(office_->Export(obj));
    auto remote = devices_[0]->Lookup<Node>(name);
    ASSERT_TRUE(remote.ok());
    auto ref = remote->Replicate(ReplicationMode::Incremental(1));
    ASSERT_TRUE(ref.ok());
  }

  const obs::FleetReport report = monitor_->PollOnce();
  ASSERT_EQ(report.hottest.size(), 4u);
  EXPECT_EQ(report.hottest[0].id, oid_);  // doc: one fetch per device
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(report.hottest[1 + i].id, aux[i]) << "tie not broken by id";
    EXPECT_EQ(report.hottest[1 + i].traffic, 1u);
  }
}

TEST_F(FleetMonitorTest, MergesLagDistributionAcrossSites) {
  UpdateMaster(3);  // versioned invalidations: every device lag 3
  clock_.Sleep(10 * kMilli);                     // let the staleness age
  (void)devices_[0]->RefreshReplica(oid_);       // dev0 current again
  network_->SetEndpointUp("dev3", false);        // dev3 unreachable

  const obs::FleetReport report = monitor_->PollOnce();
  EXPECT_EQ(report.sites, 5u);
  EXPECT_EQ(report.reachable, 4u);
  // Reachable lag samples: office 0, dev0 0, dev1 3, dev2 3.
  EXPECT_EQ(report.stale_replicas, 2u);
  EXPECT_EQ(report.lag_versions_p50, 0u);
  EXPECT_EQ(report.lag_versions_p95, 3u);
  EXPECT_EQ(report.lag_versions_max, 3u);
  EXPECT_GT(report.lag_age_max, 0);

  const obs::FleetSiteSample* down = nullptr;
  for (const obs::FleetSiteSample& s : report.site_samples) {
    if (s.address == "dev3") down = &s;
  }
  ASSERT_NE(down, nullptr);
  EXPECT_FALSE(down->reachable);
  EXPECT_GE(MetricsRegistry::Default().SumCounters(
                "obiwan_fleet_unreachable_polls_total"),
            1u);
}

TEST_F(FleetMonitorTest, BytesPerUpdateFromPutDeltas) {
  obs::FleetReport report = monitor_->PollOnce();
  const std::uint64_t updates_before = report.updates;

  // A device edits and reintegrates twice: the master's put counter moves.
  core::Site& writer = *devices_[1];
  core::Ref<Node>& ref = refs_[1];
  for (int i = 0; i < 2; ++i) {
    ref.get()->SetValue(100 + i);
    ASSERT_TRUE(writer.Put(ref).ok());
  }

  report = monitor_->PollOnce();
  EXPECT_EQ(report.updates, updates_before + 2);
  // Each put shipped the 128-byte payload (plus field overhead).
  EXPECT_GT(report.bytes_per_update, 100.0);

  // Idle interval: the delta resets to zero, the cumulative count stays.
  report = monitor_->PollOnce();
  EXPECT_EQ(report.updates, updates_before + 2);
  EXPECT_DOUBLE_EQ(report.bytes_per_update, 0.0);
}

TEST_F(FleetMonitorTest, AddTargetAndLastReport) {
  EXPECT_EQ(monitor_->target_count(), 5u);
  EXPECT_EQ(monitor_->last().polls, 0u);
  const obs::FleetReport report = monitor_->PollOnce();
  EXPECT_EQ(monitor_->last().polls, report.polls);
  monitor_->AddTarget("office");  // duplicate target: counted, still merged
  EXPECT_EQ(monitor_->target_count(), 6u);
  EXPECT_EQ(monitor_->PollOnce().sites, 6u);
}

}  // namespace
}  // namespace obiwan
