// Tests for src/obs/exposition: raw-socket HTTP conformance, Prometheus
// text-format validity, the /healthz and /v1 routes, concurrent scrapes
// against a live analysis, and graceful port-in-use failure.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/apps/npb.hpp"
#include "src/core/server_group.hpp"
#include "src/core/vapro.hpp"
#include "src/obs/context.hpp"
#include "src/obs/exposition.hpp"
#include "src/sim/runtime.hpp"
#include "src/testing/fault.hpp"

namespace vapro {
namespace {

struct HttpReply {
  bool ok = false;
  int status = 0;
  std::string content_type;
  std::string body;
  std::string raw;
};

// Minimal HTTP/1.1 client over a plain socket — the same wire surface a
// Prometheus scraper or curl uses, so header framing is tested for real.
HttpReply http_get(int port, const std::string& path) {
  HttpReply reply;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return reply;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return reply;
  }
  const std::string request = "GET " + path +
                              " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                              "Connection: close\r\n\r\n";
  for (std::size_t off = 0; off < request.size();) {
    const ssize_t n =
        ::send(fd, request.data() + off, request.size() - off, 0);
    if (n <= 0) {
      ::close(fd);
      return reply;
    }
    off += static_cast<std::size_t>(n);
  }
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    reply.raw.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);

  const std::size_t header_end = reply.raw.find("\r\n\r\n");
  if (header_end == std::string::npos) return reply;
  const std::string headers = reply.raw.substr(0, header_end);
  reply.body = reply.raw.substr(header_end + 4);
  std::istringstream hs(headers);
  std::string status_line;
  std::getline(hs, status_line);
  if (std::sscanf(status_line.c_str(), "HTTP/1.1 %d", &reply.status) != 1)
    return reply;
  std::string line;
  while (std::getline(hs, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    constexpr const char* kCt = "Content-Type: ";
    if (line.rfind(kCt, 0) == 0) reply.content_type = line.substr(14);
  }
  reply.ok = true;
  return reply;
}

// Validates Prometheus text format 0.0.4: every non-comment line must be
// "name[{labels}] value" with a parseable double and a sane metric name.
void expect_valid_prometheus(const std::string& body) {
  std::istringstream is(body);
  std::string line;
  std::size_t samples = 0;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      EXPECT_TRUE(line.rfind("# TYPE ", 0) == 0 ||
                  line.rfind("# HELP ", 0) == 0)
          << "bad comment line: " << line;
      continue;
    }
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << "no value in: " << line;
    const std::string name_part = line.substr(0, space);
    const std::string value_part = line.substr(space + 1);
    char* end = nullptr;
    std::strtod(value_part.c_str(), &end);
    EXPECT_EQ(*end, '\0') << "unparseable value in: " << line;
    for (char c : name_part.substr(0, name_part.find('{')))
      EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
                  c == ':')
          << "bad metric name char '" << c << "' in: " << line;
    ++samples;
  }
  EXPECT_GT(samples, 0u) << "empty exposition body";
}

TEST(Exposition, MetricsRouteServesPrometheusTextFormat) {
  obs::ObsContext ctx;
  ctx.metrics().counter("vapro.test.requests")->inc(42);
  ctx.metrics().gauge("vapro.test.depth")->set(3.5);
  ctx.metrics().histogram("vapro.test.latency")->record(0.01);
  std::string error;
  ASSERT_NE(ctx.start_exposition(0, &error), nullptr) << error;
  const int port = ctx.exposition()->port();
  ASSERT_GT(port, 0);

  HttpReply reply = http_get(port, "/metrics");
  ASSERT_TRUE(reply.ok);
  EXPECT_EQ(reply.status, 200);
  EXPECT_EQ(reply.content_type, obs::kPrometheusContentType);
  expect_valid_prometheus(reply.body);
  EXPECT_NE(reply.body.find("vapro_test_requests 42"), std::string::npos);
  EXPECT_NE(reply.body.find("# TYPE vapro_test_requests counter"),
            std::string::npos);
  EXPECT_NE(reply.body.find("vapro_test_latency_count"), std::string::npos);
}

TEST(Exposition, HistogramRendersNativePrometheusHistogramFormat) {
  obs::ObsContext ctx;
  obs::Histogram* h = ctx.metrics().histogram("vapro.test.latency");
  for (int i = 0; i < 3; ++i) h->record(1e-3);
  h->record(0.5);
  std::string error;
  ASSERT_NE(ctx.start_exposition(0, &error), nullptr) << error;
  HttpReply reply = http_get(ctx.exposition()->port(), "/metrics");
  ASSERT_TRUE(reply.ok);
  expect_valid_prometheus(reply.body);

  EXPECT_NE(reply.body.find("# TYPE vapro_test_latency histogram"),
            std::string::npos);
  EXPECT_NE(reply.body.find("vapro_test_latency_bucket{le=\"+Inf\"} 4"),
            std::string::npos)
      << reply.body;
  EXPECT_NE(reply.body.find("vapro_test_latency_count 4"), std::string::npos);
  EXPECT_NE(reply.body.find("vapro_test_latency_sum"), std::string::npos);
  // Buckets are CUMULATIVE and non-decreasing, ending at the +Inf count.
  std::istringstream is(reply.body);
  std::string line;
  double prev = -1.0, last = -1.0;
  std::size_t bucket_lines = 0;
  while (std::getline(is, line)) {
    if (line.rfind("vapro_test_latency_bucket{", 0) != 0) continue;
    const double v = std::strtod(line.substr(line.rfind(' ') + 1).c_str(),
                                 nullptr);
    EXPECT_GE(v, prev) << "non-cumulative bucket: " << line;
    prev = last = v;
    ++bucket_lines;
  }
  EXPECT_GE(bucket_lines, 2u);
  EXPECT_DOUBLE_EQ(last, 4.0);
  // Quantile summary gauges ride alongside the histogram.
  for (const char* q : {"_p50", "_p95", "_p99"}) {
    EXPECT_NE(reply.body.find(std::string("# TYPE vapro_test_latency") + q +
                              " gauge"),
              std::string::npos)
        << q;
    EXPECT_NE(reply.body.find(std::string("vapro_test_latency") + q + " "),
              std::string::npos)
        << q;
  }
}

TEST(Exposition, RootServesTheEndpointIndex) {
  obs::ObsContext ctx;
  ASSERT_NE(ctx.start_exposition(0), nullptr);
  HttpReply reply = http_get(ctx.exposition()->port(), "/");
  ASSERT_TRUE(reply.ok);
  EXPECT_EQ(reply.status, 200);
  EXPECT_EQ(reply.content_type, "application/json");
  EXPECT_NE(reply.body.find("\"service\":\"vapro\""), std::string::npos);
  for (const char* path : {"\"/\"", "\"/metrics\"", "\"/healthz\""})
    EXPECT_NE(reply.body.find(path), std::string::npos)
        << path << " missing from " << reply.body;

  // Routes added later appear in the live index (and in /healthz).
  ctx.exposition()->add_route("/v1/latency", [] {
    obs::HttpResponse r;
    r.body = "{}";
    return r;
  });
  HttpReply after = http_get(ctx.exposition()->port(), "/");
  ASSERT_TRUE(after.ok);
  EXPECT_NE(after.body.find("\"/v1/latency\""), std::string::npos);
  HttpReply healthz = http_get(ctx.exposition()->port(), "/healthz");
  ASSERT_TRUE(healthz.ok);
  EXPECT_NE(healthz.body.find("\"endpoints\""), std::string::npos);
  EXPECT_NE(healthz.body.find("\"/v1/latency\""), std::string::npos);
}

TEST(Exposition, HealthzReportsLiveness) {
  obs::ObsContext ctx;
  ASSERT_NE(ctx.start_exposition(0), nullptr);
  HttpReply reply = http_get(ctx.exposition()->port(), "/healthz");
  ASSERT_TRUE(reply.ok);
  EXPECT_EQ(reply.status, 200);
  EXPECT_EQ(reply.content_type, "application/json");
  EXPECT_NE(reply.body.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(reply.body.find("\"windows\""), std::string::npos);
  EXPECT_NE(reply.body.find("\"last_window_age_seconds\""),
            std::string::npos);
}

TEST(Exposition, HealthzReportsPipelineDepthAndBuildCapabilities) {
  obs::ObsContext ctx;
  ASSERT_NE(ctx.start_exposition(0), nullptr);
  HttpReply before = http_get(ctx.exposition()->port(), "/healthz");
  ASSERT_TRUE(before.ok);
  EXPECT_NE(before.body.find("\"uptime_seconds\":"), std::string::npos);
  EXPECT_NE(before.body.find("\"journal_events\":"), std::string::npos);
  // No pipelined server has published a depth gauge yet: the field reads
  // null, and the probe must not have registered a zero gauge either.
  EXPECT_NE(before.body.find("\"pipeline_depth\":null"), std::string::npos);
  HttpReply metrics = http_get(ctx.exposition()->port(), "/metrics");
  ASSERT_TRUE(metrics.ok);
  EXPECT_EQ(metrics.body.find("vapro_pipeline_queue_depth"),
            std::string::npos);
  // The build-capability flag matches how this binary was compiled.
  const std::string flag = std::string("\"fault_injection\":") +
      (testing::fault_injection_compiled() ? "true" : "false");
  EXPECT_NE(before.body.find(flag), std::string::npos);

  // Once a pipelined AnalysisServer publishes its queue-depth gauge, the
  // health body reports the number.
  ctx.metrics().gauge("vapro.pipeline.queue_depth")->set(2.0);
  HttpReply after = http_get(ctx.exposition()->port(), "/healthz");
  ASSERT_TRUE(after.ok);
  EXPECT_NE(after.body.find("\"pipeline_depth\":2"), std::string::npos);
}

TEST(Exposition, UnknownRouteIs404) {
  obs::ObsContext ctx;
  ASSERT_NE(ctx.start_exposition(0), nullptr);
  HttpReply reply = http_get(ctx.exposition()->port(), "/nope");
  ASSERT_TRUE(reply.ok);
  EXPECT_EQ(reply.status, 404);
}

TEST(Exposition, ThrowingHandlerReturns503NotAHang) {
  obs::ObsContext ctx;
  ASSERT_NE(ctx.start_exposition(0), nullptr);
  ctx.exposition()->add_route("/boom", []() -> obs::HttpResponse {
    throw std::runtime_error("handler exploded");
  });
  // The raw-socket client sees a complete, well-framed 503 response — not
  // a dropped connection, not a hang, and the serve thread survives.
  HttpReply reply = http_get(ctx.exposition()->port(), "/boom");
  ASSERT_TRUE(reply.ok) << "connection was dropped instead of answered";
  EXPECT_EQ(reply.status, 503);
  EXPECT_NE(reply.body.find("handler exploded"), std::string::npos);
  // Later requests on other routes still work.
  HttpReply healthz = http_get(ctx.exposition()->port(), "/healthz");
  ASSERT_TRUE(healthz.ok);
  EXPECT_EQ(healthz.status, 200);
}

#if defined(VAPRO_FAULT_INJECTION) && VAPRO_FAULT_INJECTION

vapro::testing::FaultPlan expo_plan(const std::string& text) {
  vapro::testing::FaultPlan plan;
  std::string error;
  EXPECT_TRUE(vapro::testing::FaultPlan::parse(text, &plan, &error)) << error;
  return plan;
}

TEST(ExpositionFault, AcceptFaultDropsOneClientWithoutWedging) {
  obs::ObsContext ctx;
  ASSERT_NE(ctx.start_exposition(0), nullptr);
  vapro::testing::FaultScope scope(
      expo_plan("seed 1\nexpo.accept on=1 fail\n"));
  // First connection is dropped at accept; the reply never completes.
  HttpReply dropped = http_get(ctx.exposition()->port(), "/healthz");
  EXPECT_FALSE(dropped.ok);
  EXPECT_EQ(ctx.exposition()->accept_faults(), 1u);
  // The serve loop is still alive for the next client.
  HttpReply reply = http_get(ctx.exposition()->port(), "/healthz");
  ASSERT_TRUE(reply.ok);
  EXPECT_EQ(reply.status, 200);
}

TEST(ExpositionFault, MidResponseCloseTruncatesBody) {
  obs::ObsContext ctx;
  ctx.metrics().counter("vapro.test.padding")->inc(1);
  ASSERT_NE(ctx.start_exposition(0), nullptr);
  vapro::testing::FaultScope scope(
      expo_plan("seed 1\nexpo.send on=1 close\n"));
  // Half the payload arrives, then the peer vanishes: the client's
  // Content-Length check must fail rather than trust the short body.
  HttpReply truncated = http_get(ctx.exposition()->port(), "/metrics");
  if (truncated.ok) {
    // Header survived the cut: the body must be visibly short.
    const std::size_t cl = truncated.raw.find("Content-Length: ");
    ASSERT_NE(cl, std::string::npos);
    const std::size_t content_length = static_cast<std::size_t>(
        std::strtoull(truncated.raw.c_str() + cl + 16, nullptr, 10));
    EXPECT_LT(truncated.body.size(), content_length);
  }
  // Next scrape is whole again.
  HttpReply reply = http_get(ctx.exposition()->port(), "/metrics");
  ASSERT_TRUE(reply.ok);
  EXPECT_EQ(reply.status, 200);
}

#endif  // VAPRO_FAULT_INJECTION

TEST(Exposition, PeerResetMidResponseIsACountedDropNotACrash) {
  obs::ObsContext ctx;
  // Pad /metrics far past the loopback socket buffers so the server is
  // still send()ing when the peer resets — the EPIPE/ECONNRESET path a
  // ^C'd curl or a timed-out scraper takes.  Without SIGPIPE hardening
  // this test kills the process instead of failing an expectation.
  for (int i = 0; i < 100000; ++i)
    ctx.metrics().counter("vapro.test.pad_" + std::to_string(i))->inc(1);
  ASSERT_NE(ctx.start_exposition(0), nullptr);
  const int port = ctx.exposition()->port();

  bool dropped = false;
  for (int attempt = 0; attempt < 20 && !dropped; ++attempt) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    const char req[] =
        "GET /metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n";
    ASSERT_GT(::send(fd, req, sizeof(req) - 1, 0), 0);
    // Wait for the first response byte so the server is provably mid-send,
    // then close with an immediate RST (SO_LINGER 0): the megabytes still
    // queued have nowhere to go and the server's next send() must fail.
    char c;
    (void)::recv(fd, &c, 1, 0);
    linger lg{};
    lg.l_onoff = 1;
    lg.l_linger = 0;
    ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
    ::close(fd);
    // The drop is counted on the serve thread; give it a beat.
    for (int spin = 0; spin < 200 && ctx.exposition()->send_drops() == 0;
         ++spin)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    dropped = ctx.exposition()->send_drops() >= 1;
  }
  EXPECT_TRUE(dropped)
      << "peer reset mid-response never registered as a send drop";
  // The serve loop survived: a fresh scrape completes whole.
  HttpReply reply = http_get(port, "/metrics");
  ASSERT_TRUE(reply.ok);
  EXPECT_EQ(reply.status, 200);
}

TEST(Exposition, PortInUseFailsWithReadableError) {
  obs::ExpositionServer first;
  std::string error;
  ASSERT_TRUE(first.start(0, &error)) << error;
  obs::ExpositionServer second;
  EXPECT_FALSE(second.start(first.port(), &error));
  EXPECT_FALSE(error.empty());
  EXPECT_NE(error.find(std::to_string(first.port())), std::string::npos)
      << "error should name the port: " << error;
  EXPECT_FALSE(second.running());
}

TEST(Exposition, RequestCounterAdvances) {
  obs::ObsContext ctx;
  ASSERT_NE(ctx.start_exposition(0), nullptr);
  const auto before = ctx.exposition()->requests_served();
  ASSERT_TRUE(http_get(ctx.exposition()->port(), "/healthz").ok);
  ASSERT_TRUE(http_get(ctx.exposition()->port(), "/metrics").ok);
  EXPECT_EQ(ctx.exposition()->requests_served(), before + 2);
}

// Scrape every route from several client threads while the analysis runs:
// the /v1 routes lock the server's live mutex against process_window, so
// this doubles as a deadlock/data-race check (run under TSan in CI).
TEST(Exposition, ConcurrentScrapeDuringAnalysis) {
  sim::SimConfig cfg;
  cfg.ranks = 16;
  cfg.cores_per_node = 8;
  sim::Simulator simulator(cfg);

  obs::ObsContext ctx;
  std::string error;
  ASSERT_NE(ctx.start_exposition(0, &error), nullptr) << error;
  const int port = ctx.exposition()->port();

  core::VaproOptions opts;
  opts.window_seconds = 0.05;
  opts.obs = &ctx;
  core::VaproSession session(simulator, opts);

  std::atomic<bool> done{false};
  std::atomic<int> scrapes{0};
  std::vector<std::thread> scrapers;
  const char* kPaths[] = {"/",           "/metrics",    "/healthz",
                          "/v1/heatmap", "/v1/variance", "/v1/latency",
                          "/v1/critical_path"};
  for (const char* path : kPaths) {
    scrapers.emplace_back([&, path] {
      while (!done.load(std::memory_order_relaxed)) {
        HttpReply reply = http_get(port, path);
        ASSERT_TRUE(reply.ok) << path;
        ASSERT_EQ(reply.status, 200) << path;
        ASSERT_FALSE(reply.body.empty()) << path;
        scrapes.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  apps::NpbParams p;
  p.iters = 60;
  simulator.run(apps::cg(p));
  done.store(true);
  for (auto& t : scrapers) t.join();
  EXPECT_GT(scrapes.load(), 4);

  // After the run the snapshot routes must agree with the session itself.
  HttpReply variance = http_get(port, "/v1/variance");
  ASSERT_TRUE(variance.ok);
  EXPECT_EQ(variance.content_type, "application/json");
  std::ostringstream want_windows;
  want_windows << "\"windows\":" << session.server().windows_processed();
  EXPECT_NE(variance.body.find(want_windows.str()), std::string::npos)
      << variance.body;

  // So must the self-diagnosis routes: every processed window has a
  // latency record, and the critical path names a dominant stage.
  HttpReply latency = http_get(port, "/v1/latency");
  ASSERT_TRUE(latency.ok);
  EXPECT_EQ(latency.content_type, "application/json");
  EXPECT_NE(latency.body.find(want_windows.str()), std::string::npos)
      << latency.body;
  HttpReply critical = http_get(port, "/v1/critical_path");
  ASSERT_TRUE(critical.ok);
  EXPECT_NE(critical.body.find("\"dominant\":\""), std::string::npos)
      << critical.body;
}

// A ServerGroup serves the same four /v1 routes as a single server, from
// its merged root view, and takes them down when it is destroyed.
TEST(Exposition, ServerGroupServesAndRemovesTheLiveRoutes) {
  obs::ObsContext ctx;
  std::string error;
  ASSERT_NE(ctx.start_exposition(0, &error), nullptr) << error;
  const int port = ctx.exposition()->port();
  const char* kRoutes[] = {"/v1/heatmap", "/v1/variance", "/v1/latency",
                           "/v1/critical_path"};
  {
    core::ServerOptions opts;
    opts.obs = &ctx;
    core::ServerGroup group(/*ranks=*/8, /*servers=*/2, opts);
    group.process_window(core::FragmentBatch{});
    for (const char* path : kRoutes) {
      HttpReply reply = http_get(port, path);
      ASSERT_TRUE(reply.ok) << path;
      EXPECT_EQ(reply.status, 200) << path;
      EXPECT_EQ(reply.content_type, "application/json") << path;
    }
    HttpReply latency = http_get(port, "/v1/latency");
    EXPECT_EQ(latency.body.rfind("{\"servers\":[", 0), 0u) << latency.body;
  }
  for (const char* path : kRoutes) {
    HttpReply reply = http_get(port, path);
    ASSERT_TRUE(reply.ok) << path;
    EXPECT_EQ(reply.status, 404) << path;
  }
}

}  // namespace
}  // namespace vapro
