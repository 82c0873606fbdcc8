// Tests for the multi-server aggregation layer (§5): sharding, concurrent
// leaf analysis, and root-side merging of heat maps / coverage / findings.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <thread>

#include "src/apps/npb.hpp"
#include "src/apps/solvers.hpp"
#include "src/core/client.hpp"
#include "src/core/server_group.hpp"
#include "src/obs/context.hpp"
#include "src/sim/runtime.hpp"

namespace vapro::core {
namespace {

// Drives a simulation into a ServerGroup via a VaproClient, mirroring what
// VaproSession does for a single server.
struct GroupHarness {
  VaproClient client;
  ServerGroup group;

  GroupHarness(sim::Simulator& simulator, int servers,
               ServerOptions opts = {})
      : client(simulator.config().ranks, ClientOptions{}),
        group(simulator.config().ranks, servers, opts) {
    client.configure_counters(group.counters_needed());
    simulator.set_interceptor(&client);
    simulator.add_periodic(0.1, [this](double) {
      group.process_window(client.drain());
      client.configure_counters(group.counters_needed());
    });
  }
};

sim::SimConfig noisy_config() {
  sim::SimConfig cfg;
  cfg.ranks = 32;
  cfg.cores_per_node = 8;
  cfg.seed = 77;
  sim::NoiseSpec dimm;
  dimm.kind = sim::NoiseKind::kSlowDram;
  dimm.node = 2;  // ranks 16-23
  dimm.magnitude = 3.0;
  cfg.noises.push_back(dimm);
  return cfg;
}

TEST(ServerGroup, ShardsProcessEveryFragment) {
  sim::Simulator simulator(noisy_config());
  GroupHarness harness(simulator, 4);
  apps::NpbParams p;
  p.iters = 30;
  simulator.run(apps::cg(p));
  EXPECT_GT(harness.group.fragments_processed(), 500u);
  EXPECT_EQ(harness.group.servers(), 4);
  // Every leaf got some work (ranks are block-cyclic over shards).
  for (int s = 0; s < 4; ++s)
    EXPECT_GT(harness.group.leaf(s).fragments_processed(), 50u);
}

TEST(ServerGroup, MergedMapDetectsTheSameRegion) {
  // Run the same program through 1 server and through 4 shards; the merged
  // detection must localize the same ranks.
  auto locate_with = [&](int servers) {
    sim::Simulator simulator(noisy_config());
    GroupHarness harness(simulator, servers);
    apps::NekboneParams p;
    p.iters = 150;
    simulator.run(apps::nekbone(p));
    return harness.group.locate(FragmentKind::kComputation);
  };
  auto single = locate_with(1);
  auto sharded = locate_with(4);
  ASSERT_FALSE(single.empty());
  ASSERT_FALSE(sharded.empty());
  EXPECT_EQ(single.front().rank_lo, sharded.front().rank_lo);
  EXPECT_EQ(single.front().rank_hi, sharded.front().rank_hi);
  EXPECT_NEAR(single.front().mean_perf, sharded.front().mean_perf, 0.05);
}

TEST(ServerGroup, CoverageAggregatesAcrossLeaves) {
  sim::Simulator simulator(noisy_config());
  GroupHarness harness(simulator, 4);
  apps::NpbParams p;
  p.iters = 30;
  auto result = simulator.run(apps::cg(p));
  double total = 0;
  for (double t : result.finish_times) total += t;
  auto cov = harness.group.merged_coverage();
  EXPECT_GT(cov.coverage(total), 0.3);
  // Merged coverage equals the sum of leaf coverages.
  double leaf_sum = 0;
  for (int s = 0; s < 4; ++s)
    leaf_sum += harness.group.leaf(s).coverage().covered_total();
  EXPECT_NEAR(cov.covered_total(), leaf_sum, 1e-9);
}

TEST(ServerGroup, DiagnosisCulpritsSurfaceAtRoot) {
  sim::Simulator simulator(noisy_config());
  GroupHarness harness(simulator, 2);
  apps::NekboneParams p;
  p.iters = 250;
  simulator.run(apps::nekbone(p));
  auto culprits = harness.group.merged_culprits();
  ASSERT_FALSE(culprits.empty());
  EXPECT_EQ(culprits.front(), FactorId::kDramBound);
}

TEST(ServerGroup, ToolTimeChargesLeafAnalysisOnce) {
  // Every leaf charges its own window analysis to the shared accountant,
  // so the group may add only its demux and merged publish on top — not
  // the time it spends waiting on the leaves.  A slow observer makes the
  // leaf analysis dominate; counting it twice would push tool time to
  // about 1.25x the leaves' stage time.  The merged publish is group work
  // but not under test, so it is off, and the 100 ms observer keeps the
  // demux small beside the leaves' work in a plain or ASan build.  (Under
  // TSan the demux alone exceeds the 10% margin; the tsan CI job does not
  // run this suite.)
  obs::ObsContext ctx;
  ServerOptions opts;
  opts.obs = &ctx;
  opts.live_detection = false;
  opts.window_observer = [](const Stg&, const ClusteringResult&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  };
  sim::Simulator simulator(noisy_config());
  GroupHarness harness(simulator, 4, opts);
  apps::NpbParams p;
  p.iters = 30;
  simulator.run(apps::cg(p));
  ASSERT_GE(harness.group.windows_processed(), 3u);
  const double leaf_seconds = ctx.windows().totals().total_seconds();
  EXPECT_LT(ctx.overhead().tool_seconds(), 1.1 * leaf_seconds);
}

TEST(ServerGroup, HeatmapMergeIsExactForDisjointRanks) {
  Heatmap a(4, 0.5), b(4, 0.5);
  a.deposit(0, 0.0, 1.0, 0.5);
  b.deposit(2, 0.0, 2.0, 0.9);
  a.merge(b);
  EXPECT_NEAR(a.cell(0, 0), 0.5, 1e-12);
  EXPECT_NEAR(a.cell(2, 3), 0.9, 1e-12);
  EXPECT_FALSE(a.has_data(1, 0));
  EXPECT_EQ(a.bins(), 5);  // [0,2) touches bins 0-3; bin 4 is the empty edge
}

TEST(ServerGroup, HeatmapMergeRejectsMismatchedGeometry) {
  Heatmap a(4, 0.5), b(4, 0.25);
  EXPECT_DEATH(a.merge(b), "bin_seconds");
}

}  // namespace
}  // namespace vapro::core
