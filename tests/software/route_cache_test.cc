// Route memoization (DESIGN.md §10): the cache must be invisible in results
// — bit-identical fingerprints with the cache wired and unwired, including
// across mid-run topology mutations (link failure/repair, server liveness)
// that force epoch invalidations — and invisible in snapshots: the table is
// ARCHIVE-TRANSIENT, so checkpoints taken with the cache wired restore
// cleanly into simulators whose context builds every route, and vice versa.
#include "software/route_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "config/scenarios.h"
#include "resilience/failure.h"
#include "sim/fingerprint.h"
#include "sim/gdisim.h"

namespace gdisim {
namespace {

/// `cached = false` unwires the cache from the operation context, so every
/// message builds its route (the reference path).
std::unique_ptr<GdiSimulator> make_consolidated(bool cached, std::size_t threads = 0) {
  GlobalOptions opt;
  opt.scale = 0.02;
  Scenario s = make_consolidated_scenario(opt);
  SimulatorConfig cfg;
  cfg.threads = threads;
  auto sim = std::make_unique<GdiSimulator>(std::move(s), cfg);
  if (!cached) sim->scenario().ctx->set_route_cache(nullptr);
  return sim;
}

/// The mid-run mutation schedule shared by the equivalence runs: fail the
/// NA->AS1 trunk onto the EU->AS1 backup, repair it, then bounce a server.
/// Every event funnels through compute_routes / set_server_alive and must
/// bump the route-cache epoch.
void schedule_failures(FailureInjector& injector, Topology& topo) {
  const DcId na = topo.find_dc("NA");
  const DcId eu = topo.find_dc("EU");
  const DcId as1 = topo.find_dc("AS1");
  injector.schedule(FailureEvent::link_down(300.0, na, as1));
  injector.schedule(FailureEvent::link_up(300.0, eu, as1));
  injector.schedule(FailureEvent::link_up(600.0, na, as1));
  injector.schedule(FailureEvent::link_down(600.0, eu, as1));
  injector.schedule(FailureEvent::server_down(900.0, na, TierKind::App, 0));
  injector.schedule(FailureEvent::server_up(1050.0, na, TierKind::App, 0));
}

std::uint64_t fingerprint_with_failures(bool cached, double horizon_s,
                                        const RouteCache** cache_out = nullptr,
                                        GdiSimulator** sim_out = nullptr,
                                        std::unique_ptr<GdiSimulator>* keep = nullptr) {
  auto sim = make_consolidated(cached);
  FailureInjector injector(*sim->scenario().topology);
  schedule_failures(injector, *sim->scenario().topology);
  injector.install(sim->loop());
  sim->run_until_seconds(horizon_s);
  EXPECT_EQ(injector.pending(), 0u);
  if (cache_out != nullptr) *cache_out = sim->scenario().route_cache.get();
  if (sim_out != nullptr) *sim_out = sim.get();
  const std::uint64_t fp = result_fingerprint(*sim);
  if (keep != nullptr) *keep = std::move(sim);
  return fp;
}

TEST(RouteCacheInvalidation, FailureRepairMidRunBitIdentical) {
  const double horizon_s = 1500.0;
  const RouteCache* cache = nullptr;
  std::unique_ptr<GdiSimulator> keep;
  const std::uint64_t cached_fp =
      fingerprint_with_failures(/*cached=*/true, horizon_s, &cache, nullptr, &keep);
  const std::uint64_t uncached_fp = fingerprint_with_failures(/*cached=*/false, horizon_s);
  EXPECT_EQ(cached_fp, uncached_fp)
      << "route cache changed results across link failure/repair + server bounce";

  ASSERT_NE(cache, nullptr);
  // Six mutations, each a compute_routes or set_server_alive, each bumping
  // the epoch past the construction-time build (epoch 1).
  EXPECT_GE(cache->epoch(), 7u);
  EXPECT_GT(cache->hits(), 0u);
  // Rebuilds are eager (same pre-tick hook as the mutation), so messages
  // never observe a torn table and the hit rate stays above the gate.
  EXPECT_GE(cache->hit_rate(), 0.95);
  EXPECT_GT(cache->valid_template_count(), 0u);
}

/// Workers stamping routes bump the same two counters concurrently; no
/// increment may be lost.
TEST(RouteCacheCounters, ConcurrentBumpsAreExact) {
  auto sim = make_consolidated(/*cached=*/true);
  const RouteCache& cache = *sim->scenario().route_cache;
  constexpr std::uint64_t kPerThread = 1000000;
  std::atomic<int> ready{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 3; ++t) {
    workers.emplace_back([&cache, &ready, t] {
      ready.fetch_add(1);
      while (ready.load() < 3) std::this_thread::yield();  // start together
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        if (t == 0) {
          cache.count_miss();
        } else {
          cache.count_hit();
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(cache.hits(), 2 * kPerThread);
  EXPECT_EQ(cache.misses(), kPerThread);
}

/// The same lookups happen inline and on three workers, so the counts match.
TEST(RouteCacheCounters, ThreadedLookupsEqualInline) {
  const double horizon_s = 1800.0;
  auto inline_sim = make_consolidated(/*cached=*/true, /*threads=*/0);
  auto threaded_sim = make_consolidated(/*cached=*/true, /*threads=*/3);
  inline_sim->run_until_seconds(horizon_s);
  threaded_sim->run_until_seconds(horizon_s);
  const RouteCache& a = *inline_sim->scenario().route_cache;
  const RouteCache& b = *threaded_sim->scenario().route_cache;
  ASSERT_GT(a.hits(), 0u);
  EXPECT_EQ(a.hits(), b.hits());
  EXPECT_EQ(a.misses(), b.misses());
  EXPECT_EQ(result_fingerprint(*inline_sim), result_fingerprint(*threaded_sim));
}

/// Checkpoint/restore with the cache on both sides: the restored run must
/// reproduce the uninterrupted fingerprint, and the restored cache must be
/// freshly rebuilt (restore funnels through compute_routes).
TEST(RouteCacheSnapshot, RoundTripMatchesUninterrupted) {
  const double t1 = 600.0, t2 = 1200.0;
  auto whole = make_consolidated(/*cached=*/true);
  whole->run_until_seconds(t2);
  const std::uint64_t want = result_fingerprint(*whole);

  auto warm = make_consolidated(/*cached=*/true);
  warm->run_until_seconds(t1);
  const std::string snap = std::string(::testing::TempDir()) + "route_cache_rt.gdisnap";
  warm->checkpoint(snap);

  auto resumed = make_consolidated(/*cached=*/true);
  resumed->restore(snap);
  const RouteCache* cache = resumed->scenario().route_cache.get();
  ASSERT_NE(cache, nullptr);
  EXPECT_GT(cache->valid_template_count(), 0u);
  resumed->run_until_seconds(t2);
  EXPECT_EQ(result_fingerprint(*resumed), want);
  std::remove(snap.c_str());
}

/// The cache is ARCHIVE-TRANSIENT: a snapshot saved with it wired restores
/// into a simulator with it unwired (and vice versa) with the same result,
/// so no cache state can have leaked into the archive.
TEST(RouteCacheSnapshot, TransientAcrossCacheConfigurations) {
  const double t1 = 600.0, t2 = 1200.0;
  auto whole = make_consolidated(/*cached=*/false);
  whole->run_until_seconds(t2);
  const std::uint64_t want = result_fingerprint(*whole);

  for (const bool save_cached : {true, false}) {
    auto warm = make_consolidated(save_cached);
    warm->run_until_seconds(t1);
    const std::string snap = std::string(::testing::TempDir()) + "route_cache_x.gdisnap";
    warm->checkpoint(snap);

    auto resumed = make_consolidated(!save_cached);
    resumed->restore(snap);
    resumed->run_until_seconds(t2);
    EXPECT_EQ(result_fingerprint(*resumed), want)
        << "saved cached=" << save_cached << ", restored cached=" << !save_cached;
    std::remove(snap.c_str());
  }
}

}  // namespace
}  // namespace gdisim
