// The per-message fast path (DESIGN.md §10) has no switch: route memoization
// and inbox post batching are always wired, and wake coalescing is how a
// population sleeps. Their reference paths stay reachable by unwiring — the
// operation context without a route cache builds every route, and a loop
// without batch hooks settles every post at once — and must reproduce the
// default run's fingerprint bit for bit, inline, on workers and under the
// dense-sweep scheduler.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>

#include "config/scenarios.h"
#include "sim/fingerprint.h"
#include "sim/gdisim.h"

namespace gdisim {
namespace {

/// `gdisim_run --scenario consolidated --scale 0.05 --hours 1 --fingerprint`.
constexpr std::uint64_t kConsolidatedHour = 0x735311b9c3a7c76full;

struct Variant {
  const char* name;
  bool route_cache;
  bool batch_hooks;
  SchedulerMode scheduler = SchedulerMode::kActiveSet;
  std::size_t threads = 0;
};

std::uint64_t run(const Variant& v) {
  GlobalOptions opt;
  opt.scale = 0.05;
  SimulatorConfig cfg;
  cfg.collect_every_s = 30.0;  // gdisim_run's period for the global scenarios
  cfg.threads = v.threads;
  cfg.scheduler = v.scheduler;
  GdiSimulator sim(make_consolidated_scenario(opt), cfg);
  if (!v.route_cache) sim.scenario().ctx->set_route_cache(nullptr);
  if (!v.batch_hooks) sim.loop().set_post_batch_hooks(nullptr, nullptr, nullptr);
  sim.run_until_seconds(3600.0);
  return result_fingerprint(sim);
}

TEST(FastPath, ReferencePathsReproduceDefault) {
  const Variant variants[] = {
      {"default", true, true},
      {"route cache unwired", false, true},
      {"batch hooks cleared", true, false},
      {"both", false, false},
      {"both, dense sweep", false, false, SchedulerMode::kDenseSweep},
      {"batch hooks cleared, 2 workers", true, false, SchedulerMode::kActiveSet, 2},
  };
  for (const Variant& v : variants) {
    char hex[20];
    const std::uint64_t fp = run(v);
    std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(fp));
    EXPECT_EQ(fp, kConsolidatedHour) << v.name << ": fingerprint " << hex;
  }
}

}  // namespace
}  // namespace gdisim
