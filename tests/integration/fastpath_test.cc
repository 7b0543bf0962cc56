// The per-message fast path (DESIGN.md §10) has no switch: route memoization
// is always wired, and wake coalescing is how a population sleeps. The
// uncached reference path stays reachable by unwiring — the operation
// context without a route cache builds every route — and must reproduce the
// default run's fingerprint bit for bit, inline and under the dense-sweep
// scheduler. The 2-worker run pins the locked inbox post path, which carries
// every post whenever the engine is not serial.
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
  sim.run_until_seconds(3600.0);
  return result_fingerprint(sim);
}

TEST(FastPath, ReferencePathsReproduceDefault) {
  const Variant variants[] = {
      {"default", true},
      {"route cache unwired", false},
      {"route cache unwired, dense sweep", false, SchedulerMode::kDenseSweep},
      {"default, 2 workers", true, SchedulerMode::kActiveSet, 2},
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
