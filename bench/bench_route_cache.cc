// Route memoization microbench (DESIGN.md §10 "Per-message fast path").
//
// Runs the consolidated scenario twice — route cache wired, then unwired
// from the operation context so every message builds its route — and
// reports the cache hit rate, the template population, and the per-route
// build-vs-stamp cost implied by the wall-clock difference. Both runs must
// produce the same fingerprint: the cache is an encoding of the reference
// builder, not an approximation of it.
#include "bench_util.h"
#include "sim/fingerprint.h"
#include "software/route_cache.h"

using namespace gdisim;

namespace {

struct RunResult {
  double wall_seconds = 0.0;
  std::uint64_t fingerprint = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::size_t templates = 0;
  std::size_t valid_templates = 0;
};

RunResult run_once(double hours, double scale, bool cached) {
  GlobalOptions opt;
  opt.scale = scale;
  Scenario scenario = make_consolidated_scenario(opt);
  SimulatorConfig cfg;
  cfg.collect_every_s = 60.0;
  cfg.threads = bench::bench_threads();
  GdiSimulator sim(std::move(scenario), cfg);
  if (!cached) sim.scenario().ctx->set_route_cache(nullptr);

  bench::Stopwatch sw;
  sim.run_for(hours * 3600.0);
  RunResult r;
  r.wall_seconds = sw.seconds();
  r.fingerprint = result_fingerprint(sim);
  if (const RouteCache* rc = sim.scenario().ctx->route_cache()) {
    r.hits = rc->hits();
    r.misses = rc->misses();
    r.templates = rc->template_count();
    r.valid_templates = rc->valid_template_count();
  }
  return r;
}

}  // namespace

int main() {
  bench::header("Route memoization: hit rate and build-vs-stamp cost",
                "DESIGN.md §10 (per-message fast path); acceptance gate of ISSUE 10");
  const double hours = bench::fast_mode() ? 1.0 : 4.0;
  const double scale = bench::fast_mode() ? 0.05 : 0.10;

  const RunResult cached = run_once(hours, scale, /*cached=*/true);
  const RunResult uncached = run_once(hours, scale, /*cached=*/false);

  const double total = static_cast<double>(cached.hits + cached.misses);
  const double hit_rate = total > 0.0 ? static_cast<double>(cached.hits) / total : 0.0;
  // The two runs route the same messages, so the wall-clock delta divided by
  // the stamped-route count bounds the per-route build-minus-stamp saving.
  // Host noise can push the delta negative; it is reported as measured.
  const double delta_ns_per_route =
      total > 0.0 ? (uncached.wall_seconds - cached.wall_seconds) * 1e9 / total : 0.0;

  TableReport t({"config", "wall (s)", "routes", "hit rate", "fingerprint"});
  auto hex = [](std::uint64_t v) {
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
    return std::string(buf);
  };
  t.add_row({"route cache on", TableReport::fmt(cached.wall_seconds),
             TableReport::fmt(total, 0), TableReport::pct(hit_rate), hex(cached.fingerprint)});
  t.add_row({"route cache off", TableReport::fmt(uncached.wall_seconds),
             TableReport::fmt(total, 0), "-", hex(uncached.fingerprint)});
  t.print(std::cout);

  std::cout << "\ntemplates: " << cached.valid_templates << "/" << cached.templates
            << " valid, stamped " << cached.hits << "/" << (cached.hits + cached.misses)
            << " routes (hit rate " << TableReport::pct(hit_rate) << ")\n"
            << "build-vs-stamp: " << TableReport::fmt(delta_ns_per_route)
            << " ns/route saved (single-run wall-clock delta; noisy hosts can "
               "drive this negative)\n"
            << "fingerprints " << (cached.fingerprint == uncached.fingerprint ? "match" : "DIFFER")
            << "\n";

  bench::JsonResult json("route_cache");
  json.set("scenario", "consolidated");
  json.set("hours", hours);
  json.set("scale", scale);
  json.set("routes", total);
  json.set("hits", static_cast<double>(cached.hits));
  json.set("misses", static_cast<double>(cached.misses));
  json.set("hit_rate", hit_rate);
  json.set("templates", static_cast<double>(cached.templates));
  json.set("valid_templates", static_cast<double>(cached.valid_templates));
  json.set("cached_wall_seconds", cached.wall_seconds);
  json.set("uncached_wall_seconds", uncached.wall_seconds);
  json.set("build_vs_stamp_ns_per_route", delta_ns_per_route);
  json.set("fingerprint_match", cached.fingerprint == uncached.fingerprint ? 1.0 : 0.0);
  json.write();

  if (cached.fingerprint != uncached.fingerprint) {
    std::cerr << "bench_route_cache: FINGERPRINT MISMATCH — the cache changed results\n";
    return 1;
  }
  if (hit_rate < 0.95) {
    std::cerr << "bench_route_cache: hit rate " << hit_rate << " below the 0.95 gate\n";
    return 1;
  }
  bench::footnote(
      "The stamp replays the cached template through the same RNG draws and "
      "instant-bypass decisions as the reference builder, so the speedup is "
      "pure resolution elision; equivalence is enforced, not assumed.");
  return 0;
}
