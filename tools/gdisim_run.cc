// gdisim_run — command-line front end for the canned scenarios.
//
//   gdisim_run --scenario consolidated --hours 24 --scale 0.1 --csv out.csv
//
// Options:
//   --scenario validation|consolidated|multimaster   (default consolidated)
//   --config FILE            load a scenario file instead (default scale 1.0)
//   --experiment 1|2|3       validation series frequencies (default 1)
//   --hours H                simulated horizon (default 24; validation: 0.65)
//   --scale S                population/hardware scale (default 0.1)
//   --threads N              H-Dispatch worker threads (default 0: inline)
//   --seed N                 run seed (default 42)
//   --csv PATH               dump every collector series as CSV
//   --dense-sweep            disable active-set scheduling (reference oracle)
//   --quiet                  suppress the summary tables
//   --fingerprint            print a 64-bit digest of all results
//   --validate               parse + build the scenario, report, and exit
//   --checkpoint PATH        write a snapshot at the end of the run
//   --checkpoint-every S     also snapshot every S simulated seconds
//   --restore PATH           start from a snapshot instead of t=0 (the
//                            scenario must be structurally identical;
//                            --hours remains the absolute horizon)
//
// Numeric values are checked: a malformed or out-of-range one (--threads -1,
// --hours abc, --scale 0) exits 2 with `FLAG: bad value 'VALUE'`, as does
// an unknown flag (with the usage text).
#include <algorithm>
#include <charconv>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "config/loader.h"
#include "core/audit.h"
#include "sim/fingerprint.h"
#include "sim/gdisim.h"

using namespace gdisim;

namespace {

// Upper bounds for numeric flags: far beyond any meaningful run, small
// enough that tick counts and thread pools stay representable.
constexpr double kMaxHours = 1e6;
constexpr double kMinScale = std::numeric_limits<double>::min();  // scale must be > 0
constexpr double kMaxScale = 1e6;
constexpr std::size_t kMaxThreads = 4096;

struct CliOptions {
  std::string scenario = "consolidated";
  std::string config_path;
  int experiment = 1;
  double hours = -1.0;
  double scale = 0.10;
  bool scale_set = false;
  std::size_t threads = 0;
  std::uint64_t seed = 42;
  std::string csv_path;
  bool dense_sweep = false;
  bool quiet = false;
  bool fingerprint = false;
  bool validate = false;
  std::string checkpoint_path;
  double checkpoint_every_s = 0.0;
  std::string restore_path;
};

[[noreturn]] void usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--scenario validation|consolidated|multimaster | --config FILE]\n"
               "       [--experiment N] [--hours H] [--scale S] [--threads N] [--seed N]\n"
               "       [--csv PATH] [--dense-sweep] [--quiet] [--fingerprint] [--validate]\n"
               "       [--checkpoint PATH] [--checkpoint-every S] [--restore PATH]\n";
  std::exit(2);
}

[[noreturn]] void bad_value(const char* argv0, const std::string& flag, const char* value) {
  std::cerr << argv0 << ": " << flag << ": bad value '" << value << "'\n";
  std::exit(2);
}

/// Checked numeric flag values: the whole token must parse and fall inside
/// [lo, hi]; anything else (empty, trailing text, sign on an unsigned,
/// out of range, NaN) stops the run with exit 2 instead of running with
/// garbage.
template <typename T>
T parse_number(const char* argv0, const std::string& flag, const char* value, T lo, T hi) {
  T v{};
  const char* end = value + std::strlen(value);
  const auto [ptr, ec] = std::from_chars(value, end, v);
  if (ec != std::errc{} || ptr != end || !(v >= lo && v <= hi)) {
    bad_value(argv0, flag, value);
  }
  return v;
}

CliOptions parse(int argc, char** argv) {
  CliOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--scenario") {
      opt.scenario = next();
    } else if (arg == "--config") {
      opt.config_path = next();
    } else if (arg == "--experiment") {
      opt.experiment = parse_number(argv[0], arg, next(), 1, 3);
    } else if (arg == "--hours") {
      opt.hours = parse_number(argv[0], arg, next(), 0.0, kMaxHours);
    } else if (arg == "--scale") {
      opt.scale = parse_number(argv[0], arg, next(), kMinScale, kMaxScale);
      opt.scale_set = true;
    } else if (arg == "--threads") {
      opt.threads = parse_number<std::size_t>(argv[0], arg, next(), 0, kMaxThreads);
    } else if (arg == "--seed") {
      opt.seed = parse_number(argv[0], arg, next(), std::uint64_t{0}, ~std::uint64_t{0});
    } else if (arg == "--csv") {
      opt.csv_path = next();
    } else if (arg == "--dense-sweep") {
      opt.dense_sweep = true;
    } else if (arg == "--quiet") {
      opt.quiet = true;
    } else if (arg == "--fingerprint") {
      opt.fingerprint = true;
    } else if (arg == "--validate") {
      opt.validate = true;
    } else if (arg == "--checkpoint") {
      opt.checkpoint_path = next();
    } else if (arg == "--checkpoint-every") {
      opt.checkpoint_every_s = parse_number(argv[0], arg, next(), 0.0, kMaxHours * 3600.0);
    } else if (arg == "--restore") {
      opt.restore_path = next();
    } else {
      usage(argv[0]);
    }
  }
  if (opt.config_path.empty() && opt.scenario != "validation" &&
      opt.scenario != "consolidated" && opt.scenario != "multimaster") {
    usage(argv[0]);
  }
  if (opt.hours < 0) opt.hours = opt.scenario == "validation" ? 38.0 / 60.0 : 24.0;
  if (!opt.config_path.empty() && !opt.scale_set) opt.scale = 1.0;
  return opt;
}

Scenario make_scenario(const CliOptions& opt) {
  // A config file describes the operator's real inventory, so it runs
  // unscaled unless --scale is given explicitly (parse() normalizes the
  // default to 1.0); the canned scenarios keep their 0.1 default.
  if (!opt.config_path.empty()) return load_scenario_file(opt.config_path, opt.scale);
  if (opt.scenario == "validation") {
    ValidationOptions v;
    v.experiment = opt.experiment;
    v.seed = opt.seed;
    v.stop_launch_s = opt.hours * 3600.0 - 3.0 * 60.0;
    return make_validation_scenario(v);
  }
  GlobalOptions g;
  g.scale = opt.scale;
  g.seed = opt.seed;
  return opt.scenario == "multimaster" ? make_multimaster_scenario(g)
                                       : make_consolidated_scenario(g);
}

void print_summary(GdiSimulator& sim, double horizon_s) {
  std::cout << "\nUtilization (mean over run / peak):\n";
  TableReport util({"resource", "mean", "peak"});
  Topology& topo = *sim.scenario().topology;
  for (DcId d = 0; d < topo.dc_count(); ++d) {
    for (unsigned k = 0; k < static_cast<unsigned>(TierKind::kCount); ++k) {
      const std::string label = "cpu/" + topo.dc(d).name() + "/" +
                                tier_kind_name(static_cast<TierKind>(k));
      const TimeSeries* s = sim.collector().find(label);
      if (s == nullptr || s->empty()) continue;
      util.add_row({label, TableReport::pct(s->mean_between(0, horizon_s)),
                    TableReport::pct(s->max_value())});
    }
  }
  for (DcId a = 0; a < topo.dc_count(); ++a) {
    for (DcId b = 0; b < topo.dc_count(); ++b) {
      if (topo.link(a, b) == nullptr) continue;
      const std::string label = "net/" + topo.dc(a).name() + "->" + topo.dc(b).name();
      const TimeSeries* s = sim.collector().find(label);
      if (s == nullptr || s->empty()) continue;
      util.add_row({label, TableReport::pct(s->mean_between(0, horizon_s)),
                    TableReport::pct(s->max_value())});
    }
  }
  util.print(std::cout);

  std::cout << "\nResponse times:\n";
  TableReport resp({"population", "operation", "count", "mean (s)", "max (s)"});
  for (auto& p : sim.scenario().populations) {
    for (const auto& [op, stats] : p->stats()) {
      resp.add_row({p->config().name, op, std::to_string(stats.count),
                    TableReport::fmt(stats.mean()), TableReport::fmt(stats.max_s)});
    }
  }
  for (auto& l : sim.scenario().launchers) {
    for (const auto& [op, stats] : l->stats()) {
      resp.add_row({l->name(), op, std::to_string(stats.count),
                    TableReport::fmt(stats.mean()), TableReport::fmt(stats.max_s)});
    }
  }
  resp.print(std::cout);

  for (auto& sr : sim.scenario().synchreps) {
    std::cout << "\n" << sr->name() << ": " << sr->ledger().runs().size()
              << " runs, R_SR^max = " << TableReport::fmt(sr->max_staleness_s() / 60.0)
              << " min";
  }
  for (auto& ib : sim.scenario().indexbuilds) {
    std::cout << "\n" << ib->name() << ": " << ib->ledger().runs().size()
              << " runs, R_IB^max = " << TableReport::fmt(ib->max_unsearchable_s() / 60.0)
              << " min";
  }
  std::cout << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const CliOptions opt = parse(argc, argv);

  if (opt.validate) {
    // Parse + build only: loader errors carry "<file>:<line>: ..." and the
    // offending token, so a bad config fails here with an editor-friendly
    // message instead of minutes into a run.
    try {
      Scenario scenario = make_scenario(opt);
      SimulatorConfig cfg;
      cfg.threads = 0;
      GdiSimulator sim(std::move(scenario), cfg);
      std::cout << "config OK: "
                << (opt.config_path.empty() ? opt.scenario : opt.config_path) << ": "
                << sim.loop().agent_count() << " agents, "
                << sim.scenario().populations.size() << " populations, "
                << sim.scenario().synchreps.size() << " synchreps, "
                << sim.scenario().indexbuilds.size() << " indexbuilds\n";
      return 0;
    } catch (const std::exception& e) {
      std::cerr << e.what() << "\n";
      return 1;
    }
  }

  std::cout << "GDISim: scenario="
            << (opt.config_path.empty() ? opt.scenario : opt.config_path) << " hours=" << opt.hours
            << " scale=" << opt.scale << " threads=" << opt.threads << " seed=" << opt.seed
            << "\n";

  Scenario scenario = make_scenario(opt);
  SimulatorConfig cfg;
  cfg.threads = opt.threads;
  cfg.collect_every_s = opt.scenario == "validation" ? 6.0 : 30.0;
  if (opt.dense_sweep) cfg.scheduler = SchedulerMode::kDenseSweep;
  GdiSimulator sim(std::move(scenario), cfg);

  if (!opt.restore_path.empty()) {
    try {
      sim.restore(opt.restore_path);
    } catch (const std::exception& e) {
      // restore() diagnostics are `path:byte N: why` (loader format);
      // surface them like a compile error instead of an uncaught throw.
      std::cerr << "gdisim_run: --restore failed\n" << e.what() << "\n";
      return 1;
    }
    std::cout << "restored " << opt.restore_path << " at t=" << format_sim_time(sim.now_seconds())
              << "\n";
  }

  // Absolute horizon: a restored run continues to the same end tick the
  // uninterrupted run would reach, so fingerprints stay comparable.
  const double horizon_s = opt.hours * 3600.0;
  if (!opt.checkpoint_path.empty() && opt.checkpoint_every_s > 0.0) {
    double next_cp = sim.now_seconds() + opt.checkpoint_every_s;
    while (next_cp < horizon_s) {
      sim.run_until_seconds(next_cp);
      sim.checkpoint(opt.checkpoint_path);
      next_cp += opt.checkpoint_every_s;
    }
  }
  sim.run_until_seconds(horizon_s);
  if (!opt.checkpoint_path.empty()) sim.checkpoint(opt.checkpoint_path);
  std::cout << "simulated " << format_sim_time(horizon_s) << " of operation ("
            << sim.loop().now() << " ticks, " << sim.loop().agent_count() << " agents)\n";
  const SchedulerStats& sched = sim.loop().scheduler_stats();
  std::cout << "scheduler: "
            << (sim.loop().scheduler_mode() == SchedulerMode::kActiveSet ? "active-set"
                                                                         : "dense-sweep")
            << ", mean active agents = " << TableReport::fmt(sched.mean_active())
            << " (occupancy " << TableReport::fmt(100.0 * sched.occupancy()) << "%)\n";
  if (const RouteCache* rc = sim.scenario().route_cache.get()) {
    std::cout << "route cache: " << rc->valid_template_count() << "/" << rc->template_count()
              << " templates, " << rc->hits() << "/" << (rc->hits() + rc->misses())
              << " stamped (hit rate " << TableReport::fmt(100.0 * rc->hit_rate())
              << "%), rebuilds " << rc->epoch() << "\n";
  }
  if (!opt.quiet && sim.loop().scheduler_mode() == SchedulerMode::kActiveSet) {
    std::vector<AgentId> order(sched.per_agent_runs.size());
    for (AgentId i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&sched](AgentId a, AgentId b) {
      return sched.per_agent_runs[a] > sched.per_agent_runs[b];
    });
    std::cout << "most-active agents (share of iterations):\n";
    for (std::size_t i = 0; i < order.size() && i < 12; ++i) {
      const AgentId id = order[i];
      std::cout << "  " << sim.loop().agent(id)->name() << "  "
                << TableReport::pct(static_cast<double>(sched.per_agent_runs[id]) /
                                    static_cast<double>(sched.iterations))
                << "\n";
    }
  }

  if (!opt.quiet) print_summary(sim, horizon_s);

  if (opt.fingerprint) {
    // Stable digest of the run's observable results. CI's determinism smoke
    // step (tools/ci.sh smoke) diffs this line between -j1 and -jN runs; any
    // mismatch is a thread-count-dependent divergence.
    std::cout << "fingerprint: " << std::hex << result_fingerprint(sim) << std::dec << "\n";
  }

#if GDISIM_AUDIT_ENABLED
  {
    const audit::Report r = audit::snapshot();
    std::cout << "audit: drain_hash=" << std::hex << r.drain_hash << std::dec
              << " failures=" << r.failures;
    for (unsigned c = 0; c < static_cast<unsigned>(audit::Category::kCount); ++c) {
      const auto cat = static_cast<audit::Category>(c);
      if (r.spawned[c] == 0) continue;
      std::cout << " " << audit::category_name(cat) << "=" << r.completed[c] << "/"
                << r.spawned[c];
    }
    std::cout << "\n";
  }
#endif

  if (!opt.csv_path.empty()) {
    std::ofstream out(opt.csv_path);
    if (!out) {
      std::cerr << "cannot open " << opt.csv_path << "\n";
      return 1;
    }
    std::vector<const TimeSeries*> series;
    for (std::size_t i = 0; i < sim.collector().probe_count(); ++i) {
      series.push_back(&sim.collector().series(i));
    }
    print_csv(out, series);
    std::cout << "wrote " << series.size() << " series to " << opt.csv_path << "\n";
  }
  return 0;
}
