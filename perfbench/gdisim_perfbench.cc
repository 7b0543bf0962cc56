// gdisim_perfbench: the end-to-end and per-layer performance benchmark.
//
//   gdisim_perfbench --workload consolidated_day --seed 42 --seconds 30 --trace 0
//
// A workload is one of the thesis' global scenarios at scale 1.0, simulated
// from 00:00 GMT for --hours simulated hours (default 2) on a given engine.
// One *episode* builds the scenario from --seed, constructs a GdiSimulator,
// simulates the horizon, takes the result fingerprint, and round-trips the
// end-of-horizon state through save_state/load_state into a fresh simulator
// built from the same seed. The benchmark repeats episodes while the next one
// is expected to end within --seconds of host time, and reports medians.
//
// Everything is measured from outside the simulator: host time around the
// public calls, getrusage for CPU time and peak memory, and exact work counts
// read from public accessors after a run (scheduler statistics, per-agent
// runs summed by agent type, population and daemon ledgers, route-cache
// counters). Nothing in src/ is instrumented. Run times are also reported in
// units of a fixed reference kernel timed between chunks of the run (see
// ReferenceKernel), which cancels most of a shared host's speed drift.
//
// --trace 0 runs untraced episodes only (end-to-end metrics). --trace 1
// alternates untraced and traced episodes: a traced episode drives
// SimulationLoop::step() itself — exactly the loop run_until() runs — and
// records spans (setup.config, setup.construct, one per simulated hour,
// fingerprint, snapshot.save, snapshot.load) and a histogram of host time per
// step, split by whether the step fired a metrics collection. Per-layer times
// come from the traced episodes; the traced-minus-untraced difference is the
// tracing overhead.
//
// Output checks (a failed check or a throw fails the episode): the
// fingerprint matches the pin for seed 42 where one exists; every episode of
// a run, traced or not, yields the same fingerprint and the same exact work
// counts; the parallel workload agrees with an inline reference episode; the
// restored simulator reproduces the fingerprint.
//
// The last stdout line is one JSON object: correct, attempted, failed and
// metrics (name -> {value, unit}). --report writes the full run report
// (stamp, every metric, checks, spans) as JSON.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "background/indexbuild.h"
#include "background/synchrep.h"
#include "config/scenarios.h"
#include "hardware/cpu.h"
#include "hardware/delay.h"
#include "hardware/link.h"
#include "hardware/network_switch.h"
#include "hardware/nic.h"
#include "hardware/raid.h"
#include "hardware/san.h"
#include "sim/fingerprint.h"
#include "sim/gdisim.h"
#include "software/client.h"
#include "software/route_cache.h"

namespace {

using gdisim::GdiSimulator;
using gdisim::Scenario;
using gdisim::SimulationLoop;
using gdisim::Tick;
using Clock = std::chrono::steady_clock;

constexpr int kDefaultHours = 2;
constexpr int kSetupWarmups = 10;
constexpr int kSetupsPerEpisode = 8;

// ---------------------------------------------------------------------------
// Workloads and fingerprint pins.

struct Workload {
  const char* name;
  bool multimaster;
  bool parallel;  ///< H-Dispatch engine with nproc - 1 workers, else inline
};

constexpr Workload kWorkloads[] = {
    {"consolidated_day", false, false},
    {"multimaster_day", true, false},
    {"consolidated_parallel", false, true},
};

/// Fingerprints of seed 42 at scale 1.0, by scenario and horizon. Identical
/// for every engine and thread count.
struct Pin {
  bool multimaster;
  int hours;
  std::uint64_t fingerprint;
};

constexpr Pin kPins[] = {
    {false, 2, 0xa5384510cc18dfddull},
    {true, 2, 0x06a2281f6864f71bull},
    {false, 24, 0x75c908d62f767881ull},
    {true, 24, 0x48e5dde329e3fbc1ull},
};

const Pin* find_pin(bool multimaster, int hours, std::uint64_t seed) {
  if (seed != 42) return nullptr;
  for (const Pin& p : kPins) {
    if (p.multimaster == multimaster && p.hours == hours) return &p;
  }
  return nullptr;
}

std::size_t parallel_workers() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 2 ? hw - 1 : 1;
}

// ---------------------------------------------------------------------------
// Host measurements.

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile of per-step host times, in microseconds.
double percentile_us(std::vector<std::uint32_t>& ns, double q) {
  if (ns.empty()) return 0.0;
  const std::size_t k = std::min(
      ns.size() - 1, static_cast<std::size_t>(std::ceil(q * static_cast<double>(ns.size()))) - 1);
  std::nth_element(ns.begin(), ns.begin() + static_cast<std::ptrdiff_t>(k), ns.end());
  return 1e-3 * static_cast<double>(ns[k]);
}

// ---------------------------------------------------------------------------
// Reference kernel.
//
// On a shared host the simulator's speed drifts by 20-40% over seconds to
// minutes while cache-missing or ALU-bound loops barely move; the drift
// follows contention for the core's front end and L2 (e.g. from a busy SMT
// sibling). This fixed, branchy, L2-resident loop slows down with the
// simulator, so an untraced episode times one short slice of it before every
// chunk of simulated time, and the end-to-end times are reported as
// multiples of the mean slice (unit `ref`) next to the raw seconds. The
// kernel is part of the benchmark: a change to the simulator cannot move it.

class ReferenceKernel {
 public:
  ReferenceKernel() : table_(1u << 16), bytes_(1u << 16) {
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (std::uint8_t& b : bytes_) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      b = static_cast<std::uint8_t>(x);
    }
  }

  /// One slice (about 15 ms on a 2 GHz Xeon); returns its host seconds.
  double slice() {
    const Clock::time_point t0 = Clock::now();
    const std::size_t mask = table_.size() - 1;
    std::uint64_t a = 1, b = 2, c = 3, d = 4;
    std::uint32_t h = 0;
    for (int rep = 0; rep < 20; ++rep) {
      for (std::size_t i = 0; i < bytes_.size(); ++i) {
        const std::uint8_t v = bytes_[i];
        if (v & 1) a += v * 3u; else b ^= v;
        if (v & 2) c += a >> 3; else d += b;
        h = table_[(h ^ v) & mask] + v;
        table_[(h + i) & mask] += 1;
      }
    }
    sink_ += a + b + c + d + h;
    return seconds_between(t0, Clock::now());
  }

 private:
  std::vector<std::uint32_t> table_;
  std::vector<std::uint8_t> bytes_;
  std::uint64_t sink_ = 0;  // keeps the loop's results live
};

/// One reference slice per this many simulated seconds of an episode.
constexpr double kRefSliceEveryS = 600.0;

// ---------------------------------------------------------------------------
// Exact work counts, read from public accessors after a run.

enum StationKind { kCpu, kNic, kSwitch, kLink, kRaid, kSan, kDelay, kStationKinds };
constexpr const char* kStationNames[kStationKinds] = {"cpu",  "nic", "switch", "link",
                                                      "raid", "san", "delay"};

struct Counts {
  std::uint64_t iterations = 0;
  std::uint64_t agent_phase_runs = 0;
  std::uint64_t station_runs[kStationKinds] = {};
  std::uint64_t software_agent_runs = 0;
  std::uint64_t background_agent_runs = 0;
  std::uint64_t other_agent_runs = 0;
  std::uint64_t ops_completed = 0;
  std::uint64_t synchrep_runs = 0;
  std::uint64_t indexbuild_runs = 0;
  // Best-effort shared atomics in the simulator: not exact under workers.
  std::uint64_t route_cache_hits = 0;
  std::uint64_t route_cache_misses = 0;

  /// Every count the simulator keeps exactly (all but the route cache's).
  std::vector<std::pair<std::string, std::uint64_t>> exact() const {
    std::vector<std::pair<std::string, std::uint64_t>> out = {
        {"core.iterations", iterations},
        {"core.agent_phase_runs", agent_phase_runs},
        {"core.agent_runs.other", other_agent_runs},
        {"software.agent_runs", software_agent_runs},
        {"software.ops_completed", ops_completed},
        {"background.agent_runs", background_agent_runs},
        {"background.synchrep_runs", synchrep_runs},
        {"background.indexbuild_runs", indexbuild_runs},
    };
    for (int k = 0; k < kStationKinds; ++k) {
      out.emplace_back(std::string("hardware.station_runs.") + kStationNames[k],
                       station_runs[k]);
    }
    return out;
  }
};

int station_kind(gdisim::Agent* a) {
  if (dynamic_cast<gdisim::CpuComponent*>(a) != nullptr) return kCpu;
  if (dynamic_cast<gdisim::NicComponent*>(a) != nullptr) return kNic;
  if (dynamic_cast<gdisim::SwitchComponent*>(a) != nullptr) return kSwitch;
  if (dynamic_cast<gdisim::LinkComponent*>(a) != nullptr) return kLink;
  if (dynamic_cast<gdisim::RaidComponent*>(a) != nullptr) return kRaid;
  if (dynamic_cast<gdisim::SanComponent*>(a) != nullptr) return kSan;
  if (dynamic_cast<gdisim::DelayComponent*>(a) != nullptr) return kDelay;
  return -1;
}

Counts read_counts(GdiSimulator& sim) {
  Counts c;
  SimulationLoop& loop = sim.loop();
  const gdisim::SchedulerStats& st = loop.scheduler_stats();
  c.iterations = st.iterations;
  c.agent_phase_runs = st.agent_phase_runs;
  for (gdisim::AgentId id = 0; id < loop.agent_count(); ++id) {
    gdisim::Agent* a = loop.agent(id);
    const std::uint64_t runs = id < st.per_agent_runs.size() ? st.per_agent_runs[id] : 0;
    if (const int k = station_kind(a); k >= 0) {
      c.station_runs[k] += runs;
    } else if (dynamic_cast<gdisim::ClientPopulation*>(a) != nullptr ||
               dynamic_cast<gdisim::SeriesLauncher*>(a) != nullptr) {
      c.software_agent_runs += runs;
    } else if (dynamic_cast<gdisim::BackgroundDaemon*>(a) != nullptr) {
      c.background_agent_runs += runs;
    } else {
      c.other_agent_runs += runs;
    }
  }
  Scenario& sc = sim.scenario();
  for (const auto& p : sc.populations) c.ops_completed += p->completed_operations();
  for (const auto& l : sc.launchers) c.ops_completed += l->series_completed();
  for (const auto& d : sc.synchreps) c.synchrep_runs += d->stats().count;
  for (const auto& d : sc.indexbuilds) c.indexbuild_runs += d->stats().count;
  if (const gdisim::RouteCache* rc = sc.route_cache.get()) {
    c.route_cache_hits = rc->hits();
    c.route_cache_misses = rc->misses();
  }
  return c;
}

// ---------------------------------------------------------------------------
// Spans, kept in memory and written with the report.

struct Span {
  std::string name;
  int episode;
  double start_s;  ///< since process start
  double end_s;
};

class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}
  void add(std::string name, int episode, Clock::time_point a, Clock::time_point b) {
    spans_.push_back({std::move(name), episode, seconds_between(origin_, a),
                      seconds_between(origin_, b)});
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// One episode.

struct Episode {
  int id = 0;
  bool traced = false;
  bool reference = false;  ///< inline reference episode of a parallel workload
  std::size_t threads = 0;
  double config_s = 0.0;     ///< scenario factory
  double construct_s = 0.0;  ///< GdiSimulator constructor
  double run_wall_s = 0.0;
  double run_cpu_s = 0.0;
  double ref_slice_s = 0.0;  ///< mean reference slice (untraced episodes)
  double fingerprint_s = 0.0;
  double save_s = 0.0;
  double load_s = 0.0;
  std::size_t snapshot_bytes = 0;
  std::uint64_t fingerprint = 0;
  std::uint64_t restored_fingerprint = 0;
  Counts counts;
  // Traced episodes only.
  std::vector<double> hour_s;  ///< host seconds per simulated hour
  double other_s = 0.0;        ///< traced run time outside the hourly spans
  double step_p50_us = 0.0;
  double step_p99_us = 0.0;
  double collect_step_p50_us = 0.0;
  std::size_t steps = 0;
  std::size_t collect_steps = 0;
  std::vector<std::string> errors;
};

struct RunSpec {
  const Workload* workload;
  std::uint64_t seed;
  int hours;
};

Scenario make_scenario(const RunSpec& spec) {
  gdisim::GlobalOptions g;
  g.scale = 1.0;
  g.seed = spec.seed;
  return spec.workload->multimaster ? gdisim::make_multimaster_scenario(g)
                                    : gdisim::make_consolidated_scenario(g);
}

gdisim::SimulatorConfig sim_config(std::size_t threads) {
  gdisim::SimulatorConfig cfg;
  cfg.threads = threads;
  cfg.collect_every_s = 30.0;  // gdisim_run's sampling period for the global scenarios
  return cfg;
}

/// Host nanoseconds of every step of a traced run, split by whether the step
/// fired a metrics collection.
struct StepTimes {
  std::vector<std::uint32_t> plain_ns;
  std::vector<std::uint32_t> collect_ns;
};

/// Drives step() over [now, end) and records one span per simulated hour,
/// each from the first step's start to the last step's end.
StepTimes traced_run(GdiSimulator& sim, Tick end, int id, Tracer& tracer, Episode& e) {
  SimulationLoop& loop = sim.loop();
  const Tick per_hour = loop.clock().to_ticks(3600.0);
  const Tick collect_every = loop.config().collect_every;
  StepTimes times;
  times.plain_ns.reserve(static_cast<std::size_t>(end - loop.now()));

  Clock::time_point hour_start;
  bool hour_open = false;
  while (loop.now() < end) {
    const Tick t = loop.now();
    const bool collects = collect_every > 0 && (t + 1) % collect_every == 0;
    const Clock::time_point s0 = Clock::now();
    if (!hour_open) {
      hour_start = s0;
      hour_open = true;
    }
    loop.step();
    const Clock::time_point s1 = Clock::now();
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(s1 - s0).count();
    (collects ? times.collect_ns : times.plain_ns)
        .push_back(static_cast<std::uint32_t>(std::min<long long>(ns, UINT32_MAX)));
    if (loop.now() % per_hour == 0 || loop.now() == end) {
      e.hour_s.push_back(seconds_between(hour_start, s1));
      tracer.add("hour." + std::to_string(e.hour_s.size() - 1), id, hour_start, s1);
      hour_open = false;
    }
  }
  return times;
}

Episode run_episode(const RunSpec& spec, std::size_t threads, bool traced, int id,
                    Tracer& tracer, ReferenceKernel& kernel) {
  Episode e;
  e.id = id;
  e.traced = traced;
  e.threads = threads;
  try {
    const Clock::time_point t0 = Clock::now();
    Scenario scenario = make_scenario(spec);
    const Clock::time_point t1 = Clock::now();
    GdiSimulator sim(std::move(scenario), sim_config(threads));
    const Clock::time_point t2 = Clock::now();
    e.config_s = seconds_between(t0, t1);
    e.construct_s = seconds_between(t1, t2);
    if (traced) {
      tracer.add("setup.config", id, t0, t1);
      tracer.add("setup.construct", id, t1, t2);
    }

    const double horizon_s = 3600.0 * spec.hours;
    const Tick end = sim.loop().clock().to_ticks(horizon_s);
    const double cpu0 = process_cpu_s();
    const Clock::time_point r0 = Clock::now();
    if (traced) {
      StepTimes times = traced_run(sim, end, id, tracer, e);
      const Clock::time_point r1 = Clock::now();
      e.run_cpu_s = process_cpu_s() - cpu0;
      e.run_wall_s = seconds_between(r0, r1);
      tracer.add("run", id, r0, r1);
      e.other_s = e.run_wall_s;
      for (double h : e.hour_s) e.other_s -= h;
      e.steps = times.plain_ns.size() + times.collect_ns.size();
      e.collect_steps = times.collect_ns.size();
      e.step_p50_us = percentile_us(times.plain_ns, 0.50);
      e.step_p99_us = percentile_us(times.plain_ns, 0.99);
      e.collect_step_p50_us = percentile_us(times.collect_ns, 0.50);
    } else {
      // run_until_seconds in chunks is the same loop of step() as one call;
      // only the chunks are timed, not the reference slices between them.
      const int chunks = static_cast<int>(std::ceil(horizon_s / kRefSliceEveryS));
      double ref_s = 0.0;
      for (int k = 1; k <= chunks; ++k) {
        ref_s += kernel.slice();
        const double c0 = process_cpu_s();
        const Clock::time_point w0 = Clock::now();
        sim.run_until_seconds(std::min(horizon_s, k * kRefSliceEveryS));
        e.run_wall_s += seconds_between(w0, Clock::now());
        e.run_cpu_s += process_cpu_s() - c0;
      }
      e.ref_slice_s = ref_s / chunks;
    }

    const Clock::time_point f0 = Clock::now();
    e.fingerprint = gdisim::result_fingerprint(sim);
    const Clock::time_point f1 = Clock::now();
    const std::vector<std::uint8_t> payload = sim.save_state();
    const Clock::time_point f2 = Clock::now();
    e.fingerprint_s = seconds_between(f0, f1);
    e.save_s = seconds_between(f1, f2);
    e.snapshot_bytes = payload.size();
    e.counts = read_counts(sim);
    if (traced) {
      tracer.add("fingerprint", id, f0, f1);
      tracer.add("snapshot.save", id, f1, f2);
    }

    GdiSimulator restored(make_scenario(spec), sim_config(threads));
    const Clock::time_point l1 = Clock::now();
    restored.load_state(payload);
    const Clock::time_point l2 = Clock::now();
    e.load_s = seconds_between(l1, l2);
    if (traced) tracer.add("snapshot.load", id, l1, l2);
    e.restored_fingerprint = gdisim::result_fingerprint(restored);
    if (e.restored_fingerprint != e.fingerprint) {
      e.errors.push_back("restored state does not reproduce the fingerprint");
    }
    if (sim.loop().now() != end) e.errors.push_back("run stopped before the horizon");
  } catch (const std::exception& ex) {
    e.errors.push_back(std::string("threw: ") + ex.what());
  }
  return e;
}

// ---------------------------------------------------------------------------
// Output.

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", ch);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  bool integral;
};

class MetricSet {
 public:
  void add(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit), false});
  }
  void count(std::string name, std::uint64_t value, std::string unit = "count") {
    metrics_.push_back({std::move(name), static_cast<double>(value), std::move(unit), true});
  }
  void print(std::ostream& os) const {
    for (const Metric& m : metrics_) {
      os << "  " << m.name << " = " << value_text(m) << " " << m.unit << "\n";
    }
  }
  std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      out += (i ? ", " : "") + json_string(m.name) + ": {\"value\": " + value_text(m) +
             ", \"unit\": " + json_string(m.unit) + "}";
    }
    return out + "}";
  }

 private:
  static std::string value_text(const Metric& m) {
    if (m.integral) return std::to_string(static_cast<std::uint64_t>(m.value));
    return json_number(m.value);
  }
  std::vector<Metric> metrics_;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  int trace = 0;
  int hours = kDefaultHours;
  std::string report;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

[[noreturn]] void usage(const char* argv0, const std::string& why) {
  std::cerr << argv0 << ": " << why << "\n"
            << "usage: " << argv0
            << " --workload NAME --seed N --seconds S --trace 0|1 [--hours H]\n"
               "       [--report PATH] [--commit SHA] [--source-digest HEX]\n"
               "workloads:";
  for (const Workload& w : kWorkloads) std::cerr << " " << w.name;
  std::cerr << "\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(argv[0], "missing value for " + arg);
    const std::string val = argv[++i];
    char* rest = nullptr;
    if (arg == "--workload") {
      o.workload = val;
      have_workload = true;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(val.c_str(), &rest, 10);
      if (val.empty() || val[0] == '-' || *rest != '\0') usage(argv[0], "bad --seed " + val);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(val.c_str(), &rest);
      if (*rest != '\0' || !(o.seconds > 0.0)) usage(argv[0], "bad --seconds " + val);
    } else if (arg == "--trace") {
      if (val != "0" && val != "1") usage(argv[0], "--trace takes 0 or 1");
      o.trace = val == "1" ? 1 : 0;
    } else if (arg == "--hours") {
      const long h = std::strtol(val.c_str(), &rest, 10);
      if (*rest != '\0' || h < 1 || h > 24) usage(argv[0], "--hours takes 1..24");
      o.hours = static_cast<int>(h);
    } else if (arg == "--report") {
      o.report = val;
    } else if (arg == "--commit") {
      o.commit = val;
    } else if (arg == "--source-digest") {
      o.source_digest = val;
    } else {
      usage(argv[0], "unknown flag " + arg);
    }
  }
  if (!have_workload) usage(argv[0], "--workload is required");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Clock::time_point origin = Clock::now();
  const Options opt = parse(argc, argv);
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (opt.workload == w.name) workload = &w;
  }
  if (workload == nullptr) usage(argv[0], "unknown workload " + opt.workload);
  const RunSpec spec{workload, opt.seed, opt.hours};
  const std::size_t threads = workload->parallel ? parallel_workers() : 0;
  Tracer tracer(origin);
  ReferenceKernel kernel;

  // Run stamp: every number below is only meaningful with these.
  std::ostringstream stamp;
  stamp << "{\"workload\": " << json_string(workload->name) << ", \"seed\": " << opt.seed
        << ", \"horizon_h\": " << opt.hours << ", \"scale\": 1.0"
        << ", \"engine_threads\": " << threads
        << ", \"host_cores\": " << std::thread::hardware_concurrency()
        << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
        << ", \"cxx_flags\": " << json_string(PERFBENCH_CXX_FLAGS)
        << ", \"compiler\": " << json_string(PERFBENCH_COMPILER)
        << ", \"commit\": " << json_string(opt.commit)
        << ", \"source_digest\": " << json_string(opt.source_digest)
        << ", \"trace\": " << opt.trace << ", \"seconds\": " << json_number(opt.seconds) << "}";
  std::cout << "run stamp: " << stamp.str() << "\n";

  // Set-up time: scenario factory plus GdiSimulator constructor. A few
  // untimed set-ups first grow the heap; the timed ones are spread over the
  // whole run (a batch before every episode), because host speed on a
  // shared machine shifts from one second to the next.
  std::vector<double> setup_samples;
  const auto time_setups = [&](int n, bool timed) {
    for (int i = 0; i < n; ++i) {
      const Clock::time_point t0 = Clock::now();
      GdiSimulator sim(make_scenario(spec), sim_config(threads));
      if (timed) setup_samples.push_back(seconds_between(t0, Clock::now()));
    }
  };
  time_setups(kSetupWarmups, false);

  // Episodes while the next one is expected to fit in the time budget, and
  // at least one untraced (and, in a traced run, one traced) measured
  // episode. A parallel workload first runs one inline reference episode
  // that its results must match.
  std::vector<Episode> episodes;
  int next_id = 0;
  const Clock::time_point budget_start = Clock::now();
  if (workload->parallel) {
    time_setups(kSetupsPerEpisode, true);
    episodes.push_back(run_episode(spec, 0, false, next_id++, tracer, kernel));
    episodes.back().reference = true;
  }
  const std::size_t minimum = opt.trace == 1 ? 2 : 1;
  double last_episode_s = 0.0;
  for (std::size_t measured = 0;; ++measured) {
    const Clock::time_point e0 = Clock::now();
    const double elapsed = seconds_between(budget_start, e0);
    if (measured >= minimum && elapsed + last_episode_s > opt.seconds) break;
    const bool traced = opt.trace == 1 && measured % 2 == 1;
    time_setups(kSetupsPerEpisode, true);
    episodes.push_back(run_episode(spec, threads, traced, next_id++, tracer, kernel));
    last_episode_s = seconds_between(e0, Clock::now());
  }

  // --- Output checks. The first episode is the one every other must match.
  const Episode& base = episodes.front();
  const Pin* pin = find_pin(workload->multimaster, opt.hours, opt.seed);
  const auto base_exact = base.counts.exact();
  std::vector<std::string> known_defects;
  for (Episode& e : episodes) {
    if (!e.errors.empty()) continue;  // threw: nothing else to compare
    if (pin != nullptr && e.fingerprint != pin->fingerprint) {
      e.errors.push_back("fingerprint " + hex64(e.fingerprint) + " != pinned " +
                         hex64(pin->fingerprint));
    }
    if (&e == &base) continue;
    if (e.fingerprint != base.fingerprint) {
      e.errors.push_back("fingerprint " + hex64(e.fingerprint) + " != episode 0 " +
                         hex64(base.fingerprint));
    }
    const auto exact = e.counts.exact();
    for (std::size_t i = 0; i < exact.size(); ++i) {
      if (exact[i].second != base_exact[i].second) {
        e.errors.push_back(exact[i].first + " " + std::to_string(exact[i].second) +
                           " != episode 0 " + std::to_string(base_exact[i].second));
      }
    }
    const std::uint64_t lookups = e.counts.route_cache_hits + e.counts.route_cache_misses;
    const std::uint64_t base_lookups =
        base.counts.route_cache_hits + base.counts.route_cache_misses;
    if (lookups != base_lookups) {
      const std::string what =
          "route-cache lookups " + std::to_string(lookups) + " in episode " +
          std::to_string(e.id) + " (" + std::to_string(e.threads) + " workers) vs " +
          std::to_string(base_lookups) + " in episode 0 (" + std::to_string(base.threads) +
          " workers)";
      if (e.threads > 0) {
        // ROADMAP item 3: the counters are unsynchronized load+store atomics
        // that lose increments under workers. Reported, not failed.
        known_defects.push_back(what);
      } else {
        e.errors.push_back(what);
      }
    }
  }

  // --- Metrics.
  std::vector<const Episode*> untraced;
  std::vector<const Episode*> traced;
  for (const Episode& e : episodes) {
    if (e.reference) continue;
    (e.traced ? traced : untraced).push_back(&e);
  }
  const auto med = [](const std::vector<const Episode*>& es, double Episode::*field) {
    std::vector<double> v;
    for (const Episode* e : es) v.push_back(e->*field);
    return median(v);
  };

  const auto med_ref = [&untraced](double Episode::*field) {
    std::vector<double> v;
    for (const Episode* e : untraced) v.push_back(e->*field / e->ref_slice_s);
    return median(v);
  };

  MetricSet e2e;
  e2e.add("setup_s", median(setup_samples), "s");
  e2e.add("run_wall_ref", med_ref(&Episode::run_wall_s), "ref");
  e2e.add("run_cpu_ref", med_ref(&Episode::run_cpu_s), "ref");
  e2e.add("run_wall_s", med(untraced, &Episode::run_wall_s), "s");
  e2e.add("run_cpu_s", med(untraced, &Episode::run_cpu_s), "s");
  e2e.add("host.ref_slice_s", med(untraced, &Episode::ref_slice_s), "s");
  e2e.add("peak_rss_mb", peak_rss_mb(), "MB");

  MetricSet layers;
  const Counts& c = untraced.front()->counts;
  const double untraced_wall = med(untraced, &Episode::run_wall_s);
  bool coverage_ok = true;
  if (!traced.empty()) {
    const double wall = med(traced, &Episode::run_wall_s);
    const double cpu = med(traced, &Episode::run_cpu_s);
    layers.count("core.iterations", c.iterations);
    layers.count("core.agent_phase_runs", c.agent_phase_runs);
    layers.count("core.agent_runs.other", c.other_agent_runs);
    layers.add("core.ns_per_agent_phase", 1e9 * wall / static_cast<double>(c.agent_phase_runs),
               "ns");
    layers.add("core.step_us.p50", med(traced, &Episode::step_p50_us), "us");
    layers.add("core.step_us.p99", med(traced, &Episode::step_p99_us), "us");
    layers.add("core.spin_cpu_s", cpu - wall, "s");
    const std::size_t hours = traced.front()->hour_s.size();
    std::vector<double> per_hour(hours);
    for (std::size_t h = 0; h < hours; ++h) {
      std::vector<double> v;
      for (const Episode* e : traced) v.push_back(e->hour_s[h]);
      per_hour[h] = median(v);
      char name[48];
      std::snprintf(name, sizeof name, "core.host_s_per_sim_h.h%02zu", h);
      layers.add(name, per_hour[h], "s");
    }
    // The thesis day's global peak (12-16 GMT) and night (21-24 GMT), when
    // the horizon reaches them.
    const auto window = [&](std::size_t from, std::size_t to, const char* name) {
      if (hours < to) return;
      double sum = 0.0;
      for (std::size_t h = from; h < to; ++h) sum += per_hour[h];
      layers.add(name, sum / static_cast<double>(to - from), "s");
    };
    window(12, 16, "core.host_s_per_sim_h.peak");
    window(21, 24, "core.host_s_per_sim_h.night");
    for (int k = 0; k < kStationKinds; ++k) {
      layers.count(std::string("hardware.station_runs.") + kStationNames[k], c.station_runs[k]);
    }
    layers.count("software.agent_runs", c.software_agent_runs);
    layers.count("software.ops_completed", c.ops_completed);
    const std::uint64_t lookups = c.route_cache_hits + c.route_cache_misses;
    layers.count("software.route_cache.hits", c.route_cache_hits);
    layers.count("software.route_cache.misses", c.route_cache_misses);
    layers.count("software.route_cache.lookups", lookups);
    layers.add("software.route_cache.hit_ratio",
               lookups > 0 ? static_cast<double>(c.route_cache_hits) / lookups : 0.0, "ratio");
    std::uint64_t max_drift = 0;
    for (const Episode& e : episodes) {
      const std::uint64_t l = e.counts.route_cache_hits + e.counts.route_cache_misses;
      const std::uint64_t b = base.counts.route_cache_hits + base.counts.route_cache_misses;
      max_drift = std::max(max_drift, l > b ? l - b : b - l);
    }
    layers.count("software.route_cache.lookup_drift", max_drift);
    layers.count("background.agent_runs", c.background_agent_runs);
    layers.count("background.synchrep_runs", c.synchrep_runs);
    layers.count("background.indexbuild_runs", c.indexbuild_runs);
    layers.add("metrics.collect_step_us.p50", med(traced, &Episode::collect_step_p50_us), "us");
    layers.count("sim.snapshot.bytes", traced.front()->snapshot_bytes, "bytes");
    layers.add("sim.snapshot.save_s", med(traced, &Episode::save_s), "s");
    layers.add("sim.snapshot.load_s", med(traced, &Episode::load_s), "s");
    layers.add("sim.fingerprint_s", med(traced, &Episode::fingerprint_s), "s");
    layers.add("config.build_s", med(traced, &Episode::config_s), "s");
    layers.add("sim.construct_s", med(traced, &Episode::construct_s), "s");
    layers.add("run_wall_s", untraced_wall, "s");
    layers.add("run_cpu_s", med(untraced, &Episode::run_cpu_s), "s");
    layers.add("host.ref_slice_s", med(untraced, &Episode::ref_slice_s), "s");
    layers.add("trace.overhead_s", wall - untraced_wall, "s");
    layers.add("trace.other_s", med(traced, &Episode::other_s), "s");

    // Coverage: `other` is the traced run's total minus its hourly spans
    // (the time between steps); the spans must leave only a sliver of it.
    for (const Episode* e : traced) {
      if (!e->errors.empty()) continue;
      coverage_ok = coverage_ok && e->other_s >= 0.0 && e->other_s <= 0.01 * e->run_wall_s;
    }
  }
  // Scheduler bookkeeping: the per-type buckets account for every agent run.
  std::uint64_t bucket_sum = c.software_agent_runs + c.background_agent_runs + c.other_agent_runs;
  for (std::uint64_t s : c.station_runs) bucket_sum += s;
  const bool buckets_ok = bucket_sum == c.agent_phase_runs;

  std::size_t failed = 0;
  for (const Episode& e : episodes) failed += e.errors.empty() ? 0 : 1;
  const bool correct = failed == 0 && coverage_ok && buckets_ok;

  // --- Human-readable report.
  std::cout << "workload " << workload->name << ": " << episodes.size() << " episodes ("
            << untraced.size() << " untraced, " << traced.size() << " traced"
            << (workload->parallel ? ", 1 inline reference" : "") << "), " << opt.hours
            << " h horizon, " << threads << " engine threads\n";
  for (const Episode& e : episodes) {
    std::cout << "  episode " << e.id << (e.reference ? " [inline reference]" : "")
              << (e.traced ? " [traced]" : "") << ": run " << json_number(e.run_wall_s)
              << " s wall, " << json_number(e.run_cpu_s) << " s cpu, reference slice "
              << json_number(e.ref_slice_s) << " s, fingerprint " << hex64(e.fingerprint)
              << (e.errors.empty() ? " ok" : " FAILED") << "\n";
    for (const std::string& why : e.errors) std::cout << "    check failed: " << why << "\n";
  }
  if (pin != nullptr) {
    std::cout << "pinned fingerprint for seed 42, " << opt.hours
              << " h: " << hex64(pin->fingerprint) << "\n";
  }
  if (!buckets_ok) {
    std::cout << "check failed: agent runs by type sum to " << bucket_sum
              << ", scheduler counted " << c.agent_phase_runs << "\n";
  }
  std::cout << "end-to-end metrics (untraced, median of " << untraced.size()
            << " episodes; setup_s median of " << setup_samples.size() << " set-ups):\n";
  e2e.print(std::cout);
  if (!traced.empty()) {
    std::cout << "per-layer metrics (traced, median of " << traced.size() << " episodes, "
              << traced.front()->steps << " steps each, " << traced.front()->collect_steps
              << " firing a collection):\n";
    layers.print(std::cout);
    std::cout << "tracing overhead: traced - untraced run_wall_s = "
              << json_number(med(traced, &Episode::run_wall_s) - untraced_wall) << " s\n"
              << "span coverage: hourly spans + other = traced run total: "
              << (coverage_ok ? "ok" : "FAILED") << "\n";
  } else {
    std::cout << "exact work counts (untraced):\n";
    for (const auto& [name, value] : c.exact()) std::cout << "  " << name << " = " << value << "\n";
  }
  for (const std::string& d : known_defects) {
    std::cout << "known defect (route-cache counters are lossy under workers): " << d << "\n";
  }

  // --- Full run report.
  if (!opt.report.empty()) {
    std::ofstream out(opt.report);
    out << "{\"stamp\": " << stamp.str() << ",\n \"correct\": " << (correct ? "true" : "false")
        << ", \"attempted\": " << episodes.size() << ", \"failed\": " << failed
        << ",\n \"end_to_end\": " << e2e.json() << ",\n \"per_layer\": " << layers.json()
        << ",\n \"known_defects\": [";
    for (std::size_t i = 0; i < known_defects.size(); ++i) {
      out << (i ? ", " : "") << json_string(known_defects[i]);
    }
    out << "],\n \"episodes\": [";
    for (std::size_t i = 0; i < episodes.size(); ++i) {
      const Episode& e = episodes[i];
      out << (i ? ",\n  " : "\n  ") << "{\"id\": " << e.id
          << ", \"traced\": " << (e.traced ? "true" : "false")
          << ", \"reference\": " << (e.reference ? "true" : "false")
          << ", \"threads\": " << e.threads << ", \"fingerprint\": \"" << hex64(e.fingerprint)
          << "\", \"run_wall_s\": " << json_number(e.run_wall_s)
          << ", \"run_cpu_s\": " << json_number(e.run_cpu_s)
          << ", \"ref_slice_s\": " << json_number(e.ref_slice_s) << ", \"errors\": [";
      for (std::size_t k = 0; k < e.errors.size(); ++k) {
        out << (k ? ", " : "") << json_string(e.errors[k]);
      }
      out << "]}";
    }
    out << "],\n \"spans\": [";
    const std::vector<Span>& spans = tracer.spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      out << (i ? ",\n  " : "\n  ") << "{\"name\": " << json_string(spans[i].name)
          << ", \"episode\": " << spans[i].episode
          << ", \"start_s\": " << json_number(spans[i].start_s)
          << ", \"end_s\": " << json_number(spans[i].end_s) << "}";
    }
    out << "]}\n";
  }

  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << episodes.size() << ", \"failed\": " << failed
            << ", \"metrics\": " << (opt.trace == 1 ? layers.json() : e2e.json()) << "}"
            << std::endl;
  return 0;
}
