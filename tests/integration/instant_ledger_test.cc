// Lazy instant-work ledger (DESIGN.md §5): sub-tick work accounted against
// a component never wakes it, and folding the ledger later — at the
// component's next run, a collector probe, a periodic settle or a snapshot
// save — must leave every observable bit-identical to the dense sweep, in
// which every component runs every tick.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "config/loader.h"
#include "core/h_dispatch.h"
#include "core/sim_loop.h"
#include "hardware/cpu.h"
#include "hardware/network_switch.h"
#include "hardware/nic.h"
#include "metrics/collector.h"
#include "sim/fingerprint.h"
#include "sim/gdisim.h"

namespace gdisim {
namespace {

class NullHandler final : public StageCompletionHandler {
 public:
  void on_stage_complete(Component&, Tick, std::uint64_t) override {}
};

/// Accounts sub-tick work into every station on every tick, and now and
/// then queues a real job on the NIC so lazy folds interleave with runs.
class Traffic final : public Agent {
 public:
  explicit Traffic(std::vector<Component*> stations) : stations_(std::move(stations)) {}
  void on_tick(Tick now) override {
    for (std::size_t i = 0; i < stations_.size(); ++i) {
      const double w = 1e4 * static_cast<double>(1 + (now * 7 + static_cast<Tick>(i)) % 13) +
                       static_cast<double>(now % 3) / 7.0;
      stations_[i]->account_instant(w, now);
    }
    if (now % 97 == 5) {
      stations_[1]->submit(now + 1, id(), next_send_seq(), StageJob{4e7, &handler_, 0});
    }
  }

 private:
  std::vector<Component*> stations_;
  NullHandler handler_;
};

struct LedgerRun {
  std::vector<std::vector<double>> series;
  std::vector<std::uint64_t> station_runs;
};

LedgerRun run_ledger_world(std::size_t threads, SchedulerMode mode, Tick end) {
  HDispatchEngine engine(threads, /*agent_set_size=*/1);
  SimLoopConfig cfg{0.01, /*collect_every=*/10, mode};
  SimulationLoop loop(cfg, engine);
  CpuComponent cpu(CpuSpec{1, 2, 1e9, 1.0});
  NicComponent nic(NicSpec{1e9});
  SwitchComponent sw(SwitchSpec{1e10});
  std::vector<Component*> stations{&cpu, &nic, &sw};
  cpu.set_name("cpu");
  nic.set_name("nic");
  sw.set_name("switch");
  for (Component* c : stations) {
    c->set_tick_seconds(cfg.tick_seconds);
    loop.add_agent(c);
  }
  Traffic traffic(stations);
  loop.add_agent(&traffic);
  loop.add_pre_tick_hook([&stations](Tick now) {
    if (now % Component::kInstantSettleEvery != 0) return;
    for (Component* c : stations) c->settle_instant(now);
  });
  Collector collector(cfg.tick_seconds);
  for (Component* c : stations) {
    collector.add_probe(c->name(), [c](Tick now) { return c->take_window_utilization(now); });
  }
  loop.set_collect_callback([&collector](Tick now) { collector.collect(now); });
  loop.run_until(end);

  LedgerRun out;
  for (std::size_t i = 0; i < collector.probe_count(); ++i) {
    out.series.push_back(collector.series(i).values());
  }
  for (Component* c : stations) {
    out.station_runs.push_back(loop.scheduler_stats().per_agent_runs[c->id()]);
  }
  return out;
}

// Exactness (b): instant work on far more than kInstantSlots consecutive
// ticks, so every ledger slot is reused many times between the stations'
// runs. The active-set run (threaded) equals the dense sweep on every
// collector series.
TEST(InstantLedger, RingWrapActiveSetEqualsDenseSweep) {
  const Tick end = 10 * Component::kInstantSlots + 3;
  const LedgerRun dense = run_ledger_world(0, SchedulerMode::kDenseSweep, end);
  const LedgerRun active = run_ledger_world(2, SchedulerMode::kActiveSet, end);
  ASSERT_EQ(dense.series.size(), 3u);
  ASSERT_EQ(dense.series, active.series);
  for (const auto& s : dense.series) {
    ASSERT_FALSE(s.empty());
    EXPECT_GT(s.back(), 0.0);
  }
  // Stations run only for the warm-up and for the NIC's queued jobs.
  EXPECT_EQ(active.station_runs[0], 1u);
  EXPECT_LT(active.station_runs[1], static_cast<std::uint64_t>(end) / 4);
  EXPECT_EQ(active.station_runs[2], 1u);
  EXPECT_EQ(dense.station_runs[0], static_cast<std::uint64_t>(end));
}

std::unique_ptr<GdiSimulator> make_two_site(std::size_t threads) {
  std::ifstream in(GDISIM_SOURCE_DIR "/configs/two_site.gdisim");
  std::ostringstream text;
  text << in.rdbuf();
  std::istringstream is(text.str());
  SimulatorConfig cfg;
  cfg.threads = threads;
  return std::make_unique<GdiSimulator>(load_scenario(is, "two_site"), cfg);
}

bool any_instant_pending(GdiSimulator& sim) {
  for (std::size_t id = 0; id < sim.loop().agent_count(); ++id) {
    auto* c = dynamic_cast<Component*>(sim.loop().agent(static_cast<AgentId>(id)));
    if (c != nullptr && c->instant_pending()) return true;
  }
  return false;
}

// Exactness (c): a snapshot taken while components hold unfolded instant
// work restores byte-identically, and the restored run continues to the
// uninterrupted run's fingerprint.
TEST(InstantLedger, CheckpointWithPendingInstantWork) {
  const double t1 = 60.0;
  const double t2 = 150.0;
  auto whole = make_two_site(0);
  whole->run_until_seconds(t2);
  const std::uint64_t want = result_fingerprint(*whole);

  auto warm = make_two_site(0);
  warm->run_until_seconds(t1);
  ASSERT_TRUE(any_instant_pending(*warm));
  // Saving folds every tick before now(); step on until work for the next
  // ticks is still pending after the save, so the snapshot carries some.
  std::vector<std::uint8_t> snap = warm->save_state();
  for (int i = 0; i < 1000 && !any_instant_pending(*warm); ++i) {
    warm->loop().step();
    snap = warm->save_state();
  }
  ASSERT_TRUE(any_instant_pending(*warm));

  auto resumed = make_two_site(2);
  resumed->load_state(snap);
  EXPECT_EQ(resumed->save_state(), snap);
  resumed->run_until_seconds(t2);
  EXPECT_EQ(result_fingerprint(*resumed), want);

  warm->run_until_seconds(t2);  // saving settled the ledger without perturbing
  EXPECT_EQ(result_fingerprint(*warm), want);
}

}  // namespace
}  // namespace gdisim
