// Component: the agent base class for all hardware models.
//
// A component is a low-level hardware element (CPU, NIC, link, RAID, ...)
// modeled as a queue or network of queues (thesis §3.4.2). Stage jobs are
// submitted through a thread-safe, deterministic inbox; the interaction
// phase absorbs them into the discipline queue and the tick phase serves
// them. Completions are reported synchronously to the stage handler, which
// routes the in-flight message to its next component.
//
// Sub-tick stages: the route builder may decide that a stage's service
// demand is far below one tick (a 2 KB request on a 10 Gb/s switch). Such
// stages are not enqueued — their work is *accounted* against the component
// via account_instant() so utilization stays correct, and the message skips
// straight to its next stage. Heavily-loaded stages (bulk transfers, CPU
// bursts, disk I/O) always queue, so contention effects are preserved where
// they matter. This keeps the tick length an order of magnitude below the
// canonical costs, as the thesis requires, without making every metadata
// hop cost a full tick.
//
// Accounted work does not wake the component. It lands in a per-tick ledger
// and is folded into the utilization window lazily, in tick order, the next
// time anything runs or observes the component (on_tick,
// take_window_utilization, settle_instant, snapshot save). A ledger tick
// the component did not run is a tick its discipline was empty, so the fold
// adds exactly what the skipped tick would have added (DESIGN.md §5).
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/agent.h"
#include "core/audit.h"
#include "core/types.h"
#include "queueing/job.h"

namespace gdisim {

class Component;

/// Implemented by the software layer's in-flight message state. Called from
/// a component's tick phase when the message's current stage finishes; the
/// handler forwards the message to the next stage with visible_at = now + 1.
class StageCompletionHandler {
 public:
  virtual ~StageCompletionHandler() = default;
  virtual void on_stage_complete(Component& at, Tick now, std::uint64_t tag) = 0;
};

/// One unit of routed work: `work` is in the receiving component's service
/// unit (cycles, bits, bytes, seconds). `tag` is opaque handler context.
/// `parallelism` (thesis §9.1.1 "Multithreading", future work): CPU stages
/// with parallelism > 1 fork their cycles across up to that many cores and
/// join on completion; other components ignore it.
struct StageJob {
  double work = 0.0;
  /// Runtime-only pointer; snapshots re-express it as a HandlerKey
  /// (launcher AgentId + instance serial) via archive_stage_job.
  StageCompletionHandler* handler = nullptr;  // NOLINT(gdisim-snapshot-ptr) archived as a HandlerKey
  std::uint64_t tag = 0;
  unsigned parallelism = 1;
};

/// Snapshot round trip for one StageJob: the handler pointer travels as its
/// stable HandlerKey and is re-resolved against the live instances the
/// software layer (re)bound into the registry.
inline void archive_stage_job(StateArchive& ar, HandlerRegistry& reg, StageJob& job) {
  ar.f64(job.work);
  AgentId owner = kInvalidAgent;
  std::uint64_t serial = 0;
  if (ar.writing() && job.handler != nullptr) {
    const HandlerKey key = reg.key_of(job.handler);
    owner = key.owner;
    serial = key.serial;
  }
  ar.u32(owner);
  ar.u64(serial);
  if (ar.reading()) {
    job.handler = owner == kInvalidAgent ? nullptr : reg.resolve(HandlerKey{owner, serial});
  }
  ar.u64(job.tag);
  std::uint32_t parallelism = job.parallelism;
  ar.u32(parallelism);
  job.parallelism = parallelism;
}

/// Shared discipline archiver for single-queue components whose JobCtx is a
/// pool-owned StageJob copy (NIC, switch, link). The job table is streamed
/// in queue-enumeration order, so the ctx code for each queued job is simply
/// its enumeration position — stable, dense, and address-free.
template <typename Queue>
void archive_stagejob_queue(StateArchive& ar, HandlerRegistry& reg, Queue& queue,
                            JobPool<StageJob>& pool) {
  if (ar.writing()) {
    std::vector<StageJob*> order;
    queue.for_each_ctx([&order](JobCtx ctx) { order.push_back(static_cast<StageJob*>(ctx)); });
    std::size_t n = order.size();
    ar.count(n);
    for (StageJob* job : order) archive_stage_job(ar, reg, *job);
    std::uint64_t next = 0;
    queue.archive_state(ar, [&next](JobCtx) { return next++; }, {});
  } else {
    pool.release_all();
    std::size_t n = 0;
    ar.count(n);
    std::vector<JobCtx> loaded;
    loaded.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      StageJob job;
      archive_stage_job(ar, reg, job);
      loaded.push_back(pool.create(job));
    }
    queue.archive_state(ar, {}, [&ar, &loaded](std::uint64_t idx) {
      ar.expect_below(idx, std::uint64_t{loaded.size()}, "stage-job index");
      return loaded[idx];
    });
  }
}

class Component : public Agent {
 public:
  Component() { inbox_.bind_owner(this); }

  /// Thread-safe submission; the job becomes serviceable at `visible_at`.
  /// (sender, seq) make the inbox drain order deterministic.
  void submit(Tick visible_at, AgentId sender, std::uint64_t seq, StageJob job) {
    inbox_.post(visible_at, sender, seq, job);
  }

  void on_interactions(Tick now) override {
    if (inbox_.empty()) return;
    inbox_.drain_visible_into(now, drain_scratch_);
    for (auto& d : drain_scratch_) accept(d.payload);
  }

  void on_engine_serial(bool serial) override { inbox_.set_serial(serial); }

  void on_tick(Tick now) final {
    settle_instant(now);
    // This tick's own sub-tick work, accounted during tick now - 1. Writers
    // running concurrently with this tick target slot now + 1.
    const std::uint64_t bit = std::uint64_t{1} << instant_slot(now);
    if ((instant_mask_.load(std::memory_order_relaxed) & bit) != 0) {
      instant_fraction_ = take_instant_fraction(instant_slot(now));
      instant_mask_.fetch_and(~bit, std::memory_order_relaxed);
    } else {
      instant_fraction_ = 0.0;  // 0 / cap — skip the virtual capacity call
    }
    instant_folded_.store(now, std::memory_order_relaxed);
#if GDISIM_AUDIT_ENABLED
    audit_last_on_tick_ = now;
#endif
    advance_tick(now, tick_seconds_);
    window_accum_ += utilization();
  }

  /// Set by the infrastructure builder before the run starts.
  void set_tick_seconds(double s) { tick_seconds_ = s; }
  double tick_seconds() const { return tick_seconds_; }

  /// Capacity fraction used during the last tick, in [0, 1]; includes
  /// sub-tick accounted work.
  double utilization() const {
    return std::min(1.0, raw_utilization() + instant_fraction_);
  }

  /// Mean utilization since the previous call — what the measurement
  /// collection signal samples (thesis: snapshots average many per-tick
  /// samples). `now` is the sample tick; the denominator is wall ticks, not
  /// ticks executed, so a component parked by the active-set scheduler
  /// (which would have accumulated exactly zero on every skipped tick)
  /// reports the same mean as under the dense sweep. Resets the window.
  double take_window_utilization(Tick now) {
    settle_instant(now);
    const Tick span = now - window_start_tick_;
    const double u = span > 0 ? window_accum_ / static_cast<double>(span) : utilization();
    window_accum_ = 0.0;
    window_start_tick_ = now;
    return u;
  }

  /// Ledger capacity in ticks (power of two: slot = tick & (kInstantSlots-1)).
  static constexpr Tick kInstantSlots = 64;
  /// Longest interval a driver may leave between two settle_instant calls
  /// (or runs) of a component. Writes land at most two ticks ahead of the
  /// loop, so settling this often keeps every pending tick within one
  /// ledger revolution; Topology::register_with installs the hook.
  static constexpr Tick kInstantSettleEvery = kInstantSlots / 2;

  /// Records work served "instantly" (below the sub-tick threshold) during
  /// tick `now`; it counts toward utilization at tick now + 1, under any
  /// thread schedule and both scheduler modes. Thread-safe; callable from
  /// any worker during routing. It never wakes the component: the work is
  /// added to ledger slot (now + 1) & (kInstantSlots - 1), and the next
  /// on_tick or settle_instant folds it.
  void account_instant(double work, Tick now) {
    GDISIM_AUDIT_NONNEG(work, "Component: negative instant work accounted");
    const Tick at = now + 1;
    GDISIM_AUDIT_CHECK(at - instant_folded_.load(std::memory_order_relaxed) <= kInstantSlots,
                       "Component: instant ledger wrapped; the driver did not settle it "
                       "within kInstantSettleEvery ticks");
    const std::size_t slot = instant_slot(at);
    instant_ledger_[slot].fetch_add(work, std::memory_order_relaxed);
    const std::uint64_t bit = std::uint64_t{1} << slot;
    if ((instant_mask_.load(std::memory_order_relaxed) & bit) == 0) {
      instant_mask_.fetch_or(bit, std::memory_order_relaxed);
    }
  }

  /// Folds every ledger tick t < `before` into the utilization window, in
  /// tick order. Such a tick is one this component did not run: on_tick(t)
  /// would have consumed it. The scheduler skips a component only while its
  /// discipline is empty (next_wake_tick), and an empty discipline's
  /// raw_utilization() is 0, so each fold adds exactly what that skipped
  /// tick would have added. Called by the component itself and, between
  /// agent phases, by drivers (see kInstantSettleEvery) and the snapshot
  /// writer; idempotent for a given `before`.
  void settle_instant(Tick before) {
    const Tick first = instant_folded_.load(std::memory_order_relaxed) + 1;
    if (before <= first) return;
    const std::uint64_t pending = instant_mask_.load(std::memory_order_relaxed);
    if (pending != 0) {
      const std::size_t base = instant_slot(first);
      // Bit i of `due` is ledger tick first + i.
      std::uint64_t due = std::rotr(pending, static_cast<int>(base));
      if (before - first < kInstantSlots) {
        due &= (std::uint64_t{1} << (before - first)) - 1;
      }
      std::uint64_t taken = 0;
      while (due != 0) {
        const int i = std::countr_zero(due);
        due &= due - 1;
        GDISIM_AUDIT_CHECK(first + i > audit_last_on_tick_,
                           "Component: instant ledger folded a tick the component ran");
        const std::size_t slot = instant_slot(first + i);
        instant_fraction_ = take_instant_fraction(slot);
        window_accum_ += std::min(1.0, 0.0 + instant_fraction_);
        taken |= std::uint64_t{1} << slot;
      }
      if (taken != 0) instant_mask_.fetch_and(~taken, std::memory_order_relaxed);
    }
    instant_folded_.store(before - 1, std::memory_order_relaxed);
  }

  /// True while some accounted instant work is not yet folded.
  bool instant_pending() const { return instant_mask_.load(std::memory_order_relaxed) != 0; }

  /// Active when it has queued/in-service jobs or pending deliveries;
  /// otherwise parked until a delivery wakes it. Pending instant work does
  /// not keep it awake (settle_instant folds it exactly), and neither does
  /// residual state: last tick's raw_utilization / instant_fraction_ only
  /// feed the instantaneous utilization() gauge, which nothing in the
  /// simulator probes between runs.
  Tick next_wake_tick(Tick next_now) const override {
    if (queue_length() > 0 || !inbox_.empty()) return next_now;
    return kNeverTick;
  }

  /// Aggregate service capacity in work units per second (all servers).
  virtual double capacity_per_second() const = 0;

  /// Approximate service rate seen by a single job when the component is
  /// idle; used by the route builder's sub-tick decision.
  virtual double single_job_rate() const { return capacity_per_second(); }

  /// Jobs currently queued or in service.
  virtual std::size_t queue_length() const = 0;

  /// Snapshot round trip shared by every hardware component: agent base,
  /// undrained inbox, instant-work ledger and the utilization window, then
  /// the subclass discipline via archive_discipline().
  void archive_state(StateArchive& ar, HandlerRegistry& reg) override {
    Agent::archive_state(ar, reg);
    ar.section("component");
    inbox_.archive_state(ar, [&reg](StateArchive& a, StageJob& job) {
      archive_stage_job(a, reg, job);
    });
    archive_instant_ledger(ar);
    ar.f64(instant_fraction_);
    ar.f64(window_accum_);
    ar.i64(window_start_tick_);
    archive_discipline(ar, reg);
  }

 protected:
  /// Subclass hook: serialize the discipline queues and in-flight job
  /// contexts. Default: stateless discipline.
  virtual void archive_discipline(StateArchive& /*ar*/, HandlerRegistry& /*reg*/) {}
  /// Moves an absorbed job into the service discipline.
  virtual void accept(StageJob job) = 0;

  /// Advances the discipline by `dt` simulated seconds ending at tick now+1.
  virtual void advance_tick(Tick now, double dt) = 0;

  /// Utilization of the discipline queues during the last tick.
  virtual double raw_utilization() const = 0;

 private:
  static std::size_t instant_slot(Tick t) {
    return static_cast<std::size_t>(t) & static_cast<std::size_t>(kInstantSlots - 1);
  }

  /// Empties one ledger slot and returns its work as a fraction of one
  /// tick's capacity — the instant_fraction_ of the tick it belongs to.
  double take_instant_fraction(std::size_t slot) {
    const double work = instant_ledger_[slot].load(std::memory_order_relaxed);
    instant_ledger_[slot].store(0.0, std::memory_order_relaxed);
    const double cap = capacity_per_second() * tick_seconds_;
    return cap > 0.0 ? work / cap : 0.0;
  }

  /// Snapshot form of the ledger: the folded-through tick, then the pending
  /// (tick, work) entries in tick order. Savers settle first, so at most the
  /// next two ticks remain.
  void archive_instant_ledger(StateArchive& ar) {
    Tick folded = instant_folded_.load(std::memory_order_relaxed);
    ar.i64(folded);
    std::uint64_t mask = instant_mask_.load(std::memory_order_relaxed);
    std::size_t n = static_cast<std::size_t>(std::popcount(mask));
    ar.size_value(n);
    if (ar.reading()) {
      if (n > static_cast<std::size_t>(kInstantSlots)) {
        throw std::runtime_error("component: instant ledger holds more than one revolution");
      }
      for (auto& w : instant_ledger_) w.store(0.0, std::memory_order_relaxed);
      mask = 0;
    }
    Tick cursor = folded;  // writer: last entry emitted
    for (std::size_t i = 0; i < n; ++i) {
      Tick at = 0;
      double work = 0.0;
      if (ar.writing()) {
        do {
          ++cursor;
        } while ((mask & (std::uint64_t{1} << instant_slot(cursor))) == 0);
        at = cursor;
        work = instant_ledger_[instant_slot(at)].load(std::memory_order_relaxed);
      }
      ar.i64(at);
      ar.f64(work);
      if (ar.reading()) {
        if (at <= folded || at > folded + kInstantSlots) {
          throw std::runtime_error("component: instant ledger tick outside its revolution");
        }
        instant_ledger_[instant_slot(at)].store(work, std::memory_order_relaxed);
        mask |= std::uint64_t{1} << instant_slot(at);
      }
    }
    if (ar.reading()) {
      instant_mask_.store(mask, std::memory_order_relaxed);
      instant_folded_.store(folded, std::memory_order_relaxed);
#if GDISIM_AUDIT_ENABLED
      audit_last_on_tick_ = folded;
#endif
    }
  }

  Inbox<StageJob> inbox_;
  /// Reused drain buffer; its capacity amortizes across interaction phases.
  std::vector<Delivery<StageJob>> drain_scratch_;  // ARCHIVE-TRANSIENT: per-tick scratch; empty between ticks
  double tick_seconds_ = 0.0;  // ARCHIVE-TRANSIENT: clock configuration fixed at construction
  /// Instant-work ledger: slot t & (kInstantSlots-1) holds the work that
  /// counts toward tick t; bit s of the mask marks slot s occupied. During a
  /// phase, writers target ticks after the loop's current tick while the
  /// component folds only ticks up to it, so no slot has a writer and a
  /// reader at once; the phase barriers order everything else.
  // GDISIM-SHARED: cross-agent work accounting; writers and the folder touch disjoint ticks within a phase
  std::atomic<double> instant_ledger_[kInstantSlots] = {};
  // GDISIM-SHARED: occupancy bits set by cross-agent writers, cleared by the owner's fold
  std::atomic<std::uint64_t> instant_mask_{0};
  /// Every ledger tick <= this has been folded (archived with the ledger).
  // GDISIM-SHARED: written by the owner's fold; read by writers' audit check only
  std::atomic<Tick> instant_folded_{-1};
#if GDISIM_AUDIT_ENABLED
  Tick audit_last_on_tick_ = -1;  // ARCHIVE-TRANSIENT: audit diagnostic; reset on restore
#endif
  double instant_fraction_ = 0.0;
  double window_accum_ = 0.0;
  Tick window_start_tick_ = 0;
};

}  // namespace gdisim
