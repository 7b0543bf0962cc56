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
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/agent.h"
#include "core/audit.h"
#include "core/rng.h"
#include "core/tick_profiler.h"
#include "core/types.h"
#include "queueing/analytic.h"
#include "queueing/job.h"
#include "queueing/service_regime.h"

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
    ar.size_value(n);
    for (StageJob* job : order) archive_stage_job(ar, reg, *job);
    std::uint64_t next = 0;
    queue.archive_state(ar, [&next](JobCtx) { return next++; }, {});
  } else {
    std::size_t n = 0;
    ar.size_value(n);
    std::vector<JobCtx> loaded;
    loaded.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      StageJob job;
      archive_stage_job(ar, reg, job);
      loaded.push_back(pool.create(job));
    }
    queue.archive_state(ar, {}, [&loaded](std::uint64_t idx) { return loaded.at(idx); });
  }
}

class Component : public Agent {
 public:
  Component() { inbox_.bind_owner(this); }

  /// Thread-safe submission; the job becomes serviceable at `visible_at`.
  /// (sender, seq) make the inbox drain order deterministic. Inside a
  /// batched-post window (DESIGN.md §10) the occupancy/wake bookkeeping is
  /// deferred to the loop's phase-barrier flush; drain order and results
  /// are unchanged.
  void submit(Tick visible_at, AgentId sender, std::uint64_t seq, StageJob job) {
    if (PostBatchWindow::open()) {
      inbox_.post_deferred(visible_at, sender, seq, job);
      return;
    }
    inbox_.post(visible_at, sender, seq, job);
  }

  void on_interactions(Tick now) override {
    if (inbox_.empty()) return;
    inbox_.drain_visible_into(now, drain_scratch_);
    if (!regime_enabled_) {
      // Reference path: with the regime layer disabled (forced-discrete
      // runs) absorbed jobs go straight to the discipline, arithmetic and
      // control flow identical to the pre-regime engine.
      for (auto& d : drain_scratch_) accept(d.payload);
      return;
    }
    for (auto& d : drain_scratch_) absorb(now, d.payload);
  }

  void on_engine_serial(bool serial) override { inbox_.set_serial(serial); }

  void on_tick(Tick now) final {
    GDISIM_TICK_PROF_SCOPE(tickprof::Bucket::kQueueing);
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
    if (!analytic_jobs_.empty()) serve_analytic(now);
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
    // Busy-tick equivalents booked by bypassing senders (fixed-point so the
    // concurrent sum is order-independent) fold into the same window.
    const double bypassed =
        static_cast<double>(bypass_window_fp_.exchange(0, std::memory_order_relaxed)) /
        kBypassWindowScale;
    const double u = span > 0 ? (window_accum_ + bypassed) / static_cast<double>(span)
                              : utilization();
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
    // An analytic station quiesces until its earliest sampled completion:
    // the wake calendar delivers it straight to that tick with no per-tick
    // work in between.
    if (!analytic_jobs_.empty()) return analytic_jobs_.front().due;
    return kNeverTick;
  }

  // --- Service regimes (DESIGN.md "Service regimes") -----------------------
  //
  // The regime only decides where NEW arrivals go. Analytic in-flight jobs
  // always complete at their sampled tick and discrete jobs always drain
  // through the discipline, whatever the current mode — so a switch never
  // migrates, mints, or drops a job (the kAnalyticJob audit ledger checks
  // exactly this).

  /// Wires the regime layer on (RegimeController attach). `rng` seeds the
  /// per-station sojourn-sampling stream; a later restore overwrites its
  /// position from the archive.
  void regime_enable(Rng rng) {
    regime_enabled_ = true;
    analytic_rng_ = rng;
  }

  ServiceRegime regime() const { return regime_; }

  /// Controller-only (single-threaded pre-tick hook). Switching to analytic
  /// requires an empty discipline unless the station's closed form is exact
  /// regardless of backlog (infinite-server delays); the controller
  /// guarantees it, the audit check enforces it.
  void set_regime(ServiceRegime r) {
    if (r == regime_) return;
    GDISIM_AUDIT_CHECK(r != ServiceRegime::kAnalytic || queue_length() == 0 ||
                           !analytic_entry_requires_empty_queue(),
                       "regime: switch to analytic with a non-empty discipline");
    GDISIM_AUDIT_REGIME_SWITCH(r == ServiceRegime::kAnalytic);
    regime_ = r;
  }

  // --- Sender-side analytic bypass (DESIGN.md "Service regimes") -----------
  //
  // When the controller latches a station analytic for a whole epoch, the
  // software layer may skip the station entirely: the *sender* samples the
  // sojourn from its own branch RNG, books the station's utilization and
  // arrival statistics through order-independent atomic counters, and parks
  // the message on the controller's timer station for the summed span. The
  // station never sees the job — no inbox post, no wake, no per-tick work.

  /// Epoch-latched "senders may bypass this station" flag. Written only by
  /// the controller's single-threaded pre-tick hook at epoch boundaries
  /// (never by mid-epoch guard trips, so concurrent readers see one stable
  /// value per epoch); read by operation branches on any worker.
  bool bypass_active() const { return bypass_active_; }
  void set_bypass_active(bool b) { bypass_active_ = b; }

  /// True when `job` may be collapsed by the sender: the station is latched
  /// analytic this epoch and the job is admissible to the closed form.
  bool bypass_eligible(const StageJob& job) const {
    return bypass_active_ && analytic_admissible(job);
  }

  /// Books one bypassed stage: samples the sojourn from `rng` (the sender's
  /// deterministic branch stream), folds the work into the utilization
  /// window and epoch-arrival statistics via atomic fixed-point counters
  /// (integer sums are order-independent, so the result is identical under
  /// any thread schedule), and returns the stage's span in ticks — the same
  /// max(1, ceil(sojourn / tick)) the station-side analytic path would use.
  /// The job itself never reaches this station; the caller accumulates the
  /// spans onto the regime timer. Admitted == served by construction, so
  /// both sides of the kAnalyticJob conservation ledger move together.
  Tick bypass_admit(const StageJob& job, Rng& rng) {
    GDISIM_AUDIT_JOB_SPAWNED(audit::Category::kAnalyticJob);
    GDISIM_AUDIT_JOB_COMPLETED(audit::Category::kAnalyticJob);
    const double sojourn = analytic_sojourn_seconds(job, rng);
    Tick span = tick_seconds_ > 0.0
                    ? static_cast<Tick>(std::ceil((sojourn - 1e-12) / tick_seconds_))
                    : 1;
    if (span < 1) span = 1;
    const double cap = capacity_per_second();
    if (cap > 0.0 && tick_seconds_ > 0.0) {
      bypass_window_fp_.fetch_add(
          std::llround(job.work / (cap * tick_seconds_) * kBypassWindowScale),
          std::memory_order_relaxed);
    }
    const double rate = single_job_rate();
    if (rate > 0.0) {
      bypass_epoch_service_fp_.fetch_add(std::llround(job.work / rate * kBypassServiceScale),
                                         std::memory_order_relaxed);
    }
    bypass_epoch_arrivals_.fetch_add(1, std::memory_order_relaxed);
    bypass_stages_.fetch_add(1, std::memory_order_relaxed);
    return span;
  }

  /// Cumulative stages collapsed by the sender-side bypass.
  std::uint64_t bypass_stages() const {
    return bypass_stages_.load(std::memory_order_relaxed);
  }

  /// One epoch's arrival observation, already folded into the EWMA
  /// estimates the sampled sojourns use.
  struct RegimeEpoch {
    double rho = 0.0;              ///< offered work / capacity over the epoch
    std::size_t queue_depth = 0;   ///< discipline jobs right now
    std::size_t peak_inflight = 0; ///< max concurrent analytic jobs this epoch
    std::uint32_t guard_trips = 0; ///< inadmissible arrivals that forced discrete
    /// Little's-law in-flight estimate from the smoothed rates: the burst
    /// proxy for bypassed stations, whose jobs never touch peak_inflight.
    double est_inflight = 0.0;
    /// Station trait forwarded so the controller's pure decision core need
    /// not reach back into the component.
    bool entry_requires_empty = true;
  };

  /// Folds the epoch's counters — station-side arrivals plus bypassed
  /// arrivals drained from the atomic side-counters — into the arrival-rate
  /// / mean-work EWMAs and returns the observation; resets the counters.
  /// Called once per epoch by the RegimeController from the single-threaded
  /// pre-tick hook.
  RegimeEpoch regime_fold_epoch(double epoch_seconds, double alpha) {
    RegimeEpoch e;
    const double rate = single_job_rate();
    const std::uint64_t bypass_arrivals =
        bypass_epoch_arrivals_.exchange(0, std::memory_order_relaxed);
    const double bypass_work =
        static_cast<double>(bypass_epoch_service_fp_.exchange(0, std::memory_order_relaxed)) /
        kBypassServiceScale * rate;
    const std::uint64_t arrivals = epoch_arrivals_ + bypass_arrivals;
    const double work = epoch_work_ + bypass_work;
    const double cap = capacity_per_second();
    e.rho = cap > 0.0 && epoch_seconds > 0.0 ? work / (cap * epoch_seconds) : 0.0;
    e.queue_depth = queue_length();
    e.peak_inflight = epoch_peak_inflight_;
    e.guard_trips = guard_trips_;
    if (epoch_seconds > 0.0) {
      const double lambda = static_cast<double>(arrivals) / epoch_seconds;
      est_arrival_rate_ += alpha * (lambda - est_arrival_rate_);
      if (arrivals > 0) {
        const double mean_work = work / static_cast<double>(arrivals);
        est_mean_work_ += alpha * (mean_work - est_mean_work_);
      }
    }
    e.est_inflight = rate > 0.0 ? est_arrival_rate_ * (est_mean_work_ / rate) : 0.0;
    e.entry_requires_empty = analytic_entry_requires_empty_queue();
    epoch_arrivals_ = 0;
    epoch_work_ = 0.0;
    epoch_peak_inflight_ = analytic_jobs_.size();
    guard_trips_ = 0;
    refresh_analytic_sampler();
    return e;
  }

  /// True when this station's discipline has a closed form the regime layer
  /// may sample from. Conservative default: ineligible (fork-join pipelines
  /// like RAID/SAN stay discrete — branch correlation breaks the
  /// independence assumption the sampled sojourns rest on).
  virtual bool analytic_eligible() const { return false; }

  /// Max concurrent analytic jobs before the controller treats the epoch as
  /// bursty and falls back to discrete.
  virtual std::size_t analytic_burst_cap() const { return 8; }

  /// Whether entering the analytic regime requires an empty discipline.
  /// Default yes (contention models need a clean boundary); infinite-server
  /// stations override to no — backlog cannot affect a newcomer's sojourn,
  /// so the remaining discrete jobs simply drain in place.
  virtual bool analytic_entry_requires_empty_queue() const { return true; }

  std::size_t analytic_inflight() const { return analytic_jobs_.size(); }
  std::uint64_t analytic_admitted() const { return analytic_admitted_; }
  std::uint64_t analytic_served() const { return analytic_served_; }

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
    ar.section("regime");
    std::uint8_t mode = static_cast<std::uint8_t>(regime_);
    ar.u8(mode);
    regime_ = static_cast<ServiceRegime>(mode);
    // The in-flight list is stored in its heap layout; the layout is
    // deterministic (push/pop order is), so the round trip is byte-stable.
    std::size_t n_analytic = analytic_jobs_.size();
    ar.size_value(n_analytic);
    if (ar.reading()) analytic_jobs_.assign(n_analytic, AnalyticJob{});
    for (auto& a : analytic_jobs_) {
      ar.i64(a.due);
      ar.u64(a.seq);
      archive_stage_job(ar, reg, a.job);
    }
    ar.u64(analytic_seq_);
    ar.u64(analytic_admitted_);
    ar.u64(analytic_served_);
    analytic_rng_.archive_state(ar);
    ar.u64(epoch_arrivals_);
    ar.f64(epoch_work_);
    ar.size_value(epoch_peak_inflight_);
    ar.u32(guard_trips_);
    ar.f64(est_arrival_rate_);
    ar.f64(est_mean_work_);
    ar.boolean(bypass_active_);
    std::uint64_t b_stages = bypass_stages_.load(std::memory_order_relaxed);
    std::uint64_t b_arrivals = bypass_epoch_arrivals_.load(std::memory_order_relaxed);
    std::int64_t b_service = bypass_epoch_service_fp_.load(std::memory_order_relaxed);
    std::int64_t b_window = bypass_window_fp_.load(std::memory_order_relaxed);
    ar.u64(b_stages);
    ar.u64(b_arrivals);
    ar.i64(b_service);
    ar.i64(b_window);
    if (ar.reading()) {
      bypass_stages_.store(b_stages, std::memory_order_relaxed);
      bypass_epoch_arrivals_.store(b_arrivals, std::memory_order_relaxed);
      bypass_epoch_service_fp_.store(b_service, std::memory_order_relaxed);
      bypass_window_fp_.store(b_window, std::memory_order_relaxed);
      refresh_analytic_sampler();
    }
    archive_discipline(ar, reg);
  }

 protected:
  /// Job-level admissibility to the analytic regime. Default: single-share
  /// jobs only — a parallelism > 1 stage forks across cores and joins, and
  /// that correlation is exactly what the accuracy guard protects against.
  virtual bool analytic_admissible(const StageJob& job) const { return job.parallelism <= 1; }

  /// Samples this job's total sojourn (wait + service, seconds) from the
  /// station's closed form, drawing randomness (if any) from `rng` — the
  /// station's own archived stream on the absorb path, the sender's branch
  /// stream on the bypass path. Default: M/M/c FCFS over analytic_servers()
  /// servers at single_job_rate() each — correct for the NIC/switch (c = 1)
  /// and CPU (c = cores) disciplines; PS and delay stations override.
  virtual double analytic_sojourn_seconds(const StageJob& job, Rng& rng) {
    return sampled_fcfs_sojourn(job, rng);
  }

  /// Server count the default M/M/c sojourn model uses.
  virtual unsigned analytic_servers() const { return 1; }

  /// M/M/c sojourn sample: service time plus a wait drawn from the cached
  /// Erlang-C law (refresh_analytic_sampler()). One uniform per admission
  /// regardless of outcome keeps the stream position a pure function of the
  /// admission count.
  double sampled_fcfs_sojourn(const StageJob& job, Rng& rng) {
    const double rate = single_job_rate();
    const double service_s = rate > 0.0 ? job.work / rate : 0.0;
    const double u = rng.next_double();
    if (u >= analytic_p_wait_) return service_s;
    return service_s + rng.next_exponential(analytic_cond_wait_mean_);
  }

  /// Recomputes the cached M/M/c wait law from the EWMA estimates. The
  /// estimates change only in regime_fold_epoch (single-threaded controller
  /// hook) and on restore, so the sampled sojourns never pay the O(c)
  /// Erlang-C recursion per draw — the cached law is bit-identical to
  /// recomputing it at every admission. The 0.95c offered-load clamp defends
  /// against a transient estimate overshooting between epochs; the guard
  /// thresholds keep analytic stations far from saturation.
  void refresh_analytic_sampler() {
    analytic_p_wait_ = 0.0;
    analytic_cond_wait_mean_ = 0.0;
    const unsigned servers = analytic_servers();
    const double rate = single_job_rate();
    const double mean_service_s = rate > 0.0 ? est_mean_work_ / rate : 0.0;
    const double mu = mean_service_s > 0.0 ? 1.0 / mean_service_s : 0.0;
    if (servers == 0 || !(est_arrival_rate_ > 0.0) || !(mu > 0.0)) return;
    const double c = static_cast<double>(servers);
    const double lam = std::min(est_arrival_rate_, 0.95 * c * mu);
    analytic_p_wait_ = analytic::erlang_c(servers, lam, mu);
    analytic_cond_wait_mean_ = 1.0 / (c * mu - lam);
  }

  /// Smoothed offered load (EWMA arrivals x mean work / capacity); what the
  /// PS fluid share divides by.
  double estimated_rho() const {
    const double cap = capacity_per_second();
    return cap > 0.0 ? est_arrival_rate_ * est_mean_work_ / cap : 0.0;
  }

  /// Per-station sojourn-sampling stream (archived; draws happen in this
  /// agent's own interaction phase, so the stream position is deterministic).
  Rng& analytic_rng() { return analytic_rng_; }

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
  /// One analytically-served job waiting for its sampled completion tick.
  struct AnalyticJob {
    Tick due = 0;
    std::uint64_t seq = 0;
    StageJob job;
  };
  /// Min-heap order on (due, seq): completions fire in admission order
  /// within a tick, deterministically.
  struct AnalyticAfter {
    bool operator()(const AnalyticJob& a, const AnalyticJob& b) const {
      return a.due != b.due ? a.due > b.due : a.seq > b.seq;
    }
  };

  /// Regime-aware arrival path (only reached when the regime layer is
  /// wired on). `now` is the interaction tick: an absorbed job starts
  /// service during the tick phase that carries the same `now`.
  void absorb(Tick now, StageJob job) {
    ++epoch_arrivals_;
    epoch_work_ += job.work;
    if (regime_ == ServiceRegime::kAnalytic) {
      if (analytic_admissible(job)) {
        admit_analytic(now, job);
        return;
      }
      // Accuracy guard: an arrival the closed form cannot represent
      // (fork-join share) reverts the station immediately; the controller
      // sees the trip at the next epoch and applies the cooldown.
      ++guard_trips_;
      set_regime(ServiceRegime::kDiscrete);
    }
    accept(job);
  }

  void admit_analytic(Tick now, StageJob job) {
    GDISIM_AUDIT_JOB_SPAWNED(audit::Category::kAnalyticJob);
    const double sojourn = analytic_sojourn_seconds(job, analytic_rng_);
    // Completion lands on the same tick the discrete discipline would use
    // for an uncontended job: service starts during tick `now`, so a
    // sojourn of <= one tick completes at `now` itself.
    Tick span = tick_seconds_ > 0.0
                    ? static_cast<Tick>(std::ceil((sojourn - 1e-12) / tick_seconds_))
                    : 1;
    if (span < 1) span = 1;
    // Utilization window accounting: the whole job's busy-tick equivalent is
    // booked at admission (the station will not run on the in-between
    // ticks), so take_window_utilization keeps reporting the same means the
    // discrete regime would. Earlier ticks' instant work folds first, so the
    // window sums in the same order as when every such tick ran.
    settle_instant(now);
    const double cap = capacity_per_second();
    if (cap > 0.0 && tick_seconds_ > 0.0) window_accum_ += job.work / (cap * tick_seconds_);
    ++analytic_admitted_;
    if (analytic_jobs_.size() + 1 > epoch_peak_inflight_) {
      epoch_peak_inflight_ = analytic_jobs_.size() + 1;
    }
    analytic_jobs_.push_back(AnalyticJob{now + span - 1, analytic_seq_++, job});
    std::push_heap(analytic_jobs_.begin(), analytic_jobs_.end(), AnalyticAfter{});
  }

  void serve_analytic(Tick now) {
    while (!analytic_jobs_.empty() && analytic_jobs_.front().due <= now) {
      std::pop_heap(analytic_jobs_.begin(), analytic_jobs_.end(), AnalyticAfter{});
      AnalyticJob done = analytic_jobs_.back();
      analytic_jobs_.pop_back();
      ++analytic_served_;
      GDISIM_AUDIT_JOB_COMPLETED(audit::Category::kAnalyticJob);
      done.job.handler->on_stage_complete(*this, now, done.job.tag);
    }
  }

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

  // --- Service-regime state ---
  bool regime_enabled_ = false;  // ARCHIVE-TRANSIENT: construction-time wiring; RegimeController re-enables on attach
  ServiceRegime regime_ = ServiceRegime::kDiscrete;
  std::vector<AnalyticJob> analytic_jobs_;
  std::uint64_t analytic_seq_ = 0;
  std::uint64_t analytic_admitted_ = 0;
  std::uint64_t analytic_served_ = 0;
  Rng analytic_rng_{0};
  // Per-epoch arrival counters; single-writer (this agent's interaction
  // phase), read + reset by the controller's single-threaded pre-tick hook.
  std::uint64_t epoch_arrivals_ = 0;
  double epoch_work_ = 0.0;
  std::size_t epoch_peak_inflight_ = 0;
  std::uint32_t guard_trips_ = 0;
  // EWMA estimates the sampled sojourns are computed from.
  // GDISIM-SHARED: written only by the controller's single-threaded pre-tick
  // fold; read concurrently by bypassing senders sampling sojourns.
  double est_arrival_rate_ = 0.0;
  double est_mean_work_ = 0.0;
  // Cached Erlang-C wait law derived from the EWMAs above; refreshed at
  // every epoch fold and on restore (refresh_analytic_sampler()).
  // GDISIM-SHARED: written only by the single-threaded fold/restore paths;
  // read concurrently by bypassing senders sampling sojourns.
  double analytic_p_wait_ = 0.0;       // ARCHIVE-TRANSIENT: derived from the archived EWMAs on restore
  double analytic_cond_wait_mean_ = 0.0;  // ARCHIVE-TRANSIENT: derived from the archived EWMAs on restore

  // --- Sender-side bypass state ---
  /// Fixed-point scales for the atomic side-counters: integer fetch_adds
  /// commute, so concurrent bypass bookings sum identically under any
  /// thread schedule (a double accumulator would not).
  static constexpr double kBypassWindowScale = 1048576.0;   // 2^20 busy-ticks
  static constexpr double kBypassServiceScale = 1073741824.0;  // 2^30 service-seconds
  // GDISIM-SHARED: epoch-latched by the controller's pre-tick hook only;
  // read concurrently by operation branches on any worker.
  bool bypass_active_ = false;
  // GDISIM-SHARED: bumped by bypassing senders on any worker; drained by the
  // single-threaded epoch fold / window collection.
  std::atomic<std::uint64_t> bypass_stages_{0};  // GDISIM-SHARED: commutative cross-worker bypass tally
  std::atomic<std::uint64_t> bypass_epoch_arrivals_{0};  // GDISIM-SHARED: commutative cross-worker arrival tally
  std::atomic<std::int64_t> bypass_epoch_service_fp_{0};  // GDISIM-SHARED: fixed-point cross-worker work sum
  std::atomic<std::int64_t> bypass_window_fp_{0};  // GDISIM-SHARED: fixed-point cross-worker busy-tick sum
};

}  // namespace gdisim
