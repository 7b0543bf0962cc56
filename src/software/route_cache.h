// Route memoization (DESIGN.md §10 "Per-message fast path").
//
// OperationInstance::build_route re-resolves cascade endpoints and re-walks
// the hardware chain for every message — ~100M times in a 24h consolidated
// day. The resolution result is a pure function of (message spec, origin
// data center, owner data center) and the current topology/liveness state:
// the per-message randomness only picks *which* server of a tier serves the
// endpoint, never which tier, data center, WAN route or stage structure.
// RouteCache therefore precomputes one immutable *route template* per
// (route_key, origin, owner) triple; branches stamp a template with their
// per-message state (size draw, balance keys, cache-hit draw) and produce a
// stage vector bit-identical to the uncached builder.
//
// Invalidation is epoch-based and eager: the cache registers a listener on
// Topology::add_route_state_listener, and every routing-relevant mutation
// (compute_routes — which link failure/repair and snapshot restore funnel
// through — Tier::set_server_alive, and explicit note_route_state_change
// calls such as a data-growth rebalancing hook) bumps the epoch and rebuilds
// the whole table in place. All mutation sites are contractually
// single-threaded (construction or pre-tick hooks), so worker threads only
// ever observe a fully-built table; the table itself is never written during
// agent phases.
//
// Bit-identity requires per-tier uniform service rates (a tier is "an array
// of identical server holons"): the instant-bypass test divides the stage's
// work by the *picked* server's single_job_rate(), and the template caches
// that rate tier-wide. build() verifies the rates are bitwise uniform across
// every server of the tier and refuses (valid = false, callers fall back to
// the uncached path) when they are not.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "hardware/topology.h"
#include "software/catalog.h"

namespace gdisim {

/// One immutable stage template: the endpoint resolution and rate lookups of
/// build_route, with everything per-message (RNG draws, work amounts,
/// instant decisions, server picks) left to the stamp. Namespace-scope (not
/// nested in RouteCache) so operation.h can forward-declare it.
struct RouteCacheTemplate {
  const MessageSpec* msg = nullptr;  // NOLINT(gdisim-snapshot-ptr) ARCHIVE-TRANSIENT cache content
  DcId from_dc = kInvalidDc;
  DcId to_dc = kInvalidDc;
  Tier* from_tier = nullptr;             ///< null: client-side origin
  Tier* to_tier = nullptr;               ///< null: client destination
  const std::vector<LinkComponent*>* wan = nullptr;  ///< Topology::route result
  Component* dc_switch = nullptr;
  LinkComponent* tier_link = nullptr;    ///< destination tier local link
  Component* client_station = nullptr;   ///< client destination only
  // single_job_rate() values, verified bitwise-uniform across each tier.
  double from_nic_rate = 0.0;
  double switch_rate = 0.0;
  double tier_link_rate = 0.0;
  double to_nic_rate = 0.0;
  double cpu_rate = 0.0;
  double storage_rate = 0.0;
  double station_rate = 0.0;
  /// instant_fraction * destination tick, the sub-tick bypass threshold.
  double instant_below = 0.0;
  // Exact per-stage instant-work corners: {w >= 0 : fl(w / rate) <
  // instant_below} is [0, W) because IEEE division by a fixed positive
  // divisor is monotone in the dividend, so the stamp replaces each
  // per-message division with one compare against the precomputed W.
  double from_nic_instant_w = 0.0;
  double switch_instant_w = 0.0;
  double tier_link_instant_w = 0.0;
  double to_nic_instant_w = 0.0;
  double cpu_instant_w = 0.0;
  double storage_instant_w = 0.0;
  double station_instant_w = 0.0;
  /// Client machine constants (client destinations).
  double cm_cpu_hz = 1.0;
  double cm_disk_Bps = 1.0;
  /// False when the triple cannot be templated (unresolvable tier,
  /// non-uniform rates): stamp callers fall back to the uncached builder.
  bool valid = false;
};

class RouteCache {
 public:
  using Template = RouteCacheTemplate;

  /// Builds the full table eagerly and registers for invalidation. Must run
  /// after Topology::compute_routes (construction time).
  RouteCache(Topology& topology, const OperationCatalog& catalog, DcId master_dc,
             double instant_fraction);

  RouteCache(const RouteCache&) = delete;
  RouteCache& operator=(const RouteCache&) = delete;

  /// Lock-free hot-path lookup; returns null when the triple is out of range
  /// or not templated. `owner` may be kInvalidDc ("the master").
  const Template* lookup(std::uint32_t route_key, DcId origin, DcId owner) const {
    const DcId ow = owner == kInvalidDc ? master_dc_ : owner;
    if (route_key == 0 || route_key > key_count_ || origin >= dc_count_ || ow >= dc_count_) {
      return nullptr;
    }
    const Template& t =
        table_[((route_key - 1) * dc_count_ + origin) * dc_count_ + ow];
    return t.valid ? &t : nullptr;
  }

  /// Epoch bump + eager in-place rebuild. Must only be called while no agent
  /// phase is executing (construction, pre-tick hooks, snapshot restore);
  /// wired to Topology route-state listeners by the constructor.
  void invalidate();

  /// Count of invalidation-triggered rebuilds since construction (the first
  /// eager build counts as epoch 1).
  std::uint64_t epoch() const { return epoch_; }

  /// Stamp/build accounting for the microbench, the hit-rate acceptance
  /// gate and run reports. Exact under any worker count: hits + misses is
  /// the number of catalog-message route lookups, the same inline or
  /// threaded.
  void count_hit() const { hits_.fetch_add(1, std::memory_order_relaxed); }
  void count_miss() const { misses_.fetch_add(1, std::memory_order_relaxed); }
  std::uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  std::uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  double hit_rate() const {
    const double h = static_cast<double>(hits());
    const double m = static_cast<double>(misses());
    return h + m > 0.0 ? h / (h + m) : 0.0;
  }
  std::size_t template_count() const { return table_.size(); }
  std::size_t valid_template_count() const;

 private:
  void rebuild();
  Template build_one(const MessageSpec& m, DcId origin, DcId owner) const;

  Topology* topology_;  // NOLINT(gdisim-snapshot-ptr) ARCHIVE-TRANSIENT: construction-time wiring
  const OperationCatalog* catalog_;  // NOLINT(gdisim-snapshot-ptr) ARCHIVE-TRANSIENT: construction-time wiring
  DcId master_dc_ = kInvalidDc;
  double instant_fraction_ = 0.0;
  std::uint32_t key_count_ = 0;
  DcId dc_count_ = 0;
  std::vector<Template> table_;  // ARCHIVE-TRANSIENT: derived cache, rebuilt on restore via compute_routes
  std::uint64_t epoch_ = 0;  // ARCHIVE-TRANSIENT: derived-cache validity counter
  // GDISIM-SHARED: relaxed diagnostic counters bumped from worker threads; never affect results
  mutable std::atomic<std::uint64_t> hits_{0};
  // GDISIM-SHARED: relaxed diagnostic counters bumped from worker threads; never affect results
  mutable std::atomic<std::uint64_t> misses_{0};
};

}  // namespace gdisim
