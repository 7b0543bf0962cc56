// Freshness ledger: tracks the effectiveness metrics of background jobs
// (thesis §6.3.3): R_SR — the maximum time a stale file version can survive
// in a data center — and R_IB — the maximum time new data remains
// unsearchable. A run that covers content modified since `cover_from` and
// finishes at `done` exposes a worst-case window of (done - cover_from).
#pragma once

#include <vector>

#include "core/archive.h"
#include "hardware/datacenter.h"

namespace gdisim {

struct BackgroundRunRecord {
  double launch_hour = 0.0;
  double duration_s = 0.0;
  double cover_from_hour = 0.0;
  double cover_to_hour = 0.0;
  double total_mb = 0.0;
  std::vector<std::pair<DcId, double>> pull_mb;
  std::vector<std::pair<DcId, double>> push_mb;

  /// Worst-case exposure of a file covered by this run, seconds.
  double exposure_s() const {
    return duration_s + (cover_to_hour - cover_from_hour) * 3600.0;
  }

  void archive_state(StateArchive& ar) {
    ar.f64(launch_hour);
    ar.f64(duration_s);
    ar.f64(cover_from_hour);
    ar.f64(cover_to_hour);
    ar.f64(total_mb);
    auto rw_legs = [&ar](std::vector<std::pair<DcId, double>>& legs) {
      std::size_t n = legs.size();
      ar.count(n);
      if (ar.reading()) legs.resize(n);
      for (auto& [dc, mb] : legs) {
        ar.u32(dc);
        ar.f64(mb);
      }
    };
    rw_legs(pull_mb);
    rw_legs(push_mb);
  }
};

class FreshnessLedger {
 public:
  void record(BackgroundRunRecord rec) { runs_.push_back(std::move(rec)); }

  const std::vector<BackgroundRunRecord>& runs() const { return runs_; }

  /// max over runs of exposure — R^max of §6.5.3 / §7.4.3.
  double max_exposure_s() const;

  /// Longest single run, seconds.
  double max_duration_s() const;

  void archive_state(StateArchive& ar) {
    ar.section("ledger");
    std::size_t n = runs_.size();
    ar.count(n);
    if (ar.reading()) runs_.resize(n);
    for (BackgroundRunRecord& rec : runs_) rec.archive_state(ar);
  }

 private:
  std::vector<BackgroundRunRecord> runs_;
};

}  // namespace gdisim
