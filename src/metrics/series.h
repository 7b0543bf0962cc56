// Time series of sampled measurements (the Collector Component's output,
// thesis §4.3.1): raw samples plus snapshot averaging over windows.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/archive.h"

namespace gdisim {

struct Sample {
  double t_seconds = 0.0;
  double value = 0.0;
};

class TimeSeries {
 public:
  TimeSeries() = default;
  explicit TimeSeries(std::string label) : label_(std::move(label)) {}

  void append(double t_seconds, double value) { samples_.push_back({t_seconds, value}); }

  const std::vector<Sample>& samples() const { return samples_; }
  const std::string& label() const { return label_; }
  std::size_t size() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  /// Averages consecutive groups of `window` samples into snapshots — the
  /// thesis averages e.g. 600 intermediate samples into one reported
  /// snapshot and dismisses the intermediates.
  TimeSeries snapshot(std::size_t window) const;

  /// Mean of samples with t in [t0, t1).
  double mean_between(double t0, double t1) const;

  /// Standard deviation of samples with t in [t0, t1).
  double stddev_between(double t0, double t1) const;

  double max_value() const;

  /// Value series only (aligned comparisons).
  std::vector<double> values() const;

  /// Snapshot round trip of the accumulated samples; the label is structural
  /// (probes are re-registered by the scenario builder, not restored).
  void archive_state(StateArchive& ar) {
    ar.section("series");
    std::size_t n = samples_.size();
    ar.count(n);
    if (ar.reading()) samples_.resize(n);
    for (Sample& s : samples_) {
      ar.f64(s.t_seconds);
      ar.f64(s.value);
    }
  }

 private:
  std::string label_;  // ARCHIVE-TRANSIENT: construction-time identity
  std::vector<Sample> samples_;
};

}  // namespace gdisim
