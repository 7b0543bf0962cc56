#include "config/compat.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "config/scenarios.h"
#include "core/archive.h"
#include "core/sim_loop.h"
#include "metrics/collector.h"

namespace gdisim {

namespace {

// %.17g round-trips every double exactly, so tick lines are stable across
// save and restore hosts.
std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

SnapshotCompat SnapshotCompat::describe(Scenario& scenario, const SimulationLoop& loop,
                                        const Collector& collector) {
  SnapshotCompat c;
  c.lines.push_back("format " + std::to_string(StateArchive::kFormatVersion));
  c.lines.push_back("tick " + fmt_double(scenario.tick_seconds));
  c.lines.push_back("scale " + fmt_double(scenario.scale));
  c.lines.push_back("master " + std::to_string(scenario.master_dc));
  c.lines.push_back("agents " + std::to_string(loop.agent_count()));
  for (std::size_t id = 0; id < loop.agent_count(); ++id) {
    c.lines.push_back("agent " + std::to_string(id) + " " +
                      loop.agent(static_cast<AgentId>(id))->name());
  }
  for (const auto& p : scenario.populations) {
    c.lines.push_back("population " + p->name() + " slots " + std::to_string(p->slot_count()));
  }
  for (std::size_t i = 0; i < collector.probe_count(); ++i) {
    c.lines.push_back("probe " + collector.series(i).label());
  }
  return c;
}

std::uint64_t SnapshotCompat::digest() const {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](unsigned char b) {
    h ^= b;
    h *= 0x100000001b3ull;
  };
  for (const std::string& line : lines) {
    for (char ch : line) mix(static_cast<unsigned char>(ch));
    mix(static_cast<unsigned char>('\n'));
  }
  return h;
}

std::string SnapshotCompat::diff(const SnapshotCompat& saved, const SnapshotCompat& current) {
  if (saved.lines == current.lines) return "";
  std::string out;
  const std::size_t n = std::max(saved.lines.size(), current.lines.size());
  int reported = 0;
  for (std::size_t i = 0; i < n && reported < 8; ++i) {
    const std::string& a = i < saved.lines.size() ? saved.lines[i] : "<absent>";
    const std::string& b = i < current.lines.size() ? current.lines[i] : "<absent>";
    if (a == b) continue;
    out += "  snapshot: " + a + "\n  scenario: " + b + "\n";
    ++reported;
  }
  if (reported == 8) out += "  ...\n";
  return out;
}

void SnapshotCompat::archive_state(StateArchive& ar) {
  ar.section("compat");
  std::size_t n = lines.size();
  ar.count(n);
  if (ar.reading()) lines.resize(n);
  for (std::string& line : lines) ar.str(line);
  // The digest travels alongside the lines as a quick header-level identity;
  // on read it must match the digest recomputed from the lines themselves.
  std::uint64_t d = digest();
  ar.u64(d);
  if (ar.reading() && d != digest()) {
    throw std::runtime_error("snapshot compat digest does not match its own lines");
  }
}

}  // namespace gdisim
