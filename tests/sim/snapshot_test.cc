// Per-layer snapshot round trips (DESIGN.md §8). Each test archives
// mid-flight state, restores it into a freshly constructed object, and
// asserts (a) the re-snapshot is byte-identical — nothing was lost or
// reordered — and (b) the restored object behaves exactly like the original
// from that point on.
#include "sim/snapshot.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "config/compat.h"
#include "config/loader.h"
#include "core/archive.h"
#include "core/rng.h"
#include "hardware/link.h"
#include "hardware/nic.h"
#include "hardware/raid.h"
#include "hardware/san.h"
#include "hardware/topology.h"
#include "queueing/fork_join.h"
#include "sim/fingerprint.h"
#include "sim/gdisim.h"

namespace gdisim {
namespace {

// ---------------------------------------------------------------------------
// StateArchive itself.

TEST(StateArchive, PrimitivesRoundTrip) {
  StateArchive w(StateArchive::Mode::kWrite);
  std::uint8_t a = 0x7f;
  std::uint32_t b = 0xdeadbeef;
  std::uint64_t c = 0x0123456789abcdefULL;
  std::int64_t d = -42;
  double e = 3.141592653589793;
  bool f = true;
  std::string g = "two words";
  std::size_t h = 77;
  w.section("prim");
  w.u8(a);
  w.u32(b);
  w.u64(c);
  w.i64(d);
  w.f64(e);
  w.boolean(f);
  w.str(g);
  w.size_value(h);

  StateArchive r = StateArchive::reader(w.payload());
  std::uint8_t a2 = 0;
  std::uint32_t b2 = 0;
  std::uint64_t c2 = 0;
  std::int64_t d2 = 0;
  double e2 = 0;
  bool f2 = false;
  std::string g2;
  std::size_t h2 = 0;
  r.section("prim");
  r.u8(a2);
  r.u32(b2);
  r.u64(c2);
  r.i64(d2);
  r.f64(e2);
  r.boolean(f2);
  r.str(g2);
  r.size_value(h2);
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(a2, a);
  EXPECT_EQ(b2, b);
  EXPECT_EQ(c2, c);
  EXPECT_EQ(d2, d);
  EXPECT_EQ(e2, e);
  EXPECT_EQ(f2, f);
  EXPECT_EQ(g2, g);
  EXPECT_EQ(h2, h);
}

TEST(StateArchive, SectionMismatchNamesBothSides) {
  StateArchive w(StateArchive::Mode::kWrite);
  w.section("written");
  StateArchive r = StateArchive::reader(w.payload());
  try {
    r.section("expected");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("written"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("expected"), std::string::npos) << e.what();
  }
}

TEST(StateArchive, FileWrapperDetectsCorruption) {
  StateArchive w(StateArchive::Mode::kWrite);
  std::uint64_t v = 12345;
  w.u64(v);
  const std::string path = std::string(::testing::TempDir()) + "corrupt.gdisnap";
  w.write_to_file(path);

  // A clean read works.
  StateArchive ok = StateArchive::read_file(path);
  std::uint64_t v2 = 0;
  ok.u64(v2);
  EXPECT_EQ(v2, v);

  // Flip one payload byte: the checksum must catch it.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(0, std::ios::end);
    const auto size = static_cast<long>(f.tellg());
    f.seekp(size / 2);
    char byte = 0;
    f.seekg(size / 2);
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(size / 2);
    f.write(&byte, 1);
  }
  EXPECT_THROW(StateArchive::read_file(path), std::runtime_error);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// RNG stream.

TEST(SnapshotLayer, RngStreamRoundTrip) {
  Rng a(12345);
  for (int i = 0; i < 17; ++i) (void)a.next_u64();  // advance mid-stream

  StateArchive w(StateArchive::Mode::kWrite);
  a.archive_state(w);

  Rng b(999);  // deliberately different seed; restore overwrites position
  StateArchive r = StateArchive::reader(w.payload());
  b.archive_state(r);
  EXPECT_TRUE(r.exhausted());

  StateArchive w2(StateArchive::Mode::kWrite);
  b.archive_state(w2);
  EXPECT_EQ(w.payload(), w2.payload());

  for (int i = 0; i < 32; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
  EXPECT_EQ(a.next_exponential(3.0), b.next_exponential(3.0));
}

// ---------------------------------------------------------------------------
// Fork-join queue mid-branch.

JobCtx make_ctx(std::uint64_t i) {
  return reinterpret_cast<JobCtx>(static_cast<std::intptr_t>(i));
}

TEST(SnapshotLayer, ForkJoinMidBranchRoundTrip) {
  ForkJoinQueue a(4, 100.0);
  a.enqueue(400.0, make_ctx(1));
  a.enqueue(200.0, make_ctx(2));
  const auto mid = a.advance(0.5);  // half of job 1 served; both joins live
  EXPECT_TRUE(mid.completed.empty());

  const JobCtxEncoder enc = [](JobCtx c) {
    return static_cast<std::uint64_t>(reinterpret_cast<std::intptr_t>(c));
  };
  const JobCtxDecoder dec = [](std::uint64_t v) { return make_ctx(v); };

  StateArchive w(StateArchive::Mode::kWrite);
  a.archive_state(w, enc, dec);

  ForkJoinQueue b(4, 100.0);
  StateArchive r = StateArchive::reader(w.payload());
  b.archive_state(r, enc, dec);
  EXPECT_TRUE(r.exhausted());

  StateArchive w2(StateArchive::Mode::kWrite);
  b.archive_state(w2, enc, dec);
  EXPECT_EQ(w.payload(), w2.payload());

  // Identical behaviour from the restore point: same completions, same
  // utilization, step by step.
  for (int step = 0; step < 4; ++step) {
    const auto ra = a.advance(0.5);
    const auto rb = b.advance(0.5);
    EXPECT_EQ(ra.completed, rb.completed) << "step " << step;
    EXPECT_DOUBLE_EQ(a.last_utilization(), b.last_utilization()) << "step " << step;
  }
  EXPECT_EQ(a.total_jobs(), b.total_jobs());
  EXPECT_EQ(a.completed_jobs(), b.completed_jobs());
}

// ---------------------------------------------------------------------------
// A single hardware component mid-service, including an undrained inbox.

struct RecordingHandler final : StageCompletionHandler {
  std::vector<std::pair<Tick, std::uint64_t>> done;
  void on_stage_complete(Component& /*at*/, Tick now, std::uint64_t tag) override {
    done.emplace_back(now, tag);
  }
};

TEST(SnapshotLayer, SingleComponentMidServiceRoundTrip) {
  NicSpec spec;
  spec.rate_bps = 1000.0;  // 100 bits per 0.1 s tick

  NicComponent a(spec);
  a.set_tick_seconds(0.1);
  a.set_id(3);
  RecordingHandler ha;
  a.submit(0, /*sender=*/1, /*seq=*/0, StageJob{600.0, &ha, 11, 1});
  a.submit(0, 1, 1, StageJob{250.0, &ha, 22, 1});
  a.on_interactions(0);
  a.on_tick(1);  // 100 of 600 bits served: mid-service
  // A delivery that is still sitting in the inbox at snapshot time.
  a.submit(5, 1, 2, StageJob{100.0, &ha, 33, 1});

  HandlerRegistry rega;
  rega.bind(/*owner=*/7, /*serial=*/1, &ha);
  StateArchive w(StateArchive::Mode::kWrite);
  a.archive_state(w, rega);

  NicComponent b(spec);
  b.set_tick_seconds(0.1);
  b.set_id(3);
  RecordingHandler hb;
  HandlerRegistry regb;
  regb.bind(7, 1, &hb);
  StateArchive r = StateArchive::reader(w.payload());
  b.archive_state(r, regb);
  EXPECT_TRUE(r.exhausted());

  StateArchive w2(StateArchive::Mode::kWrite);
  b.archive_state(w2, regb);
  EXPECT_EQ(w.payload(), w2.payload());

  // Drive both through the same phases; completions must land on the same
  // ticks with the same tags, resolved through each side's own handler.
  for (Tick t = 2; t <= 15; ++t) {
    a.on_tick(t);
    a.on_interactions(t);
    b.on_tick(t);
    b.on_interactions(t);
    EXPECT_DOUBLE_EQ(a.utilization(), b.utilization()) << "tick " << t;
  }
  EXPECT_EQ(ha.done, hb.done);
  EXPECT_EQ(ha.done.size(), 3u);  // all three jobs completed on both sides
  EXPECT_EQ(a.queue_length(), 0u);
  EXPECT_EQ(b.queue_length(), 0u);
}

// ---------------------------------------------------------------------------
// Background daemon mid-synchrep (full-stack mini scenario).

constexpr const char* kMiniScenario = R"(
tick 0.02
seed 5
master A

datacenter A
  switch 40
  san 1 8 15000
  tier app 1 2 8
  tier db 1 2 8
  tier fs 1 2 8
  tier idx 1 2 8
end

datacenter B
  switch 40
  san 1 8 15000
  tier fs 1 2 8
end

link A B 0.155 40 0.2

population P@B B CAD 5
  think 10
  size 25
end

growth A 2000
synchrep A 30
indexbuild A 15
)";

std::unique_ptr<GdiSimulator> make_mini(double think_s = 10.0) {
  std::string text = kMiniScenario;
  if (think_s != 10.0) {
    const auto pos = text.find("think 10");
    text.replace(pos, 8, "think " + std::to_string(static_cast<int>(think_s)));
  }
  std::istringstream is(text);
  Scenario s = load_scenario(is, "<mini>");
  return std::make_unique<GdiSimulator>(std::move(s), SimulatorConfig{});
}

TEST(SnapshotLayer, DaemonMidSynchrepRoundTrip) {
  // 45 s is mid-way through the second 30 s synchrep window, with client
  // operations, daemon cascades and the indexbuild all in flight.
  auto a = make_mini();
  a->run_until_seconds(45.0);
  const std::vector<std::uint8_t> snap = a->save_state();

  auto b = make_mini();
  b->load_state(snap);
  EXPECT_DOUBLE_EQ(b->now_seconds(), a->now_seconds());
  EXPECT_EQ(b->save_state(), snap);  // byte-identical re-snapshot

  // Equivalence from the restore point onward.
  a->run_until_seconds(90.0);
  b->run_until_seconds(90.0);
  EXPECT_EQ(result_fingerprint(*a), result_fingerprint(*b));
}

bool is_disk(Component* c) {
  return dynamic_cast<RaidComponent*>(c) != nullptr || dynamic_cast<SanComponent*>(c) != nullptr;
}

/// True when some component that `want` accepts has a job in flight.
template <typename Want>
bool any_busy(GdiSimulator& sim, Want want) {
  for (Component* c : sim.scenario().topology->all_components()) {
    if (want(c) && c->queue_length() > 0) return true;
  }
  return false;
}

/// Runs `sim` to 30 s, then on in 0.5 s steps until any_busy (at most to
/// 600 s); returns the simulated time reached.
template <typename Want>
double run_until_busy(GdiSimulator& sim, Want want) {
  double t = 30.0;
  sim.run_until_seconds(t);
  while (!any_busy(sim, want) && t < 600.0) sim.run_until_seconds(t += 0.5);
  return t;
}

// A load replaces the in-flight jobs of every pooled discipline. RAID and
// SAN report their pool's live count as queue length, so a job the load
// orphaned would keep them busy (and scheduled every tick) forever.
TEST(SnapshotLayer, RepeatedLoadsDoNotOrphanPooledJobs) {
  auto src = make_mini();
  const double t = run_until_busy(*src, is_disk);
  ASSERT_TRUE(any_busy(*src, is_disk)) << "no RAID or SAN job in flight by " << t << " s";
  const std::vector<std::uint8_t> snap = src->save_state();

  auto once = make_mini();
  once->load_state(snap);
  auto many = make_mini();
  for (int i = 0; i < 50; ++i) many->load_state(snap);

  const auto once_components = once->scenario().topology->all_components();
  const auto many_components = many->scenario().topology->all_components();
  ASSERT_EQ(once_components.size(), many_components.size());
  for (std::size_t i = 0; i < once_components.size(); ++i) {
    EXPECT_EQ(many_components[i]->queue_length(), once_components[i]->queue_length())
        << many_components[i]->name();
  }
  EXPECT_EQ(many->save_state(), once->save_state());

  once->run_until_seconds(t + 600.0);
  many->run_until_seconds(t + 600.0);
  const auto& once_runs = once->loop().scheduler_stats().per_agent_runs;
  const auto& many_runs = many->loop().scheduler_stats().per_agent_runs;
  for (Component* c : many_components) {
    if (!is_disk(c)) continue;
    EXPECT_EQ(many_runs.at(c->id()), once_runs.at(c->id())) << c->name();
  }
  EXPECT_EQ(result_fingerprint(*many), result_fingerprint(*once));
}

// ---------------------------------------------------------------------------
// Archive corruption: a payload that fails mid-decode must be rejected
// cleanly — the live simulator keeps its exact pre-load state (transactional
// rollback in GdiSimulator::load_state) and stays deterministic afterwards.

// Locates genuine section frames in a payload: kSectionMagic (0x5EC7105E,
// little-endian) followed by a plausible length-prefixed printable label.
std::vector<std::size_t> section_starts(const std::vector<std::uint8_t>& p) {
  static const std::uint8_t magic[4] = {0x5e, 0x10, 0xc7, 0x5e};
  std::vector<std::size_t> starts;
  for (std::size_t i = 0; i + 12 <= p.size(); ++i) {
    if (std::memcmp(p.data() + i, magic, 4) != 0) continue;
    std::uint64_t len = 0;
    for (int k = 0; k < 8; ++k) len |= static_cast<std::uint64_t>(p[i + 4 + k]) << (8 * k);
    if (len == 0 || len > 64 || i + 12 + len > p.size()) continue;
    bool printable = true;
    for (std::uint64_t k = 0; k < len; ++k) {
      const std::uint8_t c = p[i + 12 + k];
      if (c < 0x20 || c > 0x7e) {
        printable = false;
        break;
      }
    }
    if (printable) starts.push_back(i);
  }
  return starts;
}

// At most `n` evenly spaced picks, always including the first and last.
std::vector<std::size_t> sample(const std::vector<std::size_t>& v, std::size_t n) {
  if (v.size() <= n) return v;
  std::vector<std::size_t> out;
  for (std::size_t k = 0; k < n; ++k) out.push_back(v[k * (v.size() - 1) / (n - 1)]);
  return out;
}

TEST(ArchiveCorruption, PerSectionTruncationRollsBack) {
  auto sim = make_mini();
  sim->run_until_seconds(45.0);
  const std::vector<std::uint8_t> snap = sim->save_state();
  const auto sections = sample(section_starts(snap), 10);
  ASSERT_GT(sections.size(), 3u);

  // Cut the payload inside each sampled section frame, plus one byte short
  // of complete. Every truncated decode must throw, and after the throw the
  // simulator's state must be byte-identical to what it was before the
  // failed load — no partial mutation.
  std::vector<std::size_t> cuts;
  for (const std::size_t s : sections) cuts.push_back(s + 2);
  cuts.push_back(snap.size() - 1);
  for (const std::size_t cut : cuts) {
    const std::vector<std::uint8_t> truncated(snap.begin(),
                                              snap.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_THROW(sim->load_state(truncated), std::runtime_error) << "cut at " << cut;
    EXPECT_EQ(sim->save_state(), snap) << "cut at " << cut;
  }

  // The survivor behaves exactly like a simulator that never saw a bad load.
  auto control = make_mini();
  control->load_state(snap);
  sim->run_until_seconds(90.0);
  control->run_until_seconds(90.0);
  EXPECT_EQ(result_fingerprint(*sim), result_fingerprint(*control));
}

TEST(ArchiveCorruption, BitFlipRollsBack) {
  auto sim = make_mini();
  sim->run_until_seconds(45.0);
  const std::vector<std::uint8_t> snap = sim->save_state();
  const auto sections = sample(section_starts(snap), 8);
  ASSERT_GT(sections.size(), 3u);

  // Flip a bit in each sampled section's magic (stream desync) and in the
  // first byte of its label (section-name mismatch). Both corruptions are
  // guaranteed to be caught by the section framing mid-decode, which is the
  // interesting failure point: some state has already been overwritten when
  // the throw happens, so only the rollback keeps the simulator intact.
  for (const std::size_t s : sections) {
    for (const std::size_t off : {s, s + 12}) {
      std::vector<std::uint8_t> flipped = snap;
      flipped[off] ^= 0x01;
      EXPECT_THROW(sim->load_state(flipped), std::runtime_error) << "flip at " << off;
      EXPECT_EQ(sim->save_state(), snap) << "flip at " << off;
    }
  }
}

// Offsets just past the label of every `name` section frame.
std::vector<std::size_t> section_bodies(const std::vector<std::uint8_t>& p,
                                        const std::string& name) {
  std::vector<std::size_t> bodies;
  for (const std::size_t s : section_starts(p)) {
    if (p[s + 4] == name.size() &&
        std::memcmp(p.data() + s + 12, name.data(), name.size()) == 0) {
      bodies.push_back(s + 12 + name.size());
    }
  }
  return bodies;
}

std::uint64_t get_u64(const std::vector<std::uint8_t>& p, std::size_t at) {
  std::uint64_t v = 0;
  for (int k = 0; k < 8; ++k) v |= static_cast<std::uint64_t>(p[at + k]) << (8 * k);
  return v;
}

/// Copy of `p` with the `width`-byte little-endian field at `at` set to `v`.
std::vector<std::uint8_t> patched(std::vector<std::uint8_t> p, std::size_t at, std::uint64_t v,
                                  int width = 8) {
  for (int k = 0; k < width; ++k) p[at + k] = static_cast<std::uint8_t>(v >> (8 * k));
  return p;
}

/// Offset of the first branch's stage count in an "op_instance" frame
/// (OperationInstance::archive_state: start tick, step index, repeats,
/// outstanding, branch count, then msg_idx, stage_idx, local_seq, the
/// held-memory flag (+ key), held bytes and the 32-byte rng), or 0 when
/// the instance has no live branch. The stage target ids follow the count.
std::size_t first_stage_count(const std::vector<std::uint8_t>& p, std::size_t body) {
  if (get_u64(p, body + 24) == 0) return 0;
  const std::size_t held_flag = body + 32 + 8 + 8 + 4;
  return held_flag + 1 + (p[held_flag] != 0 ? 4 : 0) + 8 + 32;
}

/// The mini scenario 45 s in, its payload, and the rejection check.
struct MidRun {
  MidRun() : sim(make_mini()) {
    sim->run_until_seconds(45.0);
    snap = sim->save_state();
  }
  void expect_rejected(const std::vector<std::uint8_t>& bad, const std::string& what) {
    EXPECT_THROW(sim->load_state(bad), std::runtime_error) << what;
    EXPECT_EQ(sim->save_state(), snap) << what;
  }
  std::unique_ptr<GdiSimulator> sim;
  std::vector<std::uint8_t> snap;
};

// Decoder bugs the restore mutation driver (restore_mutation_test.cc)
// found, each pinned: a step index past the end of the cascade indexed the
// spec out of range, a huge element count sized a container before any
// element was read, a stage target id was used without checking that it
// names a hardware component, and a CPU job index far past the jobs seen
// so far allocated pool entries up to it (gigabytes). Each corrupt payload
// must now fail with a runtime_error and roll back.
TEST(ArchiveCorruption, StepPastCascadeEndRollsBack) {
  MidRun m;
  const auto ops = section_bodies(m.snap, "op_instance");
  ASSERT_FALSE(ops.empty());
  for (const std::size_t body : ops) {
    m.expect_rejected(patched(m.snap, body + 8, std::uint64_t{1} << 40),
                      "op at " + std::to_string(body));
  }
}

TEST(ArchiveCorruption, HugeElementCountRollsBack) {
  MidRun m;
  // A section label's length prefix (StateArchive::str) and an operation
  // branch's stage count.
  std::vector<std::size_t> counts = {section_starts(m.snap).at(5) + 4};
  for (const std::size_t body : section_bodies(m.snap, "op_instance")) {
    if (const std::size_t at = first_stage_count(m.snap, body)) {
      counts.push_back(at);
      break;
    }
  }
  ASSERT_EQ(counts.size(), 2u);
  for (const std::size_t at : counts) {
    for (const std::uint64_t n : {~std::uint64_t{0} - 7, std::uint64_t{m.snap.size()}}) {
      m.expect_rejected(patched(m.snap, at, n),
                        "count " + std::to_string(n) + " at " + std::to_string(at));
    }
  }
}

TEST(ArchiveCorruption, StageTargetMustBeAComponent) {
  MidRun m;
  std::size_t target = 0;
  for (const std::size_t body : section_bodies(m.snap, "op_instance")) {
    const std::size_t at = first_stage_count(m.snap, body);
    if (at != 0 && get_u64(m.snap, at) > 0) {
      target = at + 8;
      break;
    }
  }
  ASSERT_NE(target, 0u);
  const AgentId population = m.sim->scenario().populations.front()->id();
  for (const AgentId id : {population, AgentId{0xFFFFFFF0u}}) {
    m.expect_rejected(patched(m.snap, target, id, 4), "target " + std::to_string(id));
  }
}

TEST(ArchiveCorruption, CpuJobIndexSkippingAheadRollsBack) {
  MidRun m;
  // The job index of the first queued job in a CPU socket queue: an "fcfs"
  // frame right after a "cpu" frame, with its in-service count (u64) then
  // (remaining, job index, seq) per job.
  const auto cpus = section_bodies(m.snap, "cpu");
  for (const std::size_t fcfs : section_bodies(m.snap, "fcfs")) {
    const bool in_cpu = std::any_of(cpus.begin(), cpus.end(),
                                    [fcfs](std::size_t c) { return c < fcfs && fcfs - c < 64; });
    if (in_cpu && get_u64(m.snap, fcfs) > 0) {
      m.expect_rejected(patched(m.snap, fcfs + 16, std::uint64_t{1} << 40), "cpu job index");
      return;
    }
  }
  FAIL() << "no queued CPU job in the snapshot";
}

/// Offset of the first job index in a "ps" frame, or 0 when it holds no
/// job. The active, waiting and latency-pipe lists follow in that order,
/// each a u64 count then (double, job index, seq) per job.
std::size_t first_ps_job_index(const std::vector<std::uint8_t>& p, std::size_t body) {
  for (std::size_t at = body; at < body + 24; at += 8) {
    if (get_u64(p, at) > 0) return at + 16;
  }
  return 0;
}

TEST(ArchiveCorruption, StageJobIndexOutOfRangeNamesTheField) {
  // Links are the only PS stations; their job indices point into the
  // link's stage-job table, which precedes the "ps" frame.
  auto sim = make_mini();
  const auto is_link = [](Component* c) { return dynamic_cast<LinkComponent*>(c) != nullptr; };
  const double t = run_until_busy(*sim, is_link);
  ASSERT_TRUE(any_busy(*sim, is_link)) << "no link job in flight by " << t << " s";
  const std::vector<std::uint8_t> snap = sim->save_state();
  for (const std::size_t ps : section_bodies(snap, "ps")) {
    const std::size_t at = first_ps_job_index(snap, ps);
    if (at == 0) continue;
    try {
      sim->load_state(patched(snap, at, std::uint64_t{1} << 40));
      ADD_FAILURE() << "out-of-range stage-job index loaded";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("stage-job index"), std::string::npos) << e.what();
    }
    EXPECT_EQ(sim->save_state(), snap);
    return;
  }
  FAIL() << "no link job in the snapshot's ps frames";
}

TEST(ArchiveCorruption, RestoreDiagnosticsNameFileAndByteOffset) {
  auto sim = make_mini();
  sim->run_until_seconds(10.0);
  const std::string path = std::string(::testing::TempDir()) + "diag.gdisnap";
  sim->checkpoint(path);

  // Truncate the file: the header validator reports `path:byte N: why`, the
  // same source:position shape the scenario loader uses.
  {
    std::ifstream in(path, std::ios::binary);
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    ASSERT_GT(bytes.size(), 9u);
    bytes.resize(bytes.size() - 9);  // lose the checksum and one payload byte
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  try {
    sim->restore(path);
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_EQ(msg.rfind(path + ":byte ", 0), 0u) << msg;
  }
  EXPECT_DOUBLE_EQ(sim->now_seconds(), 10.0);  // pre-restore state survives

  // A file from another format version is rejected at the version field
  // (bytes 8-11, after the magic), before any state is touched.
  sim->checkpoint(path);
  {
    std::fstream io(path, std::ios::binary | std::ios::in | std::ios::out);
    const char old_version[4] = {2, 0, 0, 0};
    io.seekp(8);
    io.write(old_version, sizeof(old_version));
  }
  try {
    sim->restore(path);
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), path + ":byte 8: format version 2, this build reads 3");
  }
  EXPECT_DOUBLE_EQ(sim->now_seconds(), 10.0);

  // A well-formed file whose payload fails mid-decode gains the same prefix,
  // with the stream cursor as the offset.
  {
    StateArchive junk(StateArchive::Mode::kWrite);
    std::uint64_t v = 7;
    junk.u64(v);
    junk.write_to_file(path);
  }
  try {
    sim->restore(path);
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_EQ(msg.rfind(path + ":byte ", 0), 0u) << msg;
  }
  EXPECT_DOUBLE_EQ(sim->now_seconds(), 10.0);
  std::remove(path.c_str());

  // A missing file names the path.
  try {
    sim->restore("/nonexistent/nope.gdisnap");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("/nonexistent/nope.gdisnap"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Compat descriptor.

TEST(SnapshotCompatTest, DiffIsEmptyForEqualDescriptors) {
  SnapshotCompat a;
  a.lines = {"tick 0.02", "agents 3"};
  EXPECT_EQ(SnapshotCompat::diff(a, a), "");
}

TEST(SnapshotCompatTest, DiffReportsBothSides) {
  SnapshotCompat a, b;
  a.lines = {"tick 0.02", "agent 0 cpu/A"};
  b.lines = {"tick 0.02", "agent 0 cpu/B"};
  const std::string d = SnapshotCompat::diff(a, b);
  EXPECT_NE(d.find("cpu/A"), std::string::npos) << d;
  EXPECT_NE(d.find("cpu/B"), std::string::npos) << d;
  EXPECT_NE(a.digest(), b.digest());
}

TEST(SnapshotCompatTest, RoundTripsThroughArchive) {
  SnapshotCompat a;
  a.lines = {"tick 0.05", "agents 7", "probe cpu/A/app"};
  StateArchive w(StateArchive::Mode::kWrite);
  a.archive_state(w);
  SnapshotCompat b;
  StateArchive r = StateArchive::reader(w.payload());
  b.archive_state(r);
  EXPECT_EQ(a.lines, b.lines);
  EXPECT_EQ(a.digest(), b.digest());
}

}  // namespace
}  // namespace gdisim
