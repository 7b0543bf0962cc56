// Deterministic mutation driver for GdiSimulator::restore.
//
// Seeds are the save_state() payloads of the shipped configs/*.gdisim
// scenarios after 0.05 simulated hours. Each mutant stacks one to three
// edits drawn from a fixed-seed gdisim::Rng: a flipped bit, an 8-byte
// window set to 0x00, 0xFF or random bytes, a truncation, or a deleted or
// duplicated span of up to 16 bytes. The mutant is re-sealed as a snapshot
// file (fresh header and checksum), so it passes the file checks and reaches
// the decoders. The restore contract is "load, or throw a located error and
// change nothing": every restore(path) either loads, or throws
// std::runtime_error whose message starts with `path:byte `, after which
// save_state() equals the bytes from before the call. A crash, an abort,
// another exception type or a sanitizer report is a decoder bug; each one
// found is pinned as a case in ArchiveCorruption.*. Whether a mutant that
// loads holds a meaningful state is not checked here.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "config/loader.h"
#include "core/archive.h"
#include "core/rng.h"
#include "sim/gdisim.h"

namespace gdisim {
namespace {

constexpr std::size_t kMutants = 2000;
constexpr double kSeedHours = 0.05;

std::vector<std::filesystem::path> seed_configs() {
  std::vector<std::filesystem::path> paths;
  for (const auto& entry :
       std::filesystem::directory_iterator(GDISIM_SOURCE_DIR "/configs")) {
    if (entry.path().extension() == ".gdisim") paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

using Bytes = std::vector<std::uint8_t>;

void mutate_once(Bytes& b, Rng& rng) {
  if (b.empty()) return;
  const std::uint64_t op = rng.next_below(6);
  switch (op) {
    case 0: {  // bit flip
      b[rng.next_below(b.size())] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
      return;
    }
    case 1:    // 8-byte window of 0x00
    case 2:    // 8-byte window of 0xFF
    case 3: {  // 8-byte window of random bytes
      const std::size_t at = rng.next_below(b.size());
      for (std::size_t i = at; i < std::min<std::size_t>(b.size(), at + 8); ++i) {
        b[i] = op == 1   ? std::uint8_t{0x00}
               : op == 2 ? std::uint8_t{0xFF}
                         : static_cast<std::uint8_t>(rng.next_below(256));
      }
      return;
    }
    case 4: {  // truncation
      b.resize(rng.next_below(b.size()));
      return;
    }
    default: {  // delete or duplicate a span of 1..16 bytes
      const std::size_t at = rng.next_below(b.size());
      const std::size_t len = std::min<std::size_t>(1 + rng.next_below(16), b.size() - at);
      const auto first = b.begin() + static_cast<std::ptrdiff_t>(at);
      const auto last = first + static_cast<std::ptrdiff_t>(len);
      if (rng.next_below(2) == 0) {
        b.erase(first, last);
      } else {
        const Bytes span(first, last);
        b.insert(last, span.begin(), span.end());
      }
      return;
    }
  }
}

TEST(RestoreMutation, EveryMutantLoadsOrFailsWithLocatedError) {
  const auto configs = seed_configs();
  ASSERT_GE(configs.size(), 2u);
  std::vector<std::unique_ptr<GdiSimulator>> sims;
  std::vector<Bytes> seeds;
  std::vector<Bytes> before;  // each simulator's save_state() before the next restore
  for (const auto& path : configs) {
    sims.push_back(std::make_unique<GdiSimulator>(load_scenario_file(path.string())));
    sims.back()->run_until_seconds(kSeedHours * 3600.0);
    seeds.push_back(sims.back()->save_state());
    before.push_back(sims.back()->save_state());
  }

  const std::string path = std::string(::testing::TempDir()) + "restore_mutant.gdisnap";
  Rng rng(20112);
  std::size_t loaded = 0, rejected = 0;
  for (std::size_t m = 0; m < kMutants; ++m) {
    const std::size_t s = m % seeds.size();
    Bytes mutant = seeds[s];
    const std::size_t edits = 1 + rng.next_below(3);
    for (std::size_t e = 0; e < edits; ++e) mutate_once(mutant, rng);
    StateArchive::reader(mutant).write_to_file(path);
    GdiSimulator& sim = *sims[s];
    try {
      sim.restore(path);
      ++loaded;
      // A loaded mutant may hold any state; start the next one from the seed.
      sim.load_state(seeds[s]);
      before[s] = sim.save_state();
    } catch (const std::runtime_error& e) {
      ++rejected;
      const std::string what = e.what();
      EXPECT_EQ(what.rfind(path + ":byte ", 0), 0u)
          << "mutant " << m << " of " << configs[s].filename() << ": unlocated error '" << what
          << "'";
      // Decoders bound every index with a named field, so a standard-library
      // bounds check never stands in for the diagnostic.
      EXPECT_EQ(what.find("_M_range_check"), std::string::npos)
          << "mutant " << m << " of " << configs[s].filename() << ": unnamed index '" << what
          << "'";
      EXPECT_TRUE(sim.save_state() == before[s])
          << "mutant " << m << " of " << configs[s].filename()
          << ": failed restore changed the state ('" << what << "')";
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutant " << m << " of " << configs[s].filename()
                    << ": restore threw a non-runtime_error '" << e.what() << "'";
      sim.load_state(seeds[s]);
      before[s] = sim.save_state();
    }
  }
  std::remove(path.c_str());
  // Both outcomes must actually occur, or the edits are too weak (or too
  // destructive) to exercise the decoders.
  EXPECT_GT(loaded, kMutants / 20);
  EXPECT_GT(rejected, kMutants / 4);
  std::cout << "mutants: " << loaded << " loaded, " << rejected << " rejected\n";
}

}  // namespace
}  // namespace gdisim
