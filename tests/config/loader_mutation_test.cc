// Deterministic mutation driver for the scenario loader.
//
// Seeds are the shipped configs/*.gdisim files. Each mutant stacks one to
// three edits drawn from a fixed-seed gdisim::Rng: a flipped bit in one
// byte, a deleted or duplicated line, two swapped tokens, or a numeric token
// replaced by an extreme value. The loader's contract is "load, or throw a
// located error": every mutant must either build a scenario or throw
// std::invalid_argument whose message starts with `<source>:<line>:`. A
// crash, an abort, another exception type or an unlocated message is a
// loader bug; each one found is pinned in Loader.RejectsMalformedInput.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "config/loader.h"
#include "core/rng.h"

namespace gdisim {
namespace {

constexpr std::size_t kMutants = 3000;

std::vector<std::string> seed_configs() {
  std::vector<std::filesystem::path> paths;
  for (const auto& entry :
       std::filesystem::directory_iterator(GDISIM_SOURCE_DIR "/configs")) {
    if (entry.path().extension() == ".gdisim") paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  std::vector<std::string> texts;
  for (const auto& p : paths) {
    std::ifstream in(p);
    std::stringstream ss;
    ss << in.rdbuf();
    texts.push_back(ss.str());
  }
  return texts;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) lines.push_back(line);
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string out;
  for (const auto& l : lines) out += l + "\n";
  return out;
}

/// Byte offsets [begin, end) of every whitespace-separated token.
std::vector<std::pair<std::size_t, std::size_t>> token_spans(const std::string& text) {
  std::vector<std::pair<std::size_t, std::size_t>> spans;
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i]))) ++i;
    const std::size_t begin = i;
    while (i < text.size() && !std::isspace(static_cast<unsigned char>(text[i]))) ++i;
    if (i > begin) spans.emplace_back(begin, i);
  }
  return spans;
}

bool looks_numeric(const std::string& token) {
  return !token.empty() &&
         (std::isdigit(static_cast<unsigned char>(token[0])) || token[0] == '-' ||
          token[0] == '.');
}

std::string mutate_once(const std::string& text, Rng& rng) {
  if (text.empty()) return text;
  switch (rng.next_below(5)) {
    case 0: {  // byte flip
      std::string out = text;
      const std::size_t at = rng.next_below(out.size());
      out[at] = static_cast<char>(out[at] ^ (1u << rng.next_below(8)));
      return out;
    }
    case 1: {  // line delete
      auto lines = split_lines(text);
      if (lines.empty()) return text;
      lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(rng.next_below(lines.size())));
      return join_lines(lines);
    }
    case 2: {  // line duplicate
      auto lines = split_lines(text);
      if (lines.empty()) return text;
      const std::size_t at = rng.next_below(lines.size());
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at), lines[at]);
      return join_lines(lines);
    }
    case 3: {  // token swap
      const auto spans = token_spans(text);
      if (spans.size() < 2) return text;
      auto a = spans[rng.next_below(spans.size())];
      auto b = spans[rng.next_below(spans.size())];
      if (a.first > b.first) std::swap(a, b);
      if (a.first == b.first) return text;
      return text.substr(0, a.first) + text.substr(b.first, b.second - b.first) +
             text.substr(a.second, b.first - a.second) +
             text.substr(a.first, a.second - a.first) + text.substr(b.second);
    }
    default: {  // numeric token -> extreme value
      static const char* const kExtremes[] = {"-1", "0", "nan", "1e308",
                                              "18446744073709551616"};
      std::vector<std::pair<std::size_t, std::size_t>> numeric;
      for (const auto& span : token_spans(text)) {
        if (looks_numeric(text.substr(span.first, span.second - span.first))) {
          numeric.push_back(span);
        }
      }
      if (numeric.empty()) return text;
      const auto span = numeric[rng.next_below(numeric.size())];
      return text.substr(0, span.first) + kExtremes[rng.next_below(5)] +
             text.substr(span.second);
    }
  }
}

/// True when `what` starts with `<source>:<digits>:`.
bool located(const std::string& what, const std::string& source) {
  if (what.rfind(source + ":", 0) != 0) return false;
  std::size_t i = source.size() + 1;
  const std::size_t digits = i;
  while (i < what.size() && std::isdigit(static_cast<unsigned char>(what[i]))) ++i;
  return i > digits && i < what.size() && what[i] == ':';
}

TEST(LoaderMutation, EveryMutantLoadsOrFailsWithLocatedError) {
  const std::vector<std::string> seeds = seed_configs();
  ASSERT_GE(seeds.size(), 2u);
  Rng rng(20111);
  std::size_t loaded = 0, rejected = 0;
  for (std::size_t m = 0; m < kMutants; ++m) {
    std::string text = seeds[m % seeds.size()];
    const std::size_t edits = 1 + rng.next_below(3);
    for (std::size_t e = 0; e < edits; ++e) text = mutate_once(text, rng);
    const std::string source = "mutant" + std::to_string(m) + ".gdisim";
    std::istringstream is(text);
    try {
      Scenario s = load_scenario(is, source);
      ++loaded;
    } catch (const std::invalid_argument& e) {
      ++rejected;
      EXPECT_TRUE(located(e.what(), source))
          << "unlocated error '" << e.what() << "' for mutant:\n" << text;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "loader threw a non-loader exception '" << e.what()
                    << "' for mutant:\n" << text;
    }
  }
  // Both outcomes must actually occur, or the mutations are too weak (or too
  // destructive) to exercise the loader.
  EXPECT_GT(loaded, kMutants / 20);
  EXPECT_GT(rejected, kMutants / 4);
  std::cout << "mutants: " << loaded << " loaded, " << rejected << " rejected\n";
}

}  // namespace
}  // namespace gdisim
