// Documentation coverage: every "svc.*" and "lossy.*" string literal in
// src/svc and src/lossy, and every "decode.*", "pipeline.decode.*" and
// "streaming.*" literal in src/core — counters, gauges, stages,
// histograms, trace spans and fault sites — must be listed in
// docs/observability.md. The doc
// abbreviates name families with brace patterns (`svc.cache_{hits,misses}`),
// which the test expands before comparing.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <iterator>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace parhuff {
namespace {

namespace fs = std::filesystem;

const fs::path kRoot = PARHUFF_SOURCE_DIR;

std::string slurp(const fs::path& p) {
  std::ifstream in(p);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Expand every `{a,b,...}` group in `pattern` (groups may repeat, not
/// nest): `x.{a,b}_{c,d}` → x.a_c, x.a_d, x.b_c, x.b_d.
std::vector<std::string> expand_braces(const std::string& pattern) {
  const std::size_t open = pattern.find('{');
  const std::size_t close = pattern.find('}', open);
  if (open == std::string::npos || close == std::string::npos) {
    return {pattern};
  }
  const std::string head = pattern.substr(0, open);
  const std::vector<std::string> tails = expand_braces(pattern.substr(close + 1));
  std::vector<std::string> out;
  std::istringstream alts(pattern.substr(open + 1, close - open - 1));
  for (std::string alt; std::getline(alts, alt, ',');) {
    for (const std::string& tail : tails) out.push_back(head + alt + tail);
  }
  return out;
}

/// Every name the doc lists: the contents of each inline `code span`,
/// expanded. Spans are matched per line, skipping ``` fence lines.
std::set<std::string> documented_names(const std::string& doc) {
  std::set<std::string> names;
  const std::regex code_span("`([^`]+)`");
  std::istringstream lines(doc);
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("```", 0) == 0) continue;
    for (auto it = std::sregex_iterator(line.begin(), line.end(), code_span);
         it != std::sregex_iterator(); ++it) {
      for (const std::string& n : expand_braces((*it)[1].str())) {
        names.insert(n);
      }
    }
  }
  return names;
}

TEST(ObsDocs, BraceExpansion) {
  EXPECT_EQ(expand_braces("svc.batches"),
            std::vector<std::string>{"svc.batches"});
  EXPECT_EQ(expand_braces("svc.cache_{hits,misses}"),
            (std::vector<std::string>{"svc.cache_hits", "svc.cache_misses"}));
  EXPECT_EQ(expand_braces("x.{a,b}_{c,d}"),
            (std::vector<std::string>{"x.a_c", "x.a_d", "x.b_c", "x.b_d"}));
}

/// Names matching `prefix_alternation` (e.g. "svc|lossy") in string
/// literals under `dirs` that docs/observability.md does not list; `seen`
/// counts every matching literal.
std::set<std::string> undocumented(std::initializer_list<const char*> dirs,
                                   const std::string& prefix_alternation,
                                   std::size_t& seen) {
  const std::set<std::string> documented =
      documented_names(slurp(kRoot / "docs" / "observability.md"));
  EXPECT_FALSE(documented.empty()) << "docs/observability.md not found";
  const std::regex literal("\"((?:" + prefix_alternation +
                           ")\\.[A-Za-z0-9_.]+)\"");
  std::set<std::string> missing;
  for (const char* dir : dirs) {
    for (const fs::directory_entry& e : fs::directory_iterator(kRoot / dir)) {
      const std::string text = slurp(e.path());
      for (auto it = std::sregex_iterator(text.begin(), text.end(), literal);
           it != std::sregex_iterator(); ++it) {
        ++seen;
        if (!documented.count((*it)[1].str())) missing.insert((*it)[1].str());
      }
    }
  }
  return missing;
}

std::string listing(const std::set<std::string>& names) {
  std::string list;
  for (const std::string& m : names) list += "\n  " + m;
  return list;
}

TEST(ObsDocs, EveryServiceAndLossyNameIsDocumented) {
  std::size_t seen = 0;
  const std::set<std::string> missing =
      undocumented({"src/svc", "src/lossy"}, "svc|lossy", seen);
  EXPECT_GT(seen, 0u);
  EXPECT_TRUE(missing.empty())
      << "names published from src/svc or src/lossy but missing from "
         "docs/observability.md:"
      << listing(missing);
}

TEST(ObsDocs, EveryCoreDecodeAndStreamingNameIsDocumented) {
  std::size_t seen = 0;
  const std::set<std::string> missing =
      undocumented({"src/core"}, "decode|pipeline\\.decode|streaming", seen);
  EXPECT_GT(seen, 0u);
  EXPECT_TRUE(missing.empty())
      << "decode.*, pipeline.decode.* or streaming.* names published from "
         "src/core but missing from docs/observability.md:"
      << listing(missing);
}

}  // namespace
}  // namespace parhuff
