// Seeded fuzzing of the JSON reader. json::parse reads journal lines back
// on resume, and json::parse_prefix scans wire receive buffers, so both see
// bytes the process did not write itself: a torn journal, a foreign file, a
// garbled frame. The corpus is what the pipeline really writes (the journal
// of a funarc campaign) plus edge documents. Every mutant must parse or be
// refused with a status, and a prefix parse never claims bytes past the
// input.
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "models/funarc.h"
#include "support/json.h"
#include "support/rng.h"
#include "tuner/campaign.h"

namespace prose::json {
namespace {

/// The journal lines of a small funarc campaign, then the edge documents.
const std::vector<std::string>& corpus() {
  static const std::vector<std::string>* docs = [] {
    auto* out = new std::vector<std::string>;
    tuner::CampaignOptions options;
    options.journal_path = std::string(::testing::TempDir()) +
                           "/json_fuzz." + std::to_string(::getpid()) +
                           ".journal.jsonl";
    auto run = tuner::run_campaign(models::funarc_target(), options);
    EXPECT_TRUE(run.is_ok()) << run.status().to_string();
    {
      std::ifstream f(options.journal_path, std::ios::binary);
      for (std::string line; std::getline(f, line);) {
        if (!line.empty()) out->push_back(line);
      }
    }
    std::remove(options.journal_path.c_str());
    EXPECT_GT(out->size(), 2u) << "the journal holds too few lines";
    out->push_back(R"({"s":"q\"b\\s\/t\b\f\n\r\tAé€"})");
    out->push_back(R"([Infinity,-Infinity,NaN,-0.0,5e-324,1.7976931348623157e+308])");
    out->push_back(R"({"a":[],"b":{},"c":[null,true,false,""]})");
    // Innermost element at depth 64, the deepest the parser accepts.
    out->push_back(std::string(64, '[') + "1" + std::string(64, ']'));
    return out;
  }();
  return *docs;
}

/// One seeded mutant of a corpus document: a bit flip, a truncation, an
/// insertion of a JSON-significant or random byte, or a splice of two
/// documents.
std::string mutate(Rng& rng, const std::vector<std::string>& docs) {
  static constexpr char kAlphabet[] = "{}[]\",:\\ 0123456789eE+-.tfnulINaTy";
  std::string m = docs[rng.uniform_index(docs.size())];
  const std::size_t edits = 1 + rng.uniform_index(3);
  for (std::size_t e = 0; e < edits; ++e) {
    const std::size_t pos = rng.uniform_index(m.size() + 1);
    switch (rng.uniform_index(4)) {
      case 0:
        if (pos < m.size()) {
          m[pos] = static_cast<char>(m[pos] ^ (1u << rng.uniform_index(8)));
        }
        break;
      case 1:
        m.resize(pos);
        break;
      case 2:
        m.insert(pos, 1,
                 rng.chance(0.5)
                     ? kAlphabet[rng.uniform_index(sizeof kAlphabet - 1)]
                     : static_cast<char>(rng.uniform_index(256)));
        break;
      default: {
        const std::string& other = docs[rng.uniform_index(docs.size())];
        m = m.substr(0, pos) + other.substr(rng.uniform_index(other.size() + 1));
        break;
      }
    }
  }
  return m;
}

TEST(JsonFuzz, MutantsParseOrFailAndPrefixStaysInBounds) {
  const std::vector<std::string>& docs = corpus();
  ASSERT_FALSE(docs.empty());
  Rng rng(0x6a736f6e66757a7aull);
  // A fixed mutant count; the deadline only guards slow sanitizer builds.
  constexpr int kMutants = 20000;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  int ran = 0;
  for (; ran < kMutants && std::chrono::steady_clock::now() < deadline; ++ran) {
    const std::string m = mutate(rng, docs);
    const auto full = parse(m);
    std::size_t consumed = m.size() + 1;
    const auto pre = parse_prefix(m, &consumed);
    if (!pre.is_ok()) {
      // A complete document can fail as a prefix only by running into the
      // buffer's end: a bare number there may still continue.
      if (full.is_ok()) {
        ASSERT_EQ(pre.status().code(), StatusCode::kIncomplete)
            << "mutant " << ran << ": " << m;
      }
      continue;
    }
    ASSERT_LE(consumed, m.size()) << "mutant " << ran << ": " << m;
    // The claimed prefix is itself one complete document.
    EXPECT_TRUE(parse(m.substr(0, consumed)).is_ok())
        << "mutant " << ran << ": " << m;
  }
  EXPECT_GT(ran, 0);
  RecordProperty("mutants", ran);
}

TEST(JsonFuzz, PrefixStopsExactlyAtEveryCorpusDocument) {
  for (const std::string& d : corpus()) {
    ASSERT_TRUE(parse(d).is_ok()) << d;
    std::size_t consumed = 0;
    const auto pre = parse_prefix(d + " tail", &consumed);
    ASSERT_TRUE(pre.is_ok()) << d << ": " << pre.status().to_string();
    EXPECT_EQ(consumed, d.size()) << d;
  }
}

TEST(JsonFuzz, MillionDeepBracketBombIsRefusedNotOverflowed) {
  const std::string bomb(1000000, '[');
  const auto full = parse(bomb);
  ASSERT_FALSE(full.is_ok());
  EXPECT_NE(full.status().message().find("nesting too deep"), std::string::npos)
      << full.status().to_string();
  std::size_t consumed = 0;
  const auto pre = parse_prefix(bomb, &consumed);
  ASSERT_FALSE(pre.is_ok());
  EXPECT_NE(pre.status().message().find("nesting too deep"), std::string::npos)
      << pre.status().to_string();
}

}  // namespace
}  // namespace prose::json
