// The k-level precision lattice end to end: Config key scheme (two-level
// byte compatibility + the '_'-joined custom scheme and its inverse),
// SearchSpace lattice levels, journal header version skew on the formats
// field, the machine-model formats codec, and the determinism contract on a
// ≥3-format search — bit-identical (journal bytes included) across worker
// counts, and served vs local from a cold or a warm store.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "models/models.h"
#include "prec/format.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "support/json.h"
#include "tuner/campaign.h"
#include "tuner/frontier.h"
#include "tuner/html_report.h"
#include "tuner/journal.h"
#include "tuner/report.h"
#include "tuner/search_space.h"

namespace prose {
namespace {

std::string fresh_path(const char* suffix) {
  static std::atomic<int> counter{0};
  return "/tmp/prose_klevel_t" + std::to_string(::getpid()) + "_" +
         std::to_string(counter++) + suffix;
}

// --- Config key scheme ----------------------------------------------------

TEST(ConfigKey, TwoLevelKeysKeepLegacyBytes) {
  tuner::Config c;
  c.kinds = {4, 8, 4, 4, 8};
  EXPECT_TRUE(c.two_level());
  EXPECT_EQ(c.key(), "48448");
  const auto parsed = prec::parse_kind_key(c.key());
  ASSERT_EQ(parsed.size(), c.kinds.size());
  EXPECT_EQ(parsed, c.kinds);
}

TEST(ConfigKey, CustomKindsSwitchToJoinedTokens) {
  tuner::Config c;
  c.kinds = {4, 1510, 8, 1807};
  EXPECT_FALSE(c.two_level());
  EXPECT_EQ(c.key(), "4_e5m10_8_e8m7");
  const auto parsed = prec::parse_kind_key(c.key());
  EXPECT_EQ(parsed, c.kinds);
}

TEST(ConfigKey, ParseRejectsMalformedKeys) {
  EXPECT_TRUE(prec::parse_kind_key("").empty());
  EXPECT_TRUE(prec::parse_kind_key("49").empty());     // bad per-char digit
  EXPECT_TRUE(prec::parse_kind_key("4_x_8").empty());  // unknown token
  EXPECT_TRUE(prec::parse_kind_key("4_8_").empty());   // trailing separator
  EXPECT_TRUE(prec::parse_kind_key("4__8").empty());   // empty token
}

TEST(ConfigKey, CountersSeeEveryFormat) {
  tuner::Config c;
  c.kinds = {4, 1510, 8, 1510};
  EXPECT_EQ(c.count32(), 3u);  // everything demoted below binary64
  EXPECT_EQ(c.count_at(1510), 2u);
  EXPECT_EQ(c.count_at(8), 1u);
  const auto census = tuner::format_census(c);
  ASSERT_EQ(census.size(), 3u);
  EXPECT_EQ(census[0].first, 1510);  // lattice order: narrowest first
  EXPECT_EQ(census[0].second, 2u);
  EXPECT_EQ(census[2].first, 8);
}

// --- SearchSpace lattice levels -------------------------------------------

TEST(SearchSpaceLevels, DefaultIsTheLegacyTwoLevelLattice) {
  tuner::SearchSpace space;
  EXPECT_EQ(space.levels(), (std::vector<std::uint16_t>{4, 8}));
  EXPECT_EQ(space.sub_levels(), (std::vector<std::uint16_t>{4}));
}

TEST(SearchSpaceLevels, SetLevelsSortsAndAlwaysKeepsBinary64) {
  tuner::SearchSpace space;
  space.set_levels({4, 1510, 1807});  // no 8: it must be re-added
  EXPECT_EQ(space.levels(), (std::vector<std::uint16_t>{1807, 1510, 4, 8}));
  EXPECT_EQ(space.sub_levels(), (std::vector<std::uint16_t>{1807, 1510, 4}));
}

// --- journal header version skew ------------------------------------------

TEST(JournalFormats, FieldRoundTripsAndSkewIsRefused) {
  const std::string path = fresh_path(".journal");
  tuner::JournalHeader header;
  header.model = "funarc";
  header.formats = "e5m10,binary32,binary64";
  {
    auto journal = tuner::Journal::open(path, header);
    ASSERT_TRUE(journal.is_ok()) << journal.status().to_string();
  }
  auto data = tuner::Journal::load(path);
  ASSERT_TRUE(data.is_ok()) << data.status().to_string();
  ASSERT_TRUE(data->has_header);
  EXPECT_EQ(data->header.formats, "e5m10,binary32,binary64");
  EXPECT_EQ(data->header.mismatch(header), "");

  // A resume across a format-list change is an identity skew: refused, and
  // the mismatch names the field.
  tuner::JournalHeader other = header;
  other.formats = "binary32,binary64";
  EXPECT_NE(data->header.mismatch(other).find("formats"), std::string::npos);
  std::remove(path.c_str());
}

TEST(JournalFormats, LegacyHeaderBytesCarryNoFormatsField) {
  const std::string path = fresh_path(".journal");
  tuner::JournalHeader header;
  header.model = "funarc";  // formats empty: the legacy two-level lattice
  {
    auto journal = tuner::Journal::open(path, header);
    ASSERT_TRUE(journal.is_ok()) << journal.status().to_string();
  }
  std::ifstream in(path);
  std::string first_line;
  ASSERT_TRUE(std::getline(in, first_line));
  EXPECT_EQ(first_line.find("formats"), std::string::npos)
      << "legacy journals must keep their exact bytes: " << first_line;
  std::remove(path.c_str());
}

// --- machine-model formats codec ------------------------------------------

TEST(MachineFormats, CodecRoundTripsTheFormatTable) {
  sim::MachineModel m;
  m.formats.push_back({1510, 32, 6.0});
  m.formats.push_back({1807, 32, 5.0});
  const std::string json_text = serve::machine_to_json(m);
  EXPECT_NE(json_text.find("\"formats\""), std::string::npos);
  auto parsed = json::parse(json_text);
  ASSERT_TRUE(parsed.is_ok()) << json_text;
  auto back = serve::machine_from_json(parsed.value());
  ASSERT_TRUE(back.is_ok()) << back.status().to_string();
  ASSERT_EQ(back->formats.size(), 2u);
  EXPECT_EQ(back->formats[0].kind, 1510);
  EXPECT_EQ(back->formats[0].lanes, 32);
  EXPECT_EQ(back->formats[0].cast_cost, 6.0);
  EXPECT_EQ(back->formats[1].kind, 1807);
}

TEST(MachineFormats, LegacyMachineJsonCarriesNoFormatsArray) {
  const std::string json_text = serve::machine_to_json(sim::MachineModel{});
  EXPECT_EQ(json_text.find("\"formats\""), std::string::npos);
}

TEST(MachineFormats, DigestSeesTheLatticeAndTheFormatTable) {
  const tuner::TargetSpec legacy = models::funarc_target();
  const std::uint64_t base = serve::target_digest(legacy);

  tuner::TargetSpec klevel = legacy;
  klevel.formats = prec::parse_format_list("binary16,binary32,binary64");
  EXPECT_NE(serve::target_digest(klevel), base);

  tuner::TargetSpec costed = klevel;
  costed.machine.formats.push_back({1510, 32, 6.0});
  EXPECT_NE(serve::target_digest(costed), serve::target_digest(klevel));
}

// --- k-level search determinism -------------------------------------------

void expect_same_search(const tuner::SearchResult& a,
                        const tuner::SearchResult& b) {
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].id, b.records[i].id);
    EXPECT_EQ(a.records[i].config, b.records[i].config)
        << "variant " << a.records[i].id;
    EXPECT_EQ(a.records[i].eval.outcome, b.records[i].eval.outcome);
    EXPECT_EQ(a.records[i].eval.speedup, b.records[i].eval.speedup);
    EXPECT_EQ(a.records[i].eval.error, b.records[i].eval.error);
    EXPECT_EQ(a.records[i].eval.cast_cycles, b.records[i].eval.cast_cycles);
  }
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_EQ(a.best, b.best);
  EXPECT_EQ(a.best_speedup, b.best_speedup);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
}

constexpr const char* kFourFormats = "binary16,bfloat16,binary32,binary64";

tuner::TargetSpec spec_for(const std::string& model) {
  return model == "MPAS-A" ? models::mpas_target() : models::funarc_target();
}

/// A campaign on the 4-format lattice: funarc in full, MPAS-A capped at 40
/// variants in a 1 h budget. A non-empty `journal` is written as it runs.
tuner::CampaignResult run_klevel(const std::string& model, std::size_t jobs,
                                 const std::string& journal = "",
                                 tuner::EvalBackend* backend = nullptr) {
  tuner::CampaignOptions options;
  options.jobs = jobs;
  options.formats = prec::parse_format_list(kFourFormats);
  options.journal_path = journal;
  options.backend = backend;
  if (model == "MPAS-A") {
    options.cluster.wall_budget_seconds = 3600.0;
    options.max_variants = 40;
  }
  auto result = tuner::run_campaign(spec_for(model), options);
  EXPECT_TRUE(result.is_ok()) << result.status().to_string();
  return std::move(result.value());
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(KLevelDeterminism, FourFormatSearchBitIdenticalAcrossJobs) {
  const std::vector<std::uint16_t> lattice = prec::parse_format_list(kFourFormats);
  for (const std::string model : {"funarc", "MPAS-A"}) {
    SCOPED_TRACE(model);
    const std::string serial_journal = fresh_path(".j1.journal");
    const std::string parallel_journal = fresh_path(".j4.journal");
    const tuner::CampaignResult serial = run_klevel(model, 1, serial_journal);
    const tuner::CampaignResult parallel = run_klevel(model, 4, parallel_journal);
    expect_same_search(serial.search, parallel.search);
    EXPECT_EQ(serial.final_kinds, parallel.final_kinds);
    const std::string journal = slurp(serial_journal);
    EXPECT_EQ(journal, slurp(parallel_journal)) << "journal bytes differ across jobs";
    // The header names the widened lattice, in canonical order.
    EXPECT_NE(journal.substr(0, journal.find('\n'))
                  .find("\"formats\":\"e8m7,e5m10,binary32,binary64\""),
              std::string::npos);
    std::remove(serial_journal.c_str());
    std::remove(parallel_journal.c_str());

    // Every evaluated config stays inside the declared lattice.
    for (const auto& r : serial.search.records) {
      for (const std::uint16_t k : r.config.kinds) {
        EXPECT_NE(std::find(lattice.begin(), lattice.end(), k), lattice.end())
            << "kind " << k << " outside the lattice";
      }
    }

    // Both census renderings come out of a k-level campaign.
    EXPECT_NE(tuner::format_census_report(serial).find("format census"),
              std::string::npos);
    EXPECT_NE(tuner::format_census_html(model + " format census", serial)
                  .find("Cast tallies"),
              std::string::npos);
  }
}

TEST(KLevelDeterminism, ServedFourFormatCampaignMatchesLocal) {
  const tuner::CampaignResult local = run_klevel("funarc", 1);
  tuner::TargetSpec digest_spec = models::funarc_target();
  digest_spec.formats = prec::parse_format_list(kFourFormats);

  // Cold, then warm: a fresh server over the store the cold one persisted
  // answers the rerun from disk instead of executing it again.
  const std::string store = fresh_path(".storedir");
  for (const bool warm : {false, true}) {
    SCOPED_TRACE(warm ? "warm" : "cold");
    serve::ServerOptions sopts;
    sopts.endpoint = fresh_path(".sock");
    sopts.store_path = store;
    sopts.store_dir = true;
    sopts.jobs = 2;
    serve::Server server(sopts, [](const std::string& model)
                                    -> StatusOr<tuner::TargetSpec> {
      if (model == "funarc") return models::funarc_target();
      return Status(StatusCode::kNotFound, "unknown model '" + model + "'");
    });
    ASSERT_TRUE(server.start().is_ok());
    {
      serve::ServeClient::Options copts;
      copts.endpoints = {sopts.endpoint};
      copts.model = "funarc";
      copts.formats = kFourFormats;
      copts.target_digest = serve::target_digest(digest_spec);
      auto client = serve::ServeClient::connect(copts);
      ASSERT_TRUE(client.is_ok()) << client.status().to_string();

      const tuner::CampaignResult served =
          run_klevel("funarc", 4, "", client.value().get());
      expect_same_search(local.search, served.search);
      EXPECT_EQ(local.final_kinds, served.final_kinds);
    }
    server.shutdown();
    server.wait();
    if (warm) {
      const serve::ServerStats stats = server.stats();
      EXPECT_GT(stats.requests, 0u);
      EXPECT_GE(stats.store_hits * 10, stats.requests * 9);
      EXPECT_LE(stats.evals_executed * 10, stats.requests);
    }
  }
  std::filesystem::remove_all(store);
}

TEST(KLevelDeterminism, ServerRejectsKeysOutsideTheLattice) {
  serve::ServerOptions sopts;
  sopts.endpoint = fresh_path(".sock");
  sopts.jobs = 1;
  serve::Server server(sopts, [](const std::string& model)
                                  -> StatusOr<tuner::TargetSpec> {
    if (model == "funarc") return models::funarc_target();
    return Status(StatusCode::kNotFound, "unknown model '" + model + "'");
  });
  ASSERT_TRUE(server.start().is_ok());

  serve::ServeClient::Options copts;
  copts.endpoints = {sopts.endpoint};
  copts.model = "funarc";
  copts.formats = "binary16,binary32,binary64";
  tuner::TargetSpec digest_spec = models::funarc_target();
  digest_spec.formats = prec::parse_format_list("binary16,binary32,binary64");
  copts.target_digest = serve::target_digest(digest_spec);
  auto client = serve::ServeClient::connect(copts);
  ASSERT_TRUE(client.is_ok()) << client.status().to_string();

  // bfloat16 is not in this namespace's lattice: the eval must be refused,
  // which the client surfaces as an unresolved item (the campaign would
  // fall back to local evaluation), never as a wrong answer.
  tuner::Config config;
  config.kinds.assign(8, 8);
  config.kinds[0] = 1807;
  const std::vector<tuner::Config> configs = {config};
  const std::vector<std::uint64_t> streams = {1};
  auto items = client.value()->evaluate_many(configs, streams);
  ASSERT_EQ(items.size(), 1u);
  EXPECT_FALSE(items[0].ok) << "out-of-lattice key must not evaluate";
}

}  // namespace
}  // namespace prose
