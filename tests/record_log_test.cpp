// The durable record log behind the journal and the result store: header
// refusal, append and reopen, and a bounded, fixed-seed mutation fuzz of
// recovery (byte flips, truncation at every offset, spliced and blank lines,
// foreign headers).
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "support/record_log.h"
#include "support/rng.h"

namespace prose::record_log {
namespace {

constexpr const char* kHeader = "{\"type\":\"test-log\",\"format\":1}\n";

/// Record i's padding varies in length and content, so that lines differ in
/// more than their index.
std::string pad(std::size_t i) {
  return std::string(3 + i % 5, static_cast<char>('a' + i % 26));
}

std::string record(std::size_t i) {
  return "{\"type\":\"rec\",\"i\":" + std::to_string(i) + ",\"pad\":\"" +
         pad(i) + "\"}\n";
}

/// A schema that accepts only the exact header and exactly record(0),
/// record(1), ... in order, so that any damage to a line ends the prefix.
/// *accepted counts the records taken.
Schema strict_schema(std::size_t* accepted) {
  Schema schema;
  schema.header_type = "test-log";
  schema.noun = "test log";
  schema.accept_header = [](const json::Value& h) {
    const json::Value* format = h.find("format");
    if (h.members().size() == 2 && format != nullptr &&
        format->num_or(0) == 1.0) {
      return Status::ok();
    }
    return Status(StatusCode::kInvalidArgument, "not a format-1 test log");
  };
  schema.accept_record = [accepted](const json::Value& r) {
    const json::Value* type = r.find("type");
    const json::Value* i = r.find("i");
    const json::Value* padding = r.find("pad");
    if (r.members().size() != 3 || type == nullptr || i == nullptr ||
        padding == nullptr || type->str_or("") != "rec" || !i->is_number() ||
        i->num_or(-1) != static_cast<double>(*accepted) ||
        !padding->is_string() || padding->str_or("") != pad(*accepted)) {
      return false;
    }
    ++*accepted;
    return true;
  };
  return schema;
}

/// Per-process, so that concurrent test processes never share a file.
std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + "/record_log_" +
         std::to_string(::getpid()) + "_" + name;
}

void spill(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Writes `bytes` to `path` and recovers it.
StatusOr<std::size_t> recover_bytes(const std::string& path,
                                    const std::string& bytes,
                                    std::size_t* accepted) {
  spill(path, bytes);
  return recover_file(path, strict_schema(accepted));
}

TEST(RecordLog, RefusesForeignAndHeaderlessFiles) {
  const std::string path = temp_path("foreign.jsonl");
  const std::string foreign_header = "{\"type\":\"other-log\",\"format\":1}\n";
  for (const std::string& text :
       {std::string("once upon a time\n"), std::string("\n"),
        std::string("\n\n\n"), foreign_header + record(0),
        std::string("\n") + foreign_header}) {
    std::size_t accepted = 0;
    auto valid = recover_bytes(path, text, &accepted);
    ASSERT_FALSE(valid.is_ok()) << "accepted '" << text << "'";
    EXPECT_NE(valid.status().message().find("refusing"), std::string::npos)
        << valid.status().message();
  }
  // Blank lines before the header, a torn header and a missing file are not
  // foreign.
  std::size_t accepted = 0;
  auto valid =
      recover_bytes(path, std::string("\n") + kHeader + record(0), &accepted);
  ASSERT_TRUE(valid.is_ok()) << valid.status().to_string();
  EXPECT_EQ(accepted, 1u);
  valid = recover_bytes(path, "{\"type\":\"test-", &accepted);
  ASSERT_TRUE(valid.is_ok());
  EXPECT_EQ(valid.value(), 0u);
  std::remove(path.c_str());
  valid = recover_file(path, strict_schema(&accepted));
  ASSERT_TRUE(valid.is_ok());
  EXPECT_EQ(valid.value(), 0u);
}

TEST(RecordLog, OpenCreatesAppendsAndTruncatesATornTail) {
  const std::string path = temp_path("open.jsonl");
  std::remove(path.c_str());
  {
    auto file = File::open(path, 0, kHeader);
    ASSERT_TRUE(file.is_ok()) << file.status().to_string();
    ASSERT_TRUE(file->append(record(0)).is_ok());
    EXPECT_EQ(file->size(), std::string(kHeader).size() + record(0).size());
  }
  spill(path, slurp(path) + "{\"type\":\"rec\",\"i\":1,");  // torn
  std::size_t accepted = 0;
  auto valid = recover_file(path, strict_schema(&accepted));
  ASSERT_TRUE(valid.is_ok());
  EXPECT_EQ(accepted, 1u);
  {
    auto file = File::open(path, valid.value(), kHeader);
    ASSERT_TRUE(file.is_ok());
    ASSERT_TRUE(file->append(record(1)).is_ok());
  }
  EXPECT_EQ(slurp(path), kHeader + record(0) + record(1));
  std::remove(path.c_str());
}

/// One mutant and what recovery must make of it.
struct Mutant {
  std::string what;
  std::string bytes;
  std::size_t first_mutated = 0;  // first byte that differs from the log
  bool header_hit = false;        // the mutation damaged the header line
  bool blank_only = false;        // the mutation only inserted blank lines
};

std::vector<Mutant> mutants(const std::string& log,
                            const std::vector<std::size_t>& line_ends) {
  const std::size_t header_end = line_ends.front();
  std::vector<Mutant> out;
  Rng rng(0x5EED2024);
  for (std::size_t at = 0; at < log.size(); ++at) {
    Mutant flip{"flip@" + std::to_string(at), log, at, at < header_end};
    flip.bytes[at] = static_cast<char>(
        flip.bytes[at] ^ static_cast<char>(1 + rng.uniform_index(255)));
    out.push_back(flip);
    out.push_back({"truncate@" + std::to_string(at), log.substr(0, at), at});
  }
  for (std::size_t n = 0; n <= line_ends.size(); ++n) {
    const std::size_t at = n == 0 ? 0 : line_ends[n - 1];
    Mutant blank{"blank@" + std::to_string(at), log, at};
    blank.bytes.insert(at, "\n");
    blank.blank_only = true;
    out.push_back(blank);
    if (n == 0) continue;
    // Splice in a record from elsewhere in the log (never the one expected
    // here, which would be a faithful line, not damage).
    std::size_t from = rng.uniform_index(line_ends.size() - 1);
    if (from + 1 == n) from = (from + 1) % (line_ends.size() - 1);
    Mutant splice{"splice@" + std::to_string(at), log, at};
    splice.bytes.insert(at, record(from));
    out.push_back(splice);
  }
  const std::string foreign = "{\"type\":\"other-log\",\"format\":1}\n";
  out.push_back({"foreign", foreign + log.substr(header_end), 0, true});
  return out;
}

TEST(RecordLogFuzz, SeededMutantsRecoverAPrefixAndReopenForAppend) {
  std::string log = kHeader;
  std::vector<std::size_t> line_ends = {log.size()};
  for (std::size_t i = 0; i < 6; ++i) {
    log += record(i);
    line_ends.push_back(log.size());
  }
  const std::string path = temp_path("fuzz.jsonl");
  std::size_t refused = 0;
  for (const Mutant& m : mutants(log, line_ends)) {
    SCOPED_TRACE(m.what);
    std::size_t accepted = 0;
    auto valid = recover_bytes(path, m.bytes, &accepted);
    if (!valid.is_ok()) {
      // Only a damaged header makes a log foreign.
      EXPECT_TRUE(m.header_hit) << valid.status().message();
      ++refused;
      continue;
    }
    EXPECT_FALSE(m.header_hit);
    const std::size_t v = valid.value();
    ASSERT_LE(v, m.bytes.size());
    EXPECT_TRUE(v == 0 || m.bytes[v - 1] == '\n') << "valid " << v;
    if (m.blank_only) {
      EXPECT_EQ(v, m.bytes.size());
      EXPECT_EQ(accepted, line_ends.size() - 1);
    } else {
      // Nothing at or after the first damaged byte is trusted, except a
      // damaged byte that became a newline (a blank line, which carries no
      // record).
      EXPECT_TRUE(v <= m.first_mutated ||
                  (v == m.first_mutated + 1 && m.bytes[m.first_mutated] == '\n'))
          << "valid " << v << " past the mutation at " << m.first_mutated;
    }

    // Reopen at the trusted prefix, append, and recover everything appended.
    {
      auto file = File::open(path, v, kHeader);
      ASSERT_TRUE(file.is_ok()) << file.status().to_string();
      ASSERT_TRUE(file->append(record(accepted)).is_ok());
      ASSERT_TRUE(file->append(record(accepted + 1)).is_ok());
    }
    std::size_t reaccepted = 0;
    auto again = recover_file(path, strict_schema(&reaccepted));
    ASSERT_TRUE(again.is_ok()) << again.status().to_string();
    EXPECT_EQ(reaccepted, accepted + 2);
    EXPECT_EQ(again.value(), slurp(path).size());
  }
  // Every header byte flip, the foreign header: the refusals are exercised.
  EXPECT_GE(refused, line_ends.front() + 1);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace prose::record_log
