// Strings / table / CLI / plot utility tests.
#include <gtest/gtest.h>

#include <filesystem>

#include "bench_common.h"
#include "support/ascii_plot.h"
#include "support/cli.h"
#include "support/strings.h"
#include "support/table.h"

namespace prose {
namespace {

TEST(Strings, ToLower) { EXPECT_EQ(to_lower("MiXeD_09"), "mixed_09"); }

TEST(Strings, TrimAndSplit) {
  EXPECT_EQ(trim("  a b \t"), "a b");
  EXPECT_EQ(split("a,b,,c", ','), (std::vector<std::string>{"a", "b", "", "c"}));
}

TEST(Strings, JoinAndReplace) {
  EXPECT_EQ(replace_all("x+x+x", "+", "-"), "x-x-x");
}

TEST(Strings, Formatting) {
  EXPECT_EQ(format_double(1.946, 2), "1.95");
  EXPECT_EQ(format_percent(0.5625, 1), "56.2%");
  EXPECT_EQ(format_sci(140.0, 2), "1.4e+02");
}

TEST(Strings, Padding) {
  EXPECT_EQ(pad_right("ab", 4), "ab  ");
  EXPECT_EQ(pad_right("abcdef", 4), "abcdef");  // no truncation
}

TEST(TextTable, RendersAlignedMarkdown) {
  TextTable t({"Model", "Speedup"});
  t.add_row({"MPAS-A", "1.95x"});
  t.add_row({"ADCIRC", "1.12x"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| Model  | Speedup |"), std::string::npos);
  EXPECT_NE(s.find("| MPAS-A | 1.95x   |"), std::string::npos);
}

TEST(TextTable, RowWidthMismatchThrows) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), std::logic_error);
}

TEST(Csv, EscapesSpecials) {
  CsvWriter w;
  w.add_row({"plain", "with,comma", "with\"quote"});
  EXPECT_EQ(w.str(), "plain,\"with,comma\",\"with\"\"quote\"\n");
}

TEST(Cli, ParsesFlagsAndPositionals) {
  const char* argv[] = {"prog", "--model=mpas", "--trials", "7",
                        "--verbose", "--no-color", "input.f90"};
  auto flags = CliFlags::parse(7, argv);
  ASSERT_TRUE(flags.is_ok());
  EXPECT_EQ(flags->get_string("model", ""), "mpas");
  EXPECT_EQ(flags->get_int("trials", 0), 7);
  EXPECT_TRUE(flags->get_bool("verbose", false));
  EXPECT_FALSE(flags->get_bool("color", true));
  EXPECT_EQ(flags->get_double("missing", 2.5), 2.5);
  ASSERT_EQ(flags->positional().size(), 1u);
  EXPECT_EQ(flags->positional()[0], "input.f90");
  EXPECT_EQ(flags->names(),
            (std::vector<std::string>{"color", "model", "trials", "verbose"}));
}

bench::BenchIo bench_io(std::vector<const char*> args) {
  args.insert(args.begin(), "bench");
  return bench::BenchIo::from_args(static_cast<int>(args.size()),
                                   const_cast<char**>(args.data()));
}

TEST(Cli, BenchFlagsRejectUnknownAndMalformedArguments) {
  using ::testing::ExitedWithCode;
  EXPECT_EXIT(bench_io({"--faults", "x"}), ExitedWithCode(2), "unknown flag --faults");
  EXPECT_EXIT(bench_io({"--jobs=2", "--bogus"}), ExitedWithCode(2),
              "unknown flag --bogus");
  EXPECT_EXIT(bench_io({"--"}), ExitedWithCode(2), "bare '--' is not a flag");
  EXPECT_EXIT(bench_io({"--quick", "extra", "more"}), ExitedWithCode(2),
              "unexpected argument 'more'");

  const std::string outdir = std::string(::testing::TempDir()) + "/bench_io_out";
  const bench::BenchIo io = bench_io({"--outdir", outdir.c_str(), "--jobs=4",
                                      "--no-quick", "--diagnose", "--trace-out=t.json"});
  EXPECT_EQ(io.outdir, outdir);
  EXPECT_TRUE(std::filesystem::is_directory(outdir));
  EXPECT_EQ(io.jobs, 4u);
  EXPECT_FALSE(io.quick);
  EXPECT_TRUE(io.diagnose);
  EXPECT_EQ(io.campaign_options("MPAS-A").trace.chrome_path, "t.MPAS-A.json");
}

TEST(AsciiScatter, RendersPointsAndGuides) {
  AsciiScatter plot("test", "speedup", "error");
  plot.set_size(40, 10);
  plot.add_point(1.0, 1.0, 'a');
  plot.add_point(2.0, 4.0, 'b');
  plot.add_x_guide(1.0);
  const std::string s = plot.render();
  EXPECT_NE(s.find('a'), std::string::npos);
  EXPECT_NE(s.find('b'), std::string::npos);
  EXPECT_NE(s.find(':'), std::string::npos);  // guide line
}

TEST(AsciiScatter, LogAxisDropsNonpositive) {
  AsciiScatter plot("log", "x", "y");
  plot.set_log_y(true);
  plot.add_point(1.0, 0.0, 'z');  // non-plottable on log axis
  plot.add_point(1.0, 1.0, 'k');
  const std::string s = plot.render();
  EXPECT_NE(s.find("dropped"), std::string::npos);
  EXPECT_NE(s.find('k'), std::string::npos);
}

TEST(AsciiScatter, EmptyPlotHasPlaceholder) {
  AsciiScatter plot("empty", "x", "y");
  EXPECT_NE(plot.render().find("no finite points"), std::string::npos);
}

}  // namespace
}  // namespace prose
