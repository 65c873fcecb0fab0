// The contracts only a real process can show: a campaign SIGKILLed mid-run
// resumes from its journal to the uninterrupted run's exact output, the
// daemon drains and exits 0 on SIGTERM, and a mistyped flag is refused
// instead of silently running some other campaign. The binaries run under
// fork/exec (no shell); their paths come from the build.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

namespace {

std::string fresh_path(const char* suffix) {
  static std::atomic<int> counter{0};
  return "/tmp/prose_cli_t" + std::to_string(::getpid()) + "_" +
         std::to_string(counter++) + suffix;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Forks and execs `argv` with stdout on `out_fd` and stderr on `err_fd`.
pid_t spawn(const std::vector<std::string>& argv, int out_fd, int err_fd) {
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::dup2(out_fd, STDOUT_FILENO);
    ::dup2(err_fd, STDERR_FILENO);
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  return pid;
}

struct Outcome {
  int status = 0;  // as reported by waitpid
  std::string out;
  std::string err;
};

/// Runs `argv` to completion and captures its stdout and stderr.
Outcome run(const std::vector<std::string>& argv) {
  const std::string out_path = fresh_path(".out");
  const std::string err_path = fresh_path(".err");
  const int out_fd = ::open(out_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0600);
  const int err_fd = ::open(err_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0600);
  Outcome r;
  const pid_t pid = spawn(argv, out_fd, err_fd);
  ::close(out_fd);
  ::close(err_fd);
  ::waitpid(pid, &r.status, 0);
  r.out = slurp(out_path);
  r.err = slurp(err_path);
  std::remove(out_path.c_str());
  std::remove(err_path.c_str());
  return r;
}

/// `text` without its lines that start with `prefix`.
std::string drop_lines(const std::string& text, const std::string& prefix) {
  std::istringstream in(text);
  std::string kept;
  for (std::string line; std::getline(in, line);) {
    if (!line.starts_with(prefix)) kept += line + "\n";
  }
  return kept;
}

TEST(CliProcess, KilledCampaignResumesToTheUninterruptedOutput) {
  const std::vector<std::string> campaign = {
      CAMPAIGN_MPAS_BIN, "--model", "funarc", "--faults",
      "compile:p=0.02;transient:p=0.05;straggler:p=0.03,slow=4x;"
      "node_crash:node=1,at=10s"};
  const auto with = [&](std::vector<std::string> extra) {
    std::vector<std::string> argv = campaign;
    argv.insert(argv.end(), extra.begin(), extra.end());
    return argv;
  };
  const std::string reference_journal = fresh_path(".ref.journal");
  const std::string journal = fresh_path(".journal");

  const Outcome reference = run(with({"--journal", reference_journal}));
  ASSERT_TRUE(WIFEXITED(reference.status) && WEXITSTATUS(reference.status) == 0)
      << reference.err;

  // --kill-after SIGKILLs the campaign itself after the 5th journaled
  // variant: no destructor, flush or atexit handler runs.
  const Outcome killed = run(with({"--journal", journal, "--kill-after", "5"}));
  ASSERT_TRUE(WIFSIGNALED(killed.status) && WTERMSIG(killed.status) == SIGKILL)
      << "status " << killed.status << "\n" << killed.err;
  ASSERT_FALSE(slurp(journal).empty()) << "the journal did not survive the kill";

  // Everything but the journal status line (fresh vs resumed) matches the
  // uninterrupted run byte for byte.
  const Outcome resumed = run(with({"--journal", journal, "--resume"}));
  ASSERT_TRUE(WIFEXITED(resumed.status) && WEXITSTATUS(resumed.status) == 0)
      << resumed.err;
  EXPECT_EQ(drop_lines(reference.out, "journal"), drop_lines(resumed.out, "journal"));
  EXPECT_NE(resumed.out.find("(resumed, "), std::string::npos) << resumed.out;
  std::remove(reference_journal.c_str());
  std::remove(journal.c_str());
}

TEST(CliProcess, ServedDrainsOnSigtermAndExitsZero) {
  const std::string socket = fresh_path(".sock");
  int out[2];
  ASSERT_EQ(::pipe(out), 0);
  const int err_fd = ::open("/dev/null", O_WRONLY);
  const pid_t pid = spawn({PROSE_SERVED_BIN, "--socket", socket}, out[1], err_fd);
  ::close(out[1]);
  ::close(err_fd);

  // The banner is printed after the shutdown signals are blocked for
  // sigwait, so SIGTERM sent once it arrives is always a drain request.
  std::string printed;
  char buf[256];
  while (printed.find("listening on") == std::string::npos) {
    const ssize_t n = ::read(out[0], buf, sizeof buf);
    if (n <= 0) break;
    printed.append(buf, static_cast<std::size_t>(n));
  }
  ASSERT_NE(printed.find("listening on"), std::string::npos) << printed;
  ::kill(pid, SIGTERM);
  for (ssize_t n; (n = ::read(out[0], buf, sizeof buf)) > 0;) {
    printed.append(buf, static_cast<std::size_t>(n));
  }
  ::close(out[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << "status " << status;
  EXPECT_NE(printed.find("prose_served: drained."), std::string::npos) << printed;
}

TEST(CliProcess, MistypedOrMalformedFlagExitsTwoAndNamesIt) {
  const Outcome typo = run({CAMPAIGN_MPAS_BIN, "--model", "funarc", "--kil-after", "5"});
  EXPECT_TRUE(WIFEXITED(typo.status) && WEXITSTATUS(typo.status) == 2)
      << "status " << typo.status;
  EXPECT_NE(typo.err.find("unknown flag --kil-after"), std::string::npos) << typo.err;

  // A bare "--" used to drop every flag and start the default campaign.
  const Outcome bare = run({CAMPAIGN_MPAS_BIN, "--", "--model", "funarc"});
  EXPECT_TRUE(WIFEXITED(bare.status) && WEXITSTATUS(bare.status) == 2)
      << "status " << bare.status;
  EXPECT_NE(bare.err.find("bare '--' is not a flag"), std::string::npos) << bare.err;
}

}  // namespace
