// The fleet layer end to end: rendezvous placement, deadline-bounded wire
// I/O, deterministic busy backoff, the segmented crash-safe store (including
// fork+SIGKILL at every fsync/rename cut point), replication, and the hard
// fleet contract — a campaign served by a sharded fleet is bit-identical to
// a local one even when a shard is killed mid-run, and a warm rerun is
// served from the surviving replicas without executing anything.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "models/models.h"
#include "serve/client.h"
#include "serve/result_store.h"
#include "serve/ring.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "support/json.h"
#include "tuner/campaign.h"

namespace prose::serve {
namespace {

std::string fresh_path(const char* suffix) {
  static std::atomic<int> counter{0};
  return "/tmp/prose_fleet_t" + std::to_string(::getpid()) + "_" +
         std::to_string(counter++) + suffix;
}

StatusOr<tuner::TargetSpec> resolve_model(const std::string& model) {
  if (model == "funarc") return models::funarc_target();
  if (model == "MPAS-A") return models::mpas_target();
  return Status(StatusCode::kNotFound, "unknown model '" + model + "'");
}

// --- rendezvous ring ------------------------------------------------------

TEST(Ring, CoversEveryNodeAndSuccessorsArePermutationPrefixes) {
  const HashRing ring({"a.sock", "b.sock", "c.sock", "d.sock"});
  std::vector<std::size_t> homed(4, 0);
  for (std::uint64_t key = 0; key < 2000; ++key) {
    const std::vector<std::size_t> succ = ring.successors(key, 4);
    ASSERT_EQ(succ.size(), 4u);
    // All distinct — a replica set never places two copies on one node.
    EXPECT_EQ(std::set<std::size_t>(succ.begin(), succ.end()).size(), 4u);
    EXPECT_EQ(ring.home(key), succ[0]);
    // A shorter successor list is a prefix of the longer one.
    const std::vector<std::size_t> two = ring.successors(key, 2);
    ASSERT_EQ(two.size(), 2u);
    EXPECT_EQ(two[0], succ[0]);
    EXPECT_EQ(two[1], succ[1]);
    ++homed[succ[0]];
  }
  // Every node takes a meaningful share (rendezvous balance: each of 4
  // nodes gets roughly 500 of 2000 keys; 200 is a generous floor).
  for (std::size_t n = 0; n < 4; ++n) EXPECT_GT(homed[n], 200u) << "node " << n;
}

TEST(Ring, RemovingANodeOnlyMovesItsOwnKeys) {
  const HashRing four({"a.sock", "b.sock", "c.sock", "d.sock"});
  const HashRing three({"a.sock", "b.sock", "c.sock"});
  for (std::uint64_t key = 0; key < 2000; ++key) {
    const std::size_t old_home = four.home(key);
    if (old_home != 3) {
      // Keys not homed on the removed node keep their home: this is the
      // property that makes losing one shard cheap (only its keys move, and
      // they move to their existing first replica).
      EXPECT_EQ(three.home(key), old_home) << "key " << key;
    } else {
      // Displaced keys land on their old second choice.
      EXPECT_EQ(three.home(key), four.successors(key, 2)[1]) << "key " << key;
    }
  }
}

TEST(Ring, PlacementIsAFunctionOfNameStrings) {
  // Same names, same order → same placement (this is what lets daemons and
  // clients compute identical routing from the shared --peers list).
  const HashRing a({"x", "y", "z"});
  const HashRing b({"x", "y", "z"});
  for (std::uint64_t key = 0; key < 256; ++key) {
    EXPECT_EQ(a.successors(key, 3), b.successors(key, 3));
  }
  EXPECT_EQ(a.index_of("y"), 1u);
  EXPECT_EQ(a.index_of("nope"), HashRing::npos);
}

// --- deterministic busy backoff -------------------------------------------

TEST(Backoff, DeterministicBoundedAndJittered) {
  const double base = 0.05, cap = 2.0;
  for (int attempt = 1; attempt <= 12; ++attempt) {
    const double d =
        ServeClient::busy_backoff_seconds(2024, 7, attempt, base, cap);
    // Replays compute the same schedule.
    EXPECT_EQ(d, ServeClient::busy_backoff_seconds(2024, 7, attempt, base, cap));
    // Bounds: half the nominal delay to the cap.
    const double nominal = std::min(cap, base * std::ldexp(1.0, attempt - 1));
    EXPECT_GE(d, nominal * 0.5) << "attempt " << attempt;
    EXPECT_LE(d, cap) << "attempt " << attempt;
  }
  // Different requests desynchronize — the whole point of the jitter is
  // that clients rejected together do not return together.
  std::set<double> delays;
  for (std::uint64_t id = 1; id <= 32; ++id) {
    delays.insert(ServeClient::busy_backoff_seconds(2024, id, 3, base, cap));
  }
  EXPECT_GT(delays.size(), 16u);
}

// --- machine-model codec --------------------------------------------------

TEST(MachineCodec, RoundTripPreservesTheTargetDigest) {
  tuner::TargetSpec spec = models::funarc_target();
  spec.machine.cost_div = 17.25;
  spec.machine.mpi_ranks = 96;
  spec.machine.allreduce_beta = 3.5e-9;
  const std::string encoded = machine_to_json(spec.machine);
  auto parsed = json::parse(encoded);
  ASSERT_TRUE(parsed.is_ok()) << encoded;
  auto decoded = machine_from_json(parsed.value());
  ASSERT_TRUE(decoded.is_ok()) << decoded.status().to_string();
  tuner::TargetSpec rebuilt = models::funarc_target();
  rebuilt.machine = decoded.value();
  // Bit-exact round trip: the digest computed from the decoded model equals
  // the digest of the original — the hello's agreement check is sound.
  EXPECT_EQ(target_digest(spec), target_digest(rebuilt));
  EXPECT_NE(target_digest(spec), target_digest(models::funarc_target()));
}

// --- deadlines ------------------------------------------------------------

/// A unix socket that accepts connections (kernel backlog) but never reads
/// or writes — the shape of a SIGSTOPped or wedged daemon.
struct SilentEndpoint {
  std::string path = fresh_path(".wedge.sock");
  int fd = -1;
  SilentEndpoint() {
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof addr.sun_path, "%s", path.c_str());
    ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
    ::listen(fd, 8);
  }
  ~SilentEndpoint() {
    if (fd >= 0) ::close(fd);
    ::unlink(path.c_str());
  }
};

TEST(Deadline, QueryStatsTimesOutAgainstAWedgedDaemon) {
  SilentEndpoint wedge;
  const auto t0 = std::chrono::steady_clock::now();
  auto stats = query_stats(wedge.path, 0.2);
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  ASSERT_FALSE(stats.is_ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(waited, 5.0);  // bounded, not hung
}

TEST(Deadline, HelloTimesOutAgainstAWedgedDaemon) {
  SilentEndpoint wedge;
  ServeClient::Options copts;
  copts.endpoints = {wedge.path};
  copts.model = "funarc";
  copts.hello_timeout_seconds = 0.2;
  auto client = ServeClient::connect(copts);
  ASSERT_FALSE(client.is_ok());
  EXPECT_EQ(client.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(Deadline, ReadFrameKeepsFramingAcrossATimeout) {
  int sv[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  const std::string frame = encode_frame(R"({"type":"stats"})");
  // First half of a frame, then a timeout, then the rest: the decoder must
  // not lose bytes across the deadline.
  ASSERT_GT(::send(sv[0], frame.data(), frame.size() / 2, 0), 0);
  FrameDecoder dec;
  std::string payload;
  Status timed_out = read_frame(sv[1], dec, &payload, 0.05);
  EXPECT_EQ(timed_out.code(), StatusCode::kDeadlineExceeded);
  ASSERT_GT(::send(sv[0], frame.data() + frame.size() / 2,
                   frame.size() - frame.size() / 2, 0),
            0);
  Status got = read_frame(sv[1], dec, &payload, 1.0);
  ASSERT_TRUE(got.is_ok()) << got.to_string();
  EXPECT_EQ(payload, R"({"type":"stats"})");
  ::close(sv[0]);
  ::close(sv[1]);
}

// --- segmented store ------------------------------------------------------

tuner::Evaluation sample_eval(double metric) {
  tuner::Evaluation e;
  e.outcome = tuner::Outcome::kPass;
  e.metric = metric;
  e.error = 1.25e-7;
  e.hotspot_cycles = 12345.0;
  e.speedup = 1.5;
  e.fraction32 = 0.5;
  e.proc_mean_cycles["mod::proc"] = 42.0;
  e.proc_calls["mod::proc"] = 7;
  return e;
}

void remove_dir(const std::string& dir) {
  // Tests only create flat seg-*.jsonl/.tmp files inside.
  const std::string cmd = "rm -rf '" + dir + "'";
  (void)!std::system(cmd.c_str());
}

TEST(SegmentedStore, RotatesAndRecoversAcrossReopen) {
  const std::string dir = fresh_path(".storedir");
  StoreOptions opts;
  opts.rotate_bytes = 512;  // tiny: force several rotations
  {
    auto store = ResultStore::open_dir(dir, opts);
    ASSERT_TRUE(store.is_ok()) << store.status().to_string();
    for (int i = 0; i < 32; ++i) {
      (*store)->insert(1, std::to_string(i), static_cast<std::uint64_t>(i),
                       sample_eval(i));
    }
    EXPECT_EQ((*store)->records(), 32u);
    EXPECT_GT((*store)->segment_count(), 2u);
  }
  auto store = ResultStore::open_dir(dir, opts);
  ASSERT_TRUE(store.is_ok()) << store.status().to_string();
  EXPECT_EQ((*store)->records(), 32u);
  EXPECT_EQ((*store)->recovered(), 32u);
  tuner::Evaluation eval;
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE((*store)->lookup(1, std::to_string(i),
                                 static_cast<std::uint64_t>(i), &eval))
        << "record " << i;
    EXPECT_EQ(eval.metric, static_cast<double>(i));
  }
  remove_dir(dir);
}

TEST(SegmentedStore, CompactionMergesToOneSegmentAndSurvivesReopen) {
  const std::string dir = fresh_path(".storedir");
  StoreOptions opts;
  opts.rotate_bytes = 512;
  {
    auto store = ResultStore::open_dir(dir, opts);
    ASSERT_TRUE(store.is_ok());
    for (int i = 0; i < 32; ++i) {
      (*store)->insert(1, std::to_string(i), static_cast<std::uint64_t>(i),
                       sample_eval(i));
    }
    ASSERT_GT((*store)->segment_count(), 2u);
    const Status compacted = (*store)->compact();
    ASSERT_TRUE(compacted.is_ok()) << compacted.to_string();
    EXPECT_EQ((*store)->segment_count(), 1u);
    EXPECT_EQ((*store)->records(), 32u);
    // The compacted store keeps accepting inserts.
    (*store)->insert(1, "after", 99, sample_eval(99.0));
    EXPECT_TRUE((*store)->error().is_ok());
  }
  auto store = ResultStore::open_dir(dir, opts);
  ASSERT_TRUE(store.is_ok()) << store.status().to_string();
  EXPECT_EQ(store.value()->records(), 33u);
  remove_dir(dir);
}

TEST(SegmentedStore, AutoCompactsAtOpenWhenOverTheSegmentBudget) {
  const std::string dir = fresh_path(".storedir");
  StoreOptions opts;
  opts.rotate_bytes = 512;
  {
    auto store = ResultStore::open_dir(dir, opts);
    ASSERT_TRUE(store.is_ok());
    for (int i = 0; i < 32; ++i) {
      (*store)->insert(1, std::to_string(i), static_cast<std::uint64_t>(i),
                       sample_eval(i));
    }
    ASSERT_GT((*store)->segment_count(), 3u);
  }
  StoreOptions compacting = opts;
  compacting.compact_over_segments = 3;
  auto store = ResultStore::open_dir(dir, compacting);
  ASSERT_TRUE(store.is_ok()) << store.status().to_string();
  EXPECT_EQ((*store)->segment_count(), 1u);
  EXPECT_EQ((*store)->records(), 32u);
  remove_dir(dir);
}

TEST(SegmentedStore, RefusesForeignAndSplicedSegments) {
  // Prose, and a segment whose complete lines are all blank (no header for
  // appended results to follow).
  for (const char* text : {"once upon a time\n", "\n"}) {
    const std::string dir = fresh_path(".storedir");
    ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);
    std::ofstream out(dir + "/seg-000000.jsonl");
    out << text;
    out.close();
    auto store = ResultStore::open_dir(dir);
    ASSERT_FALSE(store.is_ok()) << "accepted " << text;
    EXPECT_NE(store.status().message().find("refusing"), std::string::npos);
    remove_dir(dir);
  }
  {
    // A segment copied under the wrong index is refused: its header names
    // its true index, catching splice/copy mistakes before they corrupt
    // dedup order.
    const std::string dir = fresh_path(".storedir");
    {
      auto store = ResultStore::open_dir(dir);
      ASSERT_TRUE(store.is_ok());
      (*store)->insert(1, "44", 0, sample_eval(1.0));
    }
    std::ifstream in(dir + "/seg-000000.jsonl", std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    std::ofstream out(dir + "/seg-000001.jsonl", std::ios::binary);
    out << bytes;
    out.close();
    auto store = ResultStore::open_dir(dir);
    ASSERT_FALSE(store.is_ok());
    EXPECT_NE(store.status().message().find("copied or spliced"),
              std::string::npos);
    remove_dir(dir);
  }
}

TEST(SegmentedStore, TornActiveTailIsDroppedOlderSegmentsUntouched) {
  const std::string dir = fresh_path(".storedir");
  StoreOptions opts;
  opts.rotate_bytes = 512;
  {
    auto store = ResultStore::open_dir(dir, opts);
    ASSERT_TRUE(store.is_ok());
    for (int i = 0; i < 16; ++i) {
      (*store)->insert(1, std::to_string(i), static_cast<std::uint64_t>(i),
                       sample_eval(i));
    }
    ASSERT_GT((*store)->segment_count(), 1u);
  }
  // Tear the active (highest) segment mid-record.
  std::size_t highest = 0;
  {
    auto store = ResultStore::open_dir(dir, opts);
    ASSERT_TRUE(store.is_ok());
    highest = (*store)->segment_count() - 1;
  }
  char name[64];
  std::snprintf(name, sizeof name, "/seg-%06zu.jsonl", highest);
  {
    std::ofstream out(dir + name, std::ios::app | std::ios::binary);
    out << "{\"type\":\"result\",\"ns\":\"00000000000000";
  }
  auto store = ResultStore::open_dir(dir, opts);
  ASSERT_TRUE(store.is_ok()) << store.status().to_string();
  EXPECT_EQ((*store)->recovered(), 16u);
  (*store)->insert(1, "fresh", 77, sample_eval(7.0));
  EXPECT_TRUE((*store)->error().is_ok());
  remove_dir(dir);
}

// --- crash consistency: SIGKILL at every cut point ------------------------

/// Selected in the parent before fork(); the child inherits it. The hook
/// SIGKILLs the child mid-rotation/compaction, exactly like a power cut at
/// that instant.
const char* g_crash_at = nullptr;

void crash_hook(const char* point) {
  if (g_crash_at != nullptr && std::strcmp(point, g_crash_at) == 0) {
    ::kill(::getpid(), SIGKILL);
  }
}

/// Runs `body` in a forked child with the crash hook armed at `point`;
/// returns true if the child died by SIGKILL (i.e. the point was reached).
bool run_child_until_crash(const char* point, void (*body)(const char* dir),
                           const std::string& dir) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    g_crash_at = point;
    record_log::set_crash_hook(crash_hook);
    body(dir.c_str());
    ::_exit(0);
  }
  int wstatus = 0;
  ::waitpid(pid, &wstatus, 0);
  return WIFSIGNALED(wstatus) && WTERMSIG(wstatus) == SIGKILL;
}

/// Child body for rotation crashes: insert records into a tiny-rotation
/// store, appending each acknowledged index to acks.txt (fsync'd) AFTER the
/// insert returns — the durability contract covers exactly these.
void insert_until_crash(const char* dir) {
  StoreOptions opts;
  opts.rotate_bytes = 512;
  auto store = ResultStore::open_dir(dir, opts);
  if (!store.is_ok()) ::_exit(2);
  const std::string ack_path = std::string(dir) + "/acks.txt";
  const int ack = ::open(ack_path.c_str(), O_CREAT | O_WRONLY | O_APPEND, 0644);
  for (int i = 0; i < 64; ++i) {
    (*store)->insert(1, std::to_string(i), static_cast<std::uint64_t>(i),
                     sample_eval(i));
    ::dprintf(ack, "%d\n", i);
    ::fsync(ack);
  }
  ::close(ack);
}

/// Child body for compaction crashes: the parent pre-built the segments;
/// every record is already acknowledged, compaction must not lose any.
void compact_until_crash(const char* dir) {
  StoreOptions opts;
  opts.rotate_bytes = 512;
  auto store = ResultStore::open_dir(dir, opts);
  if (!store.is_ok()) ::_exit(2);
  (void)(*store)->compact();
}

std::vector<int> read_acks(const std::string& dir) {
  std::vector<int> acked;
  std::ifstream in(dir + "/acks.txt");
  for (int i = 0; in >> i;) acked.push_back(i);
  return acked;
}

TEST(CrashConsistency, RotationLosesNothingAcknowledgedAtAnyCutPoint) {
  for (const char* point :
       {"rotate.written", "rotate.synced", "rotate.dir_synced"}) {
    const std::string dir = fresh_path(".crashdir");
    ASSERT_TRUE(run_child_until_crash(point, insert_until_crash, dir))
        << "cut point " << point << " never reached";
    auto store = ResultStore::open_dir(dir);
    ASSERT_TRUE(store.is_ok())
        << point << ": " << store.status().to_string();
    tuner::Evaluation eval;
    for (const int i : read_acks(dir)) {
      EXPECT_TRUE((*store)->lookup(1, std::to_string(i),
                                   static_cast<std::uint64_t>(i), &eval))
          << "acknowledged record " << i << " lost at " << point;
    }
    // The recovered store is fully usable: inserts and compaction work.
    (*store)->insert(1, "post", 1000, sample_eval(1.0));
    EXPECT_TRUE((*store)->error().is_ok()) << point;
    EXPECT_TRUE((*store)->compact().is_ok()) << point;
    remove_dir(dir);
  }
}

TEST(CrashConsistency, CompactionLosesNothingAtAnyCutPoint) {
  for (const char* point :
       {"compact.tmp_written", "compact.tmp_synced", "compact.renamed",
        "compact.dir_synced", "compact.unlinked"}) {
    const std::string dir = fresh_path(".crashdir");
    {
      StoreOptions opts;
      opts.rotate_bytes = 512;
      auto store = ResultStore::open_dir(dir, opts);
      ASSERT_TRUE(store.is_ok());
      for (int i = 0; i < 24; ++i) {
        (*store)->insert(1, std::to_string(i), static_cast<std::uint64_t>(i),
                         sample_eval(i));
      }
      ASSERT_GT((*store)->segment_count(), 2u);
    }
    ASSERT_TRUE(run_child_until_crash(point, compact_until_crash, dir))
        << "cut point " << point << " never reached";
    auto store = ResultStore::open_dir(dir);
    ASSERT_TRUE(store.is_ok())
        << point << ": " << store.status().to_string();
    // Every pre-compaction record survives, whichever generation won.
    EXPECT_EQ((*store)->records(), 24u) << point;
    tuner::Evaluation eval;
    for (int i = 0; i < 24; ++i) {
      EXPECT_TRUE((*store)->lookup(1, std::to_string(i),
                                   static_cast<std::uint64_t>(i), &eval))
          << "record " << i << " lost at " << point;
      EXPECT_EQ(eval.metric, static_cast<double>(i));
    }
    // A second compaction completes and converges to one segment.
    EXPECT_TRUE((*store)->compact().is_ok()) << point;
    EXPECT_EQ((*store)->segment_count(), 1u) << point;
    remove_dir(dir);
  }
}

// --- fleet ----------------------------------------------------------------

struct Fleet {
  std::vector<std::string> endpoints;
  std::vector<std::string> stores;
  std::vector<std::unique_ptr<Server>> servers;

  Fleet() = default;
  Fleet(Fleet&&) = default;
  Fleet& operator=(Fleet&&) = default;

  /// Starts `n` daemons that all know the same peer list (replication R) and
  /// each own a segmented store directory. Endpoints not given are fresh.
  static Fleet start(std::size_t n, std::size_t replicate,
                     std::vector<std::string> stores = {},
                     std::vector<std::string> endpoints = {}) {
    Fleet f;
    f.endpoints = std::move(endpoints);
    while (f.endpoints.size() < n) {
      f.endpoints.push_back(fresh_path(".shard.sock"));
    }
    f.stores = std::move(stores);
    while (f.stores.size() < n) f.stores.push_back(fresh_path(".storedir"));
    for (std::size_t i = 0; i < n; ++i) {
      f.servers.push_back(f.make_server(i, replicate));
      const Status started = f.servers.back()->start();
      EXPECT_TRUE(started.is_ok()) << started.to_string();
    }
    return f;
  }

  std::unique_ptr<Server> make_server(std::size_t i,
                                      std::size_t replicate) const {
    ServerOptions opts;
    opts.endpoint = endpoints[i];
    opts.store_path = stores[i];
    opts.store_dir = true;
    opts.peers = endpoints;
    opts.replicate = replicate;
    opts.peer_timeout_seconds = 2.0;
    opts.jobs = 2;
    opts.retry_after_seconds = 0.001;
    return std::make_unique<Server>(opts, resolve_model);
  }

  void stop_all() {
    for (auto& s : servers) {
      if (s != nullptr) {
        s->shutdown();
        s->wait();
      }
    }
  }

  ~Fleet() {
    stop_all();
    for (const auto& dir : stores) remove_dir(dir);
  }
};

/// Bit-identical comparison of every Evaluation field (doubles with
/// operator==, deliberately: the contract is exact reproduction).
void expect_same_eval(const tuner::Evaluation& a, const tuner::Evaluation& b,
                      int id) {
  EXPECT_EQ(a.outcome, b.outcome) << "variant " << id;
  EXPECT_EQ(a.detail, b.detail) << "variant " << id;
  EXPECT_EQ(a.metric, b.metric) << "variant " << id;
  EXPECT_EQ(a.error, b.error) << "variant " << id;
  EXPECT_EQ(a.hotspot_cycles, b.hotspot_cycles) << "variant " << id;
  EXPECT_EQ(a.whole_cycles, b.whole_cycles) << "variant " << id;
  EXPECT_EQ(a.measured_cycles, b.measured_cycles) << "variant " << id;
  EXPECT_EQ(a.speedup, b.speedup) << "variant " << id;
  EXPECT_EQ(a.fraction32, b.fraction32) << "variant " << id;
  EXPECT_EQ(a.proc_mean_cycles, b.proc_mean_cycles) << "variant " << id;
  EXPECT_EQ(a.proc_calls, b.proc_calls) << "variant " << id;
  EXPECT_EQ(a.node_seconds, b.node_seconds) << "variant " << id;
}

void expect_same_campaign(const tuner::CampaignResult& local,
                          const tuner::CampaignResult& served) {
  const tuner::SearchResult& a = local.search;
  const tuner::SearchResult& b = served.search;
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].id, b.records[i].id);
    EXPECT_EQ(a.records[i].config, b.records[i].config)
        << "variant " << a.records[i].id;
    expect_same_eval(a.records[i].eval, b.records[i].eval, a.records[i].id);
  }
  EXPECT_EQ(a.best_speedup, b.best_speedup);
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_EQ(a.one_minimal, b.one_minimal);
  EXPECT_EQ(local.summary.best_speedup, served.summary.best_speedup);
  EXPECT_EQ(local.summary.total, served.summary.total);
  EXPECT_EQ(local.summary.wall_hours, served.summary.wall_hours);
  EXPECT_EQ(local.final_kinds, served.final_kinds);
}

/// A funarc campaign, served through `client` or local when it is null;
/// `faults` and `journal` are the fault spec and journal path (empty = off).
tuner::CampaignResult run_campaign_on(ServeClient* client, std::size_t jobs,
                                      const std::string& faults = "",
                                      const std::string& journal = "") {
  tuner::CampaignOptions opts;
  opts.jobs = jobs;
  opts.backend = client;
  opts.fault_spec = faults;
  opts.journal_path = journal;
  auto result = tuner::run_campaign(models::funarc_target(), opts);
  EXPECT_TRUE(result.is_ok()) << result.status().to_string();
  return std::move(result.value());
}

tuner::CampaignResult run_local_funarc() { return run_campaign_on(nullptr, 1); }

StatusOr<std::unique_ptr<ServeClient>> fleet_client(
    const Fleet& f, double hedge_after = 0.0, const std::string& faults = "") {
  ServeClient::Options copts;
  copts.endpoints = f.endpoints;
  copts.model = "funarc";
  copts.target_digest = target_digest(models::funarc_target());
  copts.fault_spec = faults;
  copts.hedge_after_seconds = hedge_after;
  copts.connect_timeout_seconds = 2.0;
  copts.io_timeout_seconds = 30.0;
  return ServeClient::connect(copts);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Param: client jobs. Each test picks the fleet size; a fleet of one is
/// how a single `--server` campaign runs.
class FleetDeterminism : public ::testing::TestWithParam<std::size_t> {
 protected:
  /// Serves a campaign from an n-shard fleet and SIGKILLs the last shard
  /// mid-run; the results and journal bytes must still match the local
  /// campaign bit for bit, under the fault spec `faults` too.
  void kill_last_shard_mid_run(std::size_t n, const std::string& faults = "") {
    const std::size_t jobs = GetParam();
    const std::string local_journal = fresh_path(".local.journal");
    const std::string served_journal = fresh_path(".served.journal");
    const tuner::CampaignResult local =
        run_campaign_on(nullptr, 1, faults, local_journal);

    Fleet f = Fleet::start(n, /*replicate=*/2);
    auto client = fleet_client(f, /*hedge_after=*/0.0, faults);
    ASSERT_TRUE(client.is_ok()) << client.status().to_string();
    ASSERT_EQ(client.value()->alive_shards(), n);

    // SIGKILL the shard the moment it has handled real work: every socket
    // is severed abruptly, queued work is dropped unanswered, nothing is
    // flushed. With no replica left its keys fall back to local.
    Server& victim = *f.servers[n - 1];
    std::atomic<bool> stop_killer{false};
    std::thread killer([&] {
      while (!stop_killer.load()) {
        if (victim.stats().requests >= 2) {
          victim.hard_kill();
          return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
    const tuner::CampaignResult served =
        run_campaign_on(client.value().get(), jobs, faults, served_journal);
    stop_killer.store(true);
    killer.join();
    // The shard may legitimately never have been routed a request; make the
    // death unconditional so teardown is deterministic either way.
    victim.hard_kill();

    expect_same_campaign(local, served);
    EXPECT_EQ(slurp(local_journal), slurp(served_journal))
        << "journal bytes differ from the local run";
    std::remove(local_journal.c_str());
    std::remove(served_journal.c_str());
  }
};

TEST_P(FleetDeterminism, ShardKilledMidRunStaysBitIdenticalToLocal) {
  kill_last_shard_mid_run(3);
  // Injected transient faults: retries and quarantines must replay the same
  // way on the fleet as they do locally.
  kill_last_shard_mid_run(3, "transient:p=0.05");
}

TEST_P(FleetDeterminism, SoleShardKilledMidRunStaysBitIdenticalToLocal) {
  kill_last_shard_mid_run(1);
}

INSTANTIATE_TEST_SUITE_P(Jobs, FleetDeterminism,
                         ::testing::Values(std::size_t{1}, std::size_t{4}),
                         [](const auto& info) {
                           return "jobs" + std::to_string(info.param);
                         });

TEST(Fleet, DeadShardDiscoveredMidCampaignFailsOverAndTallies) {
  const tuner::CampaignResult local = run_local_funarc();
  // Placement is a function of the endpoint strings, and those are fresh on
  // every run: a fixed victim may home none of the campaign's keys. A
  // healthy probe fleet on the same names shows which shards are routed
  // work, so the victim below is certain to be asked for something.
  std::vector<std::string> endpoints;
  std::size_t victim = 0;
  {
    Fleet probe = Fleet::start(3, /*replicate=*/2);
    auto client = fleet_client(probe);
    ASSERT_TRUE(client.is_ok()) << client.status().to_string();
    expect_same_campaign(local, run_campaign_on(client.value().get(), 1));
    while (victim < 3 && probe.servers[victim]->stats().requests == 0) {
      ++victim;
    }
    ASSERT_LT(victim, 3u);
    endpoints = probe.endpoints;
  }

  Fleet f = Fleet::start(3, /*replicate=*/2, {}, endpoints);
  auto client = fleet_client(f);
  ASSERT_TRUE(client.is_ok()) << client.status().to_string();
  ASSERT_EQ(client.value()->alive_shards(), 3u);
  // Kill a shard AFTER the hellos: the client still believes it is alive
  // and discovers the death on the first request routed there.
  f.servers[victim]->hard_kill();

  tuner::CampaignOptions opts;
  opts.jobs = 1;
  opts.backend = client.value().get();
  auto served = tuner::run_campaign(models::funarc_target(), opts);
  ASSERT_TRUE(served.is_ok()) << served.status().to_string();
  expect_same_campaign(local, *served);

  const tuner::EvalBackend::Counters c = client.value()->counters();
  EXPECT_GE(c.shards_lost, 1u);
  EXPECT_GE(c.failovers, 1u);
  EXPECT_EQ(client.value()->alive_shards(), 2u);
  // The campaign surfaced the same tallies.
  EXPECT_EQ(served->summary.shards_lost, c.shards_lost);
  EXPECT_EQ(served->summary.failovers, c.failovers);
  EXPECT_EQ(served->summary.metrics.value("prose_client_failovers"),
            static_cast<double>(c.failovers));
}

TEST(Fleet, WarmRerunIsServedEntirelyByTheSurvivingReplicas) {
  const tuner::CampaignResult local = run_local_funarc();
  std::vector<std::string> stores;
  std::vector<std::string> endpoints;
  {
    // Cold run against a healthy 3-shard fleet with R=2: every result is
    // durable on its home and one successor before any client saw it.
    Fleet f = Fleet::start(3, /*replicate=*/2);
    auto client = fleet_client(f);
    ASSERT_TRUE(client.is_ok()) << client.status().to_string();
    expect_same_campaign(local, run_campaign_on(client.value().get(), 1));
    std::uint64_t evals = 0, repl = 0;
    for (const auto& s : f.servers) {
      evals += s->stats().evals_executed;
      repl += s->stats().repl_sent;
    }
    EXPECT_GT(evals, 0u);
    EXPECT_GT(repl, 0u);  // replication actually happened
    stores = f.stores;
    endpoints = f.endpoints;
    f.stop_all();
    f.stores.clear();  // keep the store dirs for the warm fleet
  }
  // Warm rerun with shard 0 permanently dead: its keys' first replicas own
  // every result it computed, so nothing is re-executed. Survivors keep
  // their original peer-list slots (slot 0 stays empty — placement is a
  // function of the strings, not of who answers).
  Fleet warm;
  warm.endpoints = endpoints;
  warm.stores = stores;
  warm.servers.push_back(nullptr);
  for (std::size_t i = 1; i < 3; ++i) {
    warm.servers.push_back(warm.make_server(i, 2));
    const Status started = warm.servers.back()->start();
    ASSERT_TRUE(started.is_ok()) << started.to_string();
  }
  auto client = fleet_client(warm);
  ASSERT_TRUE(client.is_ok()) << client.status().to_string();
  EXPECT_EQ(client.value()->alive_shards(), 2u);
  expect_same_campaign(local, run_campaign_on(client.value().get(), 1));
  std::uint64_t warm_evals = 0, hits = 0, requests = 0;
  for (const auto& s : warm.servers) {
    if (s == nullptr) continue;
    warm_evals += s->stats().evals_executed;
    hits += s->stats().store_hits;
    requests += s->stats().requests;
  }
  EXPECT_EQ(warm_evals, 0u);
  EXPECT_GT(requests, 0u);
  EXPECT_GE(hits * 10, requests * 9);  // ≥90% straight from the stores
}

TEST(Fleet, ReplicationMakesEveryResultDurableOnTwoShards) {
  Fleet f = Fleet::start(2, /*replicate=*/2);
  auto client = fleet_client(f);
  ASSERT_TRUE(client.is_ok()) << client.status().to_string();
  run_campaign_on(client.value().get(), 1);
  const ServerStats a = f.servers[0]->stats();
  const ServerStats b = f.servers[1]->stats();
  // R=2 over 2 shards: both stores hold the full result set.
  EXPECT_GT(a.store_records, 0u);
  EXPECT_EQ(a.store_records, b.store_records);
  EXPECT_EQ(a.repl_sent, b.puts_in);
  EXPECT_EQ(b.repl_sent, a.puts_in);
  EXPECT_GT(a.repl_sent + b.repl_sent, 0u);
  EXPECT_EQ(a.repl_failed + b.repl_failed, 0u);
}

TEST(Fleet, TwoRacingClientsWithAggressiveHedgingStayBitIdentical) {
  const tuner::CampaignResult local = run_local_funarc();
  Fleet f = Fleet::start(3, /*replicate=*/2);
  // A sub-millisecond hedge threshold fires constantly — the point of the
  // test: hedged duplicates and first-reply-wins resolution must never leak
  // into results, even with two clients racing through the same namespace.
  auto c1 = fleet_client(f, /*hedge_after=*/0.0005);
  auto c2 = fleet_client(f, /*hedge_after=*/0.0005);
  ASSERT_TRUE(c1.is_ok()) << c1.status().to_string();
  ASSERT_TRUE(c2.is_ok()) << c2.status().to_string();
  tuner::CampaignResult first, second;
  std::thread t1([&] { first = run_campaign_on(c1.value().get(), 4); });
  std::thread t2([&] { second = run_campaign_on(c2.value().get(), 4); });
  t1.join();
  t2.join();
  expect_same_campaign(local, first);
  expect_same_campaign(local, second);
  const std::uint64_t hedges =
      c1.value()->counters().hedges + c2.value()->counters().hedges;
  EXPECT_GT(hedges, 0u);
  EXPECT_GE(hedges, c1.value()->counters().hedge_wins +
                        c2.value()->counters().hedge_wins);
}

/// Kills the last of n shards, runs a campaign (which discovers the death
/// and fails over, or falls back to local when n == 1), restarts the shard
/// and checks the next campaign re-dials it back into the rotation.
void restart_last_shard_heals(std::size_t n) {
  Fleet f = Fleet::start(n, /*replicate=*/2);
  auto client = fleet_client(f);
  ASSERT_TRUE(client.is_ok()) << client.status().to_string();
  ASSERT_EQ(client.value()->alive_shards(), n);

  const std::size_t last = n - 1;
  f.servers[last]->hard_kill();
  run_campaign_on(client.value().get(), 1);  // discovers the death, fails over
  EXPECT_EQ(client.value()->alive_shards(), n - 1);

  // Restart the shard on the same endpoint/store/peer list; the client's
  // per-batch reprobe re-dials it and it rejoins the rotation.
  f.servers[last] = f.make_server(last, 2);
  ASSERT_TRUE(f.servers[last]->start().is_ok());
  run_campaign_on(client.value().get(), 1);
  EXPECT_EQ(client.value()->alive_shards(), n);
  EXPECT_GT(f.servers[last]->stats().requests, 0u);
}

TEST(Fleet, RestartedShardHealsBackIntoTheRotation) {
  restart_last_shard_heals(2);
}

TEST(Fleet, RestartedSoleShardHealsBackIntoTheRotation) {
  restart_last_shard_heals(1);
}

TEST(Fleet, OneFleetServesTwoMachineModelsViaHelloOverride) {
  Fleet f = Fleet::start(2, /*replicate=*/2);

  ServeClient::Options stock;
  stock.endpoints = f.endpoints;
  stock.model = "funarc";
  stock.target_digest = target_digest(models::funarc_target());
  auto a = ServeClient::connect(stock);
  ASSERT_TRUE(a.is_ok()) << a.status().to_string();

  // Same model name, different hardware: the hello ships the full machine
  // model inline and the digest check proves the server decoded it
  // bit-exactly.
  tuner::TargetSpec tweaked = models::funarc_target();
  tweaked.machine.cost_div += 4.0;
  tweaked.machine.mpi_ranks = 128;
  ServeClient::Options big = stock;
  big.machine = tweaked.machine;
  big.target_digest = target_digest(tweaked);
  auto b = ServeClient::connect(big);
  ASSERT_TRUE(b.is_ok()) << b.status().to_string();

  EXPECT_NE(a.value()->namespace_hex(), b.value()->namespace_hex());
  EXPECT_EQ(f.servers[0]->stats().namespaces, 2u);

  // And the served campaign under the overridden machine matches the local
  // campaign under the same machine, bit for bit.
  tuner::CampaignOptions lopts;
  lopts.jobs = 1;
  auto local = tuner::run_campaign(tweaked, lopts);
  ASSERT_TRUE(local.is_ok()) << local.status().to_string();
  tuner::CampaignOptions sopts;
  sopts.jobs = 1;
  sopts.backend = b.value().get();
  auto served = tuner::run_campaign(tweaked, sopts);
  ASSERT_TRUE(served.is_ok()) << served.status().to_string();
  expect_same_campaign(*local, *served);
}

TEST(Fleet, MisconfiguredFleetFailsTheConnectNotTheCampaign) {
  Fleet f = Fleet::start(2, /*replicate=*/2);
  ServeClient::Options copts;
  copts.endpoints = f.endpoints;
  copts.model = "funarc";
  copts.target_digest = 0xdeadbeef;  // wrong on every shard
  auto client = ServeClient::connect(copts);
  ASSERT_FALSE(client.is_ok());
  EXPECT_NE(client.status().message().find("digest_mismatch"),
            std::string::npos);

  // All shards unreachable: connect fails with the last availability error.
  ServeClient::Options gone;
  gone.endpoints = {fresh_path(".nope.sock"), fresh_path(".nope.sock")};
  gone.model = "funarc";
  gone.connect_timeout_seconds = 0.5;
  auto none = ServeClient::connect(gone);
  ASSERT_FALSE(none.is_ok());
  EXPECT_NE(none.status().message().find("no fleet shard reachable"),
            std::string::npos);

  // No endpoints at all is a configuration error, not an outage.
  ServeClient::Options empty;
  empty.model = "funarc";
  auto nothing = ServeClient::connect(empty);
  ASSERT_FALSE(nothing.is_ok());
  EXPECT_EQ(nothing.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(nothing.status().message().find("no endpoints"),
            std::string::npos);
}

}  // namespace
}  // namespace prose::serve
