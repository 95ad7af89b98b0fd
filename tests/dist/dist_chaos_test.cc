// Distributed-solve fault tolerance against REAL worker processes
// (`prefcover dist-worker`, spawned from PREFCOVER_CLI_PATH): a worker
// SIGKILLed mid-solve is detected, its shard is re-assigned to the
// survivors (dist.rebalances ticks), and the final solution is still
// byte-identical to the single-process lazy solve. A second run arms
// the net.* failpoints inside the workers so read/write faults hit the
// wire for real — the ResilientClient retry path plus the exactly-once
// commit must absorb them without changing a byte. The solve fails
// (promptly, not by hanging) only when every worker is gone. Last, the
// CLI's `solve --workers` against two real workers writes the same files
// as `solve --algorithm=lazy`, under force lists, deadlines and resume.

#if !defined(__unix__) && !defined(__APPLE__)
// POSIX-only, like the transport under test.
#else

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/greedy_solver.h"
#include "dist/distributed_solver.h"
#include "dist/protocol.h"
#include "graph/graph_generators.h"
#include "graph/graph_io.h"
#include "obs/metrics.h"
#include "serve/transport.h"
#include "util/failpoint.h"
#include "util/random.h"
#include "util/string_util.h"

#ifndef PREFCOVER_CLI_PATH
#error "PREFCOVER_CLI_PATH must be defined by the build"
#endif

namespace prefcover {
namespace dist {
namespace {

struct WorkerProc {
  pid_t pid = -1;
  uint16_t port = 0;
  bool killed = false;
};

/// Forks one real `prefcover dist-worker` with stdout on a pipe and
/// parses the DIST_WORKER_PORT=<port> line it prints once listening.
/// `failpoints` (may be empty) lands in the worker's environment only —
/// the coordinator side of this test runs fault-free.
WorkerProc SpawnWorker(const std::string& graph_path,
                       const std::string& failpoints) {
  WorkerProc worker;
  int pipe_fds[2];
  EXPECT_EQ(::pipe(pipe_fds), 0);
  const pid_t pid = ::fork();
  if (pid < 0) {
    ADD_FAILURE() << "fork: " << std::strerror(errno);
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    return worker;
  }
  if (pid == 0) {
    ::close(pipe_fds[0]);
    ::dup2(pipe_fds[1], STDOUT_FILENO);
    ::close(pipe_fds[1]);
    if (!failpoints.empty()) {
      ::setenv("PREFCOVER_FAILPOINTS", failpoints.c_str(), 1);
    }
    const std::string graph_flag = "--graph=" + graph_path;
    ::execl(PREFCOVER_CLI_PATH, PREFCOVER_CLI_PATH, "dist-worker",
            graph_flag.c_str(), "--port=0", static_cast<char*>(nullptr));
    ::_exit(127);
  }
  ::close(pipe_fds[1]);
  std::string line;
  char ch;
  while (line.size() < 256) {
    const ssize_t got = ::read(pipe_fds[0], &ch, 1);
    if (got <= 0 || ch == '\n') break;
    line.push_back(ch);
  }
  ::close(pipe_fds[0]);
  worker.pid = pid;
  const std::string prefix = "DIST_WORKER_PORT=";
  if (line.rfind(prefix, 0) == 0) {
    auto port = ParseUint32(line.substr(prefix.size()));
    if (port.ok() && *port > 0 && *port <= 65535) {
      worker.port = static_cast<uint16_t>(*port);
      return worker;
    }
  }
  ADD_FAILURE() << "worker did not announce a port (got '" << line << "')";
  ::kill(pid, SIGKILL);
  ::waitpid(pid, nullptr, 0);
  worker.pid = -1;
  return worker;
}

void SendShutdown(uint16_t port) {
  auto fd = serve::ConnectTcp("127.0.0.1", port, 500);
  if (!fd.ok()) return;
  static const char kShutdown[] = "shutdown\n";
  (void)serve::WriteFully(*fd, kShutdown, sizeof(kShutdown) - 1);
  char buffer[64];
  (void)serve::ReadSome(*fd, buffer, sizeof(buffer));
  ::close(*fd);
}

void Reap(std::vector<WorkerProc>* workers) {
  for (WorkerProc& worker : *workers) {
    if (worker.pid <= 0) continue;
    if (!worker.killed) SendShutdown(worker.port);
    for (int i = 0; i < 200; ++i) {
      if (::waitpid(worker.pid, nullptr, WNOHANG) == worker.pid) {
        worker.pid = -1;
        break;
      }
      ::usleep(10 * 1000);
    }
    if (worker.pid > 0) {
      ::kill(worker.pid, SIGKILL);
      ::waitpid(worker.pid, nullptr, 0);
      worker.pid = -1;
    }
  }
}

void ExpectByteIdentical(const Solution& dist, const Solution& reference) {
  EXPECT_EQ(dist.items, reference.items);
  EXPECT_EQ(std::memcmp(&dist.cover, &reference.cover, sizeof(double)), 0);
  ASSERT_EQ(dist.cover_after_prefix.size(),
            reference.cover_after_prefix.size());
  EXPECT_EQ(std::memcmp(dist.cover_after_prefix.data(),
                        reference.cover_after_prefix.data(),
                        dist.cover_after_prefix.size() * sizeof(double)),
            0);
  ASSERT_EQ(dist.item_contributions.size(),
            reference.item_contributions.size());
  EXPECT_EQ(std::memcmp(dist.item_contributions.data(),
                        reference.item_contributions.data(),
                        dist.item_contributions.size() * sizeof(double)),
            0);
}

class DistChaosTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(2024);
    UniformGraphParams params;
    params.num_nodes = 220;
    params.out_degree = 5;
    params.popularity_skew = 0.8;
    auto graph = GenerateUniformGraph(params, &rng);
    ASSERT_TRUE(graph.ok()) << graph.status().ToString();
    graph_ = new PreferenceGraph(std::move(graph).value());
    graph_path_ =
        new std::string(::testing::TempDir() + "/dist_chaos_graph.pcg");
    ASSERT_TRUE(WriteGraphBinaryFile(*graph_, *graph_path_).ok());
    reference_ = new Solution();
    auto solved = SolveGreedyLazy(*graph_, kBudget, GreedyOptions());
    ASSERT_TRUE(solved.ok()) << solved.status().ToString();
    *reference_ = std::move(solved).value();
  }

  static void TearDownTestSuite() {
    delete graph_;
    delete graph_path_;
    delete reference_;
    graph_ = nullptr;
    graph_path_ = nullptr;
    reference_ = nullptr;
  }

  std::vector<WorkerProc> Spawn(size_t count,
                                const std::string& failpoints = "") {
    std::vector<WorkerProc> workers;
    for (size_t i = 0; i < count; ++i) {
      WorkerProc worker = SpawnWorker(*graph_path_, failpoints);
      if (worker.pid > 0) workers.push_back(worker);
    }
    return workers;
  }

  static DistSolveOptions Fleet(const std::vector<WorkerProc>& workers) {
    DistSolveOptions options;
    for (const WorkerProc& worker : workers) {
      DistWorkerEndpoint endpoint;
      endpoint.port = worker.port;
      options.workers.push_back(endpoint);
    }
    // Tight enough that a SIGKILLed worker is declared dead in well
    // under a second of retrying, long enough for a loaded CI machine.
    options.client.request_timeout_ms = 2000;
    options.client.max_attempts = 3;
    options.client.backoff_max_ms = 50;
    return options;
  }

  static constexpr size_t kBudget = 30;
  static PreferenceGraph* graph_;
  static std::string* graph_path_;
  static Solution* reference_;
};

PreferenceGraph* DistChaosTest::graph_ = nullptr;
std::string* DistChaosTest::graph_path_ = nullptr;
Solution* DistChaosTest::reference_ = nullptr;

TEST_F(DistChaosTest, WorkerKilledMidSolveIsRebalancedByteIdentically) {
  std::vector<WorkerProc> workers = Spawn(4);
  ASSERT_EQ(workers.size(), 4u);
  DistSolveOptions options = Fleet(workers);
  // SIGKILL the last worker the moment round 5 starts: its shard must be
  // re-assigned to the survivors and the solve must not lose a byte.
  WorkerProc* victim = &workers.back();
  options.on_round = [victim](size_t committed) {
    if (victim->killed || committed != 5) return;
    ::kill(victim->pid, SIGKILL);
    ::waitpid(victim->pid, nullptr, 0);
    victim->pid = -1;
    victim->killed = true;
  };

  const auto before = obs::MetricsRegistry::Global().Snapshot();
  auto solution =
      SolveGreedyDistributed(*graph_, kBudget, GreedyOptions(), options);
  Reap(&workers);
  ASSERT_TRUE(solution.ok()) << solution.status().ToString();
  ASSERT_TRUE(victim->killed) << "solve ended before the kill round";
  ExpectByteIdentical(*solution, *reference_);

  const auto after = obs::MetricsRegistry::Global().Snapshot();
  EXPECT_GE(after.CounterOr(dist_metric::kWorkerFailures),
            before.CounterOr(dist_metric::kWorkerFailures) + 1);
  EXPECT_GE(after.CounterOr(dist_metric::kRebalances),
            before.CounterOr(dist_metric::kRebalances) + 1);
}

TEST_F(DistChaosTest, NetFaultsInsideWorkersAreAbsorbedByteIdentically) {
  if (!failpoint::Enabled()) {
    GTEST_SKIP() << "built with -DPREFCOVER_ENABLE_FAILPOINTS=OFF";
  }
  // Probabilistic read/write faults inside every worker process. The
  // coordinator's ResilientClient must retry/reconnect through them;
  // worker state persists across connections and commits replay
  // exactly-once, so the bytes cannot drift. (Some workers may get
  // declared dead under an unlucky fault burst — that is the rebalance
  // path again, and identity must still hold.)
  std::vector<WorkerProc> workers =
      Spawn(4, "net.read=error(0.04,7);net.write=error(0.03,13)");
  ASSERT_EQ(workers.size(), 4u);
  DistSolveOptions options = Fleet(workers);
  options.client.max_attempts = 5;

  auto solution =
      SolveGreedyDistributed(*graph_, kBudget, GreedyOptions(), options);
  Reap(&workers);
  ASSERT_TRUE(solution.ok()) << solution.status().ToString();
  ExpectByteIdentical(*solution, *reference_);
}

TEST_F(DistChaosTest, SoleWorkerKilledFailsTheSolvePromptly) {
  std::vector<WorkerProc> workers = Spawn(1);
  ASSERT_EQ(workers.size(), 1u);
  DistSolveOptions options = Fleet(workers);
  options.client.request_timeout_ms = 500;
  options.client.max_attempts = 2;
  WorkerProc* victim = &workers.back();
  options.on_round = [victim](size_t committed) {
    if (victim->killed || committed != 2) return;
    ::kill(victim->pid, SIGKILL);
    ::waitpid(victim->pid, nullptr, 0);
    victim->pid = -1;
    victim->killed = true;
  };

  auto solution =
      SolveGreedyDistributed(*graph_, kBudget, GreedyOptions(), options);
  Reap(&workers);
  // No survivors to rebalance onto: the solve reports the outage.
  EXPECT_FALSE(solution.ok());
}

// `solve --workers` runs the distributed solve behind the ordinary solve
// verb, so every solve flag applies to it and the files it writes are
// the ones `solve --algorithm=lazy` writes.
class DistSolveCliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Large enough that loading it takes well over a millisecond, so a
    // 1 ms deadline has expired before the second round; scoped by test
    // name because ctest runs the tests of this binary in parallel.
    Rng rng(2025);
    UniformGraphParams params;
    params.num_nodes = 20000;
    params.out_degree = 5;
    auto graph = GenerateUniformGraph(params, &rng);
    ASSERT_TRUE(graph.ok()) << graph.status().ToString();
    graph_path_ = Path("graph.pcg");
    ASSERT_TRUE(WriteGraphBinaryFile(*graph, graph_path_).ok());
    for (int i = 0; i < 2; ++i) {
      WorkerProc worker = SpawnWorker(graph_path_, "");
      ASSERT_GT(worker.pid, 0);
      workers_.push_back(worker);
    }
    workers_flag_ = " --workers=127.0.0.1:" +
                    std::to_string(workers_[0].port) + ",127.0.0.1:" +
                    std::to_string(workers_[1].port);
  }

  void TearDown() override { Reap(&workers_); }

  std::string Path(const std::string& name) const {
    const ::testing::TestInfo* test =
        ::testing::UnitTest::GetInstance()->current_test_info();
    return ::testing::TempDir() + "/dist_solve_cli_" + test->name() + "_" +
           name;
  }

  /// Runs `prefcover solve --graph=<graph> --k=30 <args>`; returns the
  /// exit code and leaves stdout in *out.
  int Solve(const std::string& args, std::string* out = nullptr) {
    const std::string stdout_path = Path("stdout.txt");
    const std::string command = std::string(PREFCOVER_CLI_PATH) +
                                " solve --graph=" + graph_path_ +
                                " --k=30 " + args + " > " + stdout_path +
                                " 2>&1";
    const int rc = std::system(command.c_str());
    if (out != nullptr) *out = ReadFile(stdout_path);
    return rc == -1 ? -1 : WEXITSTATUS(rc);
  }

  static std::string ReadFile(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    return bytes.str();
  }

  /// Solves with --workers and with --algorithm=lazy under `args` and
  /// expects byte-identical --out and --index_out files.
  void ExpectSameFilesAsLazy(const std::string& args) {
    const std::string dist_out = Path("dist.csv");
    const std::string dist_index = Path("dist.pcsidx");
    const std::string lazy_out = Path("lazy.csv");
    const std::string lazy_index = Path("lazy.pcsidx");
    ASSERT_EQ(Solve(args + workers_flag_ + " --out=" + dist_out +
                    " --index_out=" + dist_index),
              0);
    ASSERT_EQ(Solve(args + " --algorithm=lazy --out=" + lazy_out +
                    " --index_out=" + lazy_index),
              0);
    const std::string csv = ReadFile(dist_out);
    EXPECT_FALSE(csv.empty());
    EXPECT_EQ(csv, ReadFile(lazy_out));
    const std::string index = ReadFile(dist_index);
    EXPECT_FALSE(index.empty());
    EXPECT_EQ(index, ReadFile(lazy_index));
  }

  std::string graph_path_;
  std::vector<WorkerProc> workers_;
  std::string workers_flag_;
};

TEST_F(DistSolveCliTest, WritesTheFilesLazyWrites) {
  ExpectSameFilesAsLazy("");
}

TEST_F(DistSolveCliTest, HonorsForceExclude) {
  ExpectSameFilesAsLazy("--force-exclude=3,17,4096");
}

TEST_F(DistSolveCliTest, ExpiredDeadlineKeepsTheFirstItem) {
  const std::string out_csv = Path("truncated.csv");
  std::string out;
  ASSERT_EQ(Solve("--deadline_ms=1 --out=" + out_csv + workers_flag_, &out),
            0)
      << out;
  EXPECT_NE(out.find("truncated"), std::string::npos) << out;
  // A header plus exactly the first selection.
  const std::string csv = ReadFile(out_csv);
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 2) << csv;
}

TEST_F(DistSolveCliTest, ResumesALazyCheckpoint) {
  const std::string checkpoint = Path("solve.ckpt");
  std::string out;
  ASSERT_EQ(Solve("--algorithm=lazy --deadline_ms=1 --checkpoint_path=" +
                      checkpoint,
                  &out),
            0)
      << out;
  ASSERT_NE(out.find("truncated"), std::string::npos) << out;
  const std::string resumed = Path("resumed.csv");
  const std::string full = Path("full.csv");
  ASSERT_EQ(Solve("--resume --checkpoint_path=" + checkpoint + " --out=" +
                      resumed + workers_flag_,
                  &out),
            0)
      << out;
  EXPECT_NE(out.find("resuming from"), std::string::npos) << out;
  ASSERT_EQ(Solve("--algorithm=lazy --out=" + full), 0);
  EXPECT_EQ(ReadFile(resumed), ReadFile(full));
}

TEST_F(DistSolveCliTest, RejectsOtherAlgorithmsAndConstraints) {
  EXPECT_EQ(Solve("--algorithm=parallel" + workers_flag_), 1);
  EXPECT_EQ(Solve("--budget=5" + workers_flag_), 1);
}

}  // namespace
}  // namespace dist
}  // namespace prefcover

#endif  // __unix__ || __APPLE__
