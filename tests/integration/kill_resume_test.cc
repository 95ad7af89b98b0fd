// Kill-resume determinism, end to end through the real CLI binary: a
// solve SIGKILLed mid-run (by the checkpoint.after_write failpoint, i.e.
// immediately after a checkpoint landed durably) and then resumed with
// --resume must produce a solution CSV byte-identical to a run that was
// never interrupted — for all four greedy executions and both variants.

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "util/failpoint.h"

#ifndef PREFCOVER_CLI_PATH
#error "PREFCOVER_CLI_PATH must be defined by the build"
#endif

namespace prefcover {
namespace {

std::string CliPath() { return PREFCOVER_CLI_PATH; }

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/kill_resume_test_" + name;
}

// Runs a command line (optionally under an env prefix), returns the shell
// exit status: WEXITSTATUS for normal exits, 128+signal for signal deaths
// (so a SIGKILLed child reads as 137).
int RunShell(const std::string& command_line) {
  int rc = std::system((command_line + " > /dev/null 2>&1").c_str());
  return rc == -1 ? -1 : WEXITSTATUS(rc);
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

class KillResumeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Per process: ctest runs each test of this suite as its own process,
    // and each one regenerates these inputs.
    const std::string pid = std::to_string(::getpid());
    clicks_path_ = new std::string(TempPath(pid + "_clicks.csv"));
    graph_path_ = new std::string(TempPath(pid + "_graph.pcg"));
    norm_graph_path_ = new std::string(TempPath(pid + "_graph_norm.pcg"));
    ASSERT_EQ(RunShell(CliPath() +
                       " generate --profile=YC --scale=0.004 --out=" +
                       *clicks_path_),
              0);
    ASSERT_EQ(RunShell(CliPath() + " construct --input=" + *clicks_path_ +
                       " --out=" + *graph_path_),
              0);
    // The normalized variant needs per-node out-weight sums <= 1, which
    // the default construction does not guarantee; build it explicitly.
    ASSERT_EQ(RunShell(CliPath() + " construct --input=" + *clicks_path_ +
                       " --variant=normalized --out=" + *norm_graph_path_),
              0);
  }

  static void TearDownTestSuite() {
    for (const std::string* path :
         {clicks_path_, graph_path_, norm_graph_path_}) {
      std::remove(path->c_str());
    }
    delete clicks_path_;
    delete graph_path_;
    delete norm_graph_path_;
    clicks_path_ = nullptr;
    graph_path_ = nullptr;
    norm_graph_path_ = nullptr;
  }

  void SetUp() override {
    if (!failpoint::Enabled()) {
      GTEST_SKIP() << "built with -DPREFCOVER_ENABLE_FAILPOINTS=OFF";
    }
  }

  static std::string* clicks_path_;
  static std::string* graph_path_;
  static std::string* norm_graph_path_;
};

std::string* KillResumeTest::clicks_path_ = nullptr;
std::string* KillResumeTest::graph_path_ = nullptr;
std::string* KillResumeTest::norm_graph_path_ = nullptr;

TEST_F(KillResumeTest, KilledThenResumedSolveIsByteIdentical) {
  const char* algorithms[] = {"greedy", "parallel", "lazy",
                              "lazy-parallel"};
  const char* variants[] = {"independent", "normalized"};
  for (const char* algorithm : algorithms) {
    for (const char* variant : variants) {
      SCOPED_TRACE(std::string(algorithm) + "/" + variant);
      const std::string tag =
          std::string(algorithm) + "_" + variant;
      const std::string full_csv = TempPath("full_" + tag + ".csv");
      const std::string resumed_csv = TempPath("resumed_" + tag + ".csv");
      const std::string ckpt = TempPath("ckpt_" + tag + ".bin");
      std::remove(ckpt.c_str());
      std::remove(resumed_csv.c_str());

      const std::string& graph = std::string(variant) == "normalized"
                                     ? *norm_graph_path_
                                     : *graph_path_;
      const std::string common = CliPath() + " solve --graph=" + graph +
                                 " --k=20 --algorithm=" + algorithm +
                                 " --variant=" + variant;

      ASSERT_EQ(RunShell(common + " --out=" + full_csv), 0);

      // SIGKILL the moment the first periodic checkpoint is durably on
      // disk. 137 = 128 + SIGKILL: the process really died by signal, so
      // no destructor or atexit cleanup softened the crash.
      ASSERT_EQ(
          RunShell("PREFCOVER_FAILPOINTS='checkpoint.after_write="
                   "crash_once' " +
                   common + " --checkpoint_path=" + ckpt +
                   " --checkpoint_every=4 --out=" + resumed_csv),
          137);
      // The kill preceded any CSV output.
      std::ifstream no_csv(resumed_csv);
      ASSERT_FALSE(no_csv.good());

      ASSERT_EQ(RunShell(common + " --checkpoint_path=" + ckpt +
                         " --resume --out=" + resumed_csv),
                0);

      const std::string full = Slurp(full_csv);
      ASSERT_FALSE(full.empty());
      EXPECT_EQ(Slurp(resumed_csv), full);
    }
  }
}

TEST_F(KillResumeTest, ResumeAgainstDifferentInstanceRefuses) {
  const std::string ckpt = TempPath("stale.bin");
  std::remove(ckpt.c_str());
  const std::string base = CliPath() + " solve --graph=" + *graph_path_ +
                           " --checkpoint_path=" + ckpt;
  ASSERT_EQ(RunShell(base + " --k=20 --algorithm=lazy"), 0);
  // Same checkpoint, different budget: the options hash differs, so the
  // resume must refuse loudly instead of silently solving the wrong
  // problem.
  EXPECT_EQ(RunShell(base + " --k=21 --algorithm=lazy --resume"), 1);
}

TEST_F(KillResumeTest, ResumeWithoutCheckpointFileStartsFresh) {
  const std::string ckpt = TempPath("absent.bin");
  std::remove(ckpt.c_str());
  const std::string out = TempPath("fresh.csv");
  // A missing checkpoint is the normal state after a crash that preceded
  // the first write; --resume degrades to a cold start, not an error.
  EXPECT_EQ(RunShell(CliPath() + " solve --graph=" + *graph_path_ +
                     " --k=20 --algorithm=lazy --checkpoint_path=" + ckpt +
                     " --resume --out=" + out),
            0);
  EXPECT_FALSE(Slurp(out).empty());
}

TEST_F(KillResumeTest, InjectedGraphReadErrorFailsCleanly) {
  ASSERT_EQ(RunShell("PREFCOVER_FAILPOINTS='graph_io.read=error' " +
                     CliPath() + " solve --graph=" + *graph_path_ +
                     " --k=20"),
            1);
}

}  // namespace
}  // namespace prefcover
