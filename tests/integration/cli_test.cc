// End-to-end tests of the `prefcover` CLI binary: each subcommand is run
// as a real subprocess against temp files, exactly as a user would.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#ifndef PREFCOVER_CLI_PATH
#error "PREFCOVER_CLI_PATH must be defined by the build"
#endif

namespace prefcover {
namespace {

std::string CliPath() { return PREFCOVER_CLI_PATH; }

// Scoped by test name: ctest runs these tests as parallel processes, and
// a file name shared between tests would let one rewrite another's input
// while it is being read.
std::string TempPath(const std::string& name) {
  const ::testing::TestInfo* test =
      ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "/cli_test_" + test->test_suite_name() +
         "_" + test->name() + "_" + name;
}

// Runs a command line, returns its exit code.
int RunCli(const std::string& command_line) {
  int rc = std::system((command_line + " > /dev/null 2>&1").c_str());
  return rc == -1 ? -1 : WEXITSTATUS(rc);
}

bool FileNonEmpty(const std::string& path) {
  std::ifstream in(path, std::ios::ate);
  return in.good() && in.tellg() > 0;
}

class CliPipelineTest : public ::testing::Test {
 protected:
  // The full generate -> construct chain shared by several tests.
  void SetUpPipeline() {
    clicks_ = TempPath("clicks.csv");
    graph_ = TempPath("graph.pcg");
    ASSERT_EQ(RunCli(CliPath() + " generate --profile=YC --scale=0.004 --out=" +
                  clicks_),
              0);
    ASSERT_TRUE(FileNonEmpty(clicks_));
    ASSERT_EQ(RunCli(CliPath() + " construct --input=" + clicks_ +
                  " --out=" + graph_),
              0);
    ASSERT_TRUE(FileNonEmpty(graph_));
  }

  std::string clicks_, graph_;
};

TEST_F(CliPipelineTest, GenerateConstructStatsSolveThresholdExport) {
  SetUpPipeline();
  EXPECT_EQ(RunCli(CliPath() + " stats --graph=" + graph_), 0);

  std::string retained = TempPath("retained.csv");
  EXPECT_EQ(RunCli(CliPath() + " solve --graph=" + graph_ +
                " --k=20 --out=" + retained),
            0);
  ASSERT_TRUE(FileNonEmpty(retained));
  // The solution CSV has a header plus 20 rows.
  std::ifstream in(retained);
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) ++lines;
  EXPECT_EQ(lines, 21);

  EXPECT_EQ(RunCli(CliPath() + " threshold --graph=" + graph_ +
                " --coverage=0.5"),
            0);

  std::string nodes = TempPath("nodes.csv"), edges = TempPath("edges.csv");
  EXPECT_EQ(RunCli(CliPath() + " export --graph=" + graph_ + " --nodes=" +
                nodes + " --edges=" + edges),
            0);
  EXPECT_TRUE(FileNonEmpty(nodes));
  EXPECT_TRUE(FileNonEmpty(edges));
}

TEST_F(CliPipelineTest, SolveWithEachAlgorithm) {
  SetUpPipeline();
  for (const char* algorithm :
       {"greedy", "lazy", "parallel", "topk-w", "topk-c", "random"}) {
    EXPECT_EQ(RunCli(CliPath() + " solve --graph=" + graph_ + " --k=10" +
                  " --algorithm=" + algorithm),
              0)
        << algorithm;
  }
  EXPECT_NE(RunCli(CliPath() + " solve --graph=" + graph_ +
                " --k=10 --algorithm=bogus"),
            0);
}

TEST(CliTest, NoArgumentsShowsUsageAndFails) {
  EXPECT_NE(RunCli(CliPath()), 0);
}

TEST(CliTest, HelpSucceeds) {
  EXPECT_EQ(RunCli(CliPath() + " --help"), 0);
  EXPECT_EQ(RunCli(CliPath() + " solve --help"), 0);
}

TEST(CliTest, UnknownCommandFails) {
  EXPECT_NE(RunCli(CliPath() + " frobnicate"), 0);
}

TEST(CliTest, MissingInputFileFails) {
  EXPECT_NE(RunCli(CliPath() + " stats --graph=/no/such/file.pcg"), 0);
  EXPECT_NE(RunCli(CliPath() + " construct --input=/no/such/clicks.csv"), 0);
}

TEST(CliTest, BadFlagFails) {
  EXPECT_NE(RunCli(CliPath() + " generate --bogus-flag=1"), 0);
}

// Outputs small enough to sit whole in the stream's buffer fail only at
// the final flush, which the command must still report: a write to
// /dev/full (where it exists) exits 1 instead of printing "wrote".
class CliFullDeviceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  }

  // A 13-node graph from a 6 KB clickstream.
  std::string TinyGraph() {
    const std::string clicks = TempPath("clicks.csv");
    const std::string graph = TempPath("graph.pcg");
    EXPECT_EQ(RunCli(CliPath() + " generate --profile=PM --scale=0.00001 "
                     "--out=" + clicks),
              0);
    EXPECT_EQ(RunCli(CliPath() + " construct --input=" + clicks +
                     " --out=" + graph),
              0);
    return graph;
  }
};

TEST_F(CliFullDeviceTest, GenerateFails) {
  EXPECT_EQ(RunCli(CliPath() +
                   " generate --profile=PM --scale=0.00001 --out=/dev/full"),
            1);
}

TEST_F(CliFullDeviceTest, ExportFails) {
  const std::string graph = TinyGraph();
  EXPECT_EQ(RunCli(CliPath() + " export --graph=" + graph +
                   " --nodes=/dev/full --edges=/dev/full"),
            1);
  EXPECT_EQ(RunCli(CliPath() + " export --graph=" + graph + " --nodes=" +
                   TempPath("nodes.csv") + " --edges=/dev/full"),
            1);
}

TEST_F(CliFullDeviceTest, SolveCoverageOutFails) {
  const std::string graph = TinyGraph();
  EXPECT_EQ(RunCli(CliPath() + " solve --graph=" + graph +
                   " --k=3 --coverage-out=/dev/full"),
            1);
  EXPECT_EQ(RunCli(CliPath() + " solve --graph=" + graph +
                   " --k=3 --coverage-out=" + TempPath("coverage.csv")),
            0);
}

TEST_F(CliPipelineTest, StreamingConstructMatchesInMemory) {
  SetUpPipeline();
  std::string streamed = TempPath("graph_streamed.pcg");
  EXPECT_EQ(RunCli(CliPath() + " construct --input=" + clicks_ +
                   " --streaming --variant=independent --out=" + streamed),
            0);
  EXPECT_TRUE(FileNonEmpty(streamed));
  // Streaming without an explicit variant must fail.
  EXPECT_NE(RunCli(CliPath() + " construct --input=" + clicks_ +
                   " --streaming --out=" + streamed),
            0);
}

TEST_F(CliPipelineTest, SolveWithReportAndConstraints) {
  SetUpPipeline();
  std::string coverage = TempPath("coverage.csv");
  EXPECT_EQ(RunCli(CliPath() + " solve --graph=" + graph_ +
                   " --k=10 --report --force-include=5"
                   " --force-exclude=6,7 --coverage-out=" + coverage),
            0);
  EXPECT_TRUE(FileNonEmpty(coverage));
  // Constraints reject non-greedy algorithms.
  EXPECT_NE(RunCli(CliPath() + " solve --graph=" + graph_ +
                   " --k=10 --algorithm=topk-w --force-include=5"),
            0);
  // Conflicting constraints fail.
  EXPECT_NE(RunCli(CliPath() + " solve --graph=" + graph_ +
                   " --k=10 --force-include=5 --force-exclude=5"),
            0);
}

TEST_F(CliPipelineTest, SolveWritesTraceAndMetrics) {
  SetUpPipeline();
  std::string trace = TempPath("trace.json");
  std::string metrics = TempPath("metrics.json");
  ASSERT_EQ(RunCli(CliPath() + " solve --clicks=" + clicks_ +
                   " --variant=independent --k=10 --algorithm=lazy-parallel"
                   " --threads=2 --trace_out=" + trace +
                   " --metrics_out=" + metrics),
            0);
  ASSERT_TRUE(FileNonEmpty(trace));
  ASSERT_TRUE(FileNonEmpty(metrics));

  std::ostringstream trace_text;
  {
    std::ifstream in(trace);
    trace_text << in.rdbuf();
  }
  // Chrome trace-event envelope plus spans from several subsystems.
  EXPECT_NE(trace_text.str().find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace_text.str().find("solver.solve"), std::string::npos);
  EXPECT_NE(trace_text.str().find("clickstream.build"), std::string::npos);
  EXPECT_NE(trace_text.str().find("eval.run_algorithm"), std::string::npos);

  std::ostringstream metrics_text;
  {
    std::ifstream in(metrics);
    metrics_text << in.rdbuf();
  }
  EXPECT_NE(metrics_text.str().find("\"schema_version\""),
            std::string::npos);
  EXPECT_NE(metrics_text.str().find("solver.gain_evaluations"),
            std::string::npos);
}

// Runs a command line feeding `input` on stdin; captures stdout into
// `stdout_out` and returns the exit code.
int RunCliWithStdin(const std::string& command_line, const std::string& input,
                    std::string* stdout_out) {
  std::string in_path = TempPath("stdin.txt");
  std::string out_path = TempPath("stdout.txt");
  {
    std::ofstream out(in_path);
    out << input;
  }
  int rc = std::system((command_line + " < " + in_path + " > " + out_path +
                        " 2> /dev/null")
                           .c_str());
  std::ostringstream captured;
  std::ifstream in(out_path);
  captured << in.rdbuf();
  *stdout_out = captured.str();
  return rc == -1 ? -1 : WEXITSTATUS(rc);
}

TEST(CliTest, VersionPrintsProvenance) {
  std::string out;
  ASSERT_EQ(RunCliWithStdin(CliPath() + " version", "", &out), 0);
  EXPECT_EQ(out.substr(0, 10), "prefcover ");
  EXPECT_NE(out.find("git: "), std::string::npos);
  EXPECT_NE(out.find("build: "), std::string::npos);
  // --version is an alias.
  EXPECT_EQ(RunCli(CliPath() + " --version"), 0);
}

TEST_F(CliPipelineTest, SolveClampsOversizedBudget) {
  SetUpPipeline();
  // k beyond the catalog clamps with a warning instead of failing ...
  EXPECT_EQ(RunCli(CliPath() + " solve --graph=" + graph_ + " --k=1000000"),
            0);
  // ... but a non-positive k is a usage error.
  EXPECT_NE(RunCli(CliPath() + " solve --graph=" + graph_ + " --k=0"), 0);
}

// Runs a command line, returns its exit code and its stderr.
int RunCliStderr(const std::string& command_line, std::string* stderr_out) {
  const std::string err_path = TempPath("stderr.txt");
  int rc = std::system(
      (command_line + " > /dev/null 2> " + err_path).c_str());
  std::ostringstream captured;
  std::ifstream in(err_path);
  captured << in.rdbuf();
  *stderr_out = captured.str();
  return rc == -1 ? -1 : WEXITSTATUS(rc);
}

// A session id seen again after other sessions: `construct` reads the CSV
// into memory and refuses it, while the streaming construction behind
// `construct --streaming` and `solve --clicks` starts a new session, as
// both commands' help says.
TEST_F(CliPipelineTest, ReappearingSessionIdRefusedOnlyInMemory) {
  const std::string clicks = TempPath("interleaved.csv");
  {
    std::ofstream out(clicks);
    out << "session_id,event_type,item_id\n"
           "0,click,x\n1,click,y\n1,purchase,x\n0,click,y\n0,purchase,x\n";
  }
  std::string err;
  EXPECT_EQ(RunCliStderr(CliPath() + " construct --input=" + clicks +
                             " --variant=independent --out=" +
                             TempPath("graph.pcg"),
                         &err),
            1);
  EXPECT_NE(err.find("session '0' reappears after other sessions"),
            std::string::npos)
      << err;
  EXPECT_EQ(RunCliStderr(CliPath() + " construct --input=" + clicks +
                             " --streaming --variant=independent --out=" +
                             TempPath("streamed.pcg"),
                         &err),
            0)
      << err;
  EXPECT_EQ(RunCliStderr(CliPath() + " solve --clicks=" + clicks +
                             " --variant=independent --k=1",
                         &err),
            0)
      << err;
  for (const std::string command : {"construct", "solve"}) {
    const std::string help = TempPath(command + "_help.txt");
    ASSERT_EQ(std::system((CliPath() + " " + command + " --help > " + help)
                              .c_str()),
              0);
    std::ostringstream text;
    text << std::ifstream(help).rdbuf();
    EXPECT_NE(text.str().find("A session id seen again after other sessions "
                              "starts a new session"),
              std::string::npos)
        << command;
  }
}

TEST_F(CliPipelineTest, SolveRejectsNegativeThreads) {
  SetUpPipeline();
  for (const char* algorithm : {"parallel", "lazy-parallel"}) {
    std::string err;
    EXPECT_EQ(RunCliStderr(CliPath() + " solve --graph=" + graph_ +
                               " --k=10 --threads=-1 --algorithm=" +
                               algorithm,
                           &err),
              1)
        << algorithm;
    EXPECT_NE(err.find("InvalidArgument"), std::string::npos) << err;
    EXPECT_NE(err.find("--threads"), std::string::npos) << err;
  }
}

TEST_F(CliPipelineTest, SolveRejectsCheckpointEveryAbove32Bits) {
  SetUpPipeline();
  std::string err;
  EXPECT_EQ(RunCliStderr(CliPath() + " solve --graph=" + graph_ +
                             " --k=10 --checkpoint_path=" +
                             TempPath("solve.ckpt") +
                             " --checkpoint_every=4294967296",
                         &err),
            1);
  EXPECT_NE(err.find("InvalidArgument"), std::string::npos) << err;
  EXPECT_NE(err.find("--checkpoint_every"), std::string::npos) << err;
}

TEST_F(CliPipelineTest, SolveRejectsOutOfRangeIndexTopM) {
  SetUpPipeline();
  for (const char* top_m : {"-1", "4294967296"}) {
    std::string err;
    EXPECT_EQ(RunCliStderr(CliPath() + " solve --graph=" + graph_ +
                               " --k=10 --index_out=" +
                               TempPath("index.pcsidx") +
                               " --index_top_m=" + top_m,
                           &err),
              1)
        << top_m;
    EXPECT_NE(err.find("InvalidArgument"), std::string::npos) << err;
    EXPECT_NE(err.find("--index_top_m"), std::string::npos) << err;
  }
}

// `serve` checks its flags before it loads, binds or reads anything; the
// timeout turns a server that binds anyway into a failure, not a hang.
TEST_F(CliPipelineTest, ServeRejectsOutOfRangePort) {
  SetUpPipeline();
  for (const char* port : {"-1", "70000"}) {
    std::string err;
    EXPECT_EQ(RunCliStderr("timeout 30 " + CliPath() + " serve --graph=" +
                               graph_ + " --k=20 --port=" + port +
                               " < /dev/null",
                           &err),
              1)
        << port;
    EXPECT_NE(err.find("InvalidArgument"), std::string::npos) << err;
    EXPECT_NE(err.find("--port"), std::string::npos) << err;
  }
}

TEST_F(CliPipelineTest, ServeRejectsOutOfRangeTopM) {
  SetUpPipeline();
  for (const char* top_m : {"-1", "4294967296"}) {
    std::string err;
    EXPECT_EQ(RunCliStderr("timeout 30 " + CliPath() + " serve --graph=" +
                               graph_ + " --k=20 --top_m=" + top_m +
                               " < /dev/null",
                           &err),
              1)
        << top_m;
    EXPECT_NE(err.find("InvalidArgument"), std::string::npos) << err;
    EXPECT_NE(err.find("--top_m"), std::string::npos) << err;
  }
}

TEST_F(CliPipelineTest, SolveEmitsLoadableServingIndex) {
  SetUpPipeline();
  std::string index = TempPath("index.pcsidx");
  ASSERT_EQ(RunCli(CliPath() + " solve --graph=" + graph_ +
                   " --k=15 --index_out=" + index),
            0);
  ASSERT_TRUE(FileNonEmpty(index));

  // The emitted artifact serves a full stdin session end to end.
  std::string out;
  ASSERT_EQ(RunCliWithStdin(CliPath() + " serve --index=" + index,
                            "covered 0\n"
                            "subs 0 4\n"
                            "coverk 15\n"
                            "batch 0 1 2\n"
                            "stats\n"
                            "bogus request\n"
                            "quit\n",
                            &out),
            0);
  EXPECT_NE(out.find("OK covered "), std::string::npos);
  EXPECT_NE(out.find("OK subs "), std::string::npos);
  EXPECT_NE(out.find("OK coverk "), std::string::npos);
  EXPECT_NE(out.find("OK batch 3 "), std::string::npos);
  EXPECT_NE(out.find("OK stats requests="), std::string::npos);
  EXPECT_NE(out.find("ERR InvalidArgument"), std::string::npos);
  EXPECT_NE(out.find("OK bye"), std::string::npos);

  // Serving a corrupt artifact fails at startup.
  std::string corrupt = TempPath("corrupt.pcsidx");
  {
    std::ifstream src(index, std::ios::binary);
    std::ostringstream bytes;
    bytes << src.rdbuf();
    std::string mutated = bytes.str();
    mutated[mutated.size() / 2] =
        static_cast<char>(mutated[mutated.size() / 2] ^ 0x20);
    std::ofstream dst(corrupt, std::ios::binary);
    dst << mutated;
  }
  EXPECT_NE(RunCli(CliPath() + " serve --index=" + corrupt), 0);
}

TEST_F(CliPipelineTest, ServeExposesLiveMetricsAndSnapshotDump) {
  SetUpPipeline();
  std::string index = TempPath("metrics_index.pcsidx");
  ASSERT_EQ(RunCli(CliPath() + " solve --graph=" + graph_ +
                   " --k=15 --index_out=" + index),
            0);

  // The `metrics` verb renders a Prometheus text exposition in-band,
  // framed by the `# EOF` marker; --metrics_out dumps the registry
  // snapshot as JSON on clean shutdown.
  std::string snapshot = TempPath("serve_metrics.json");
  std::string out;
  ASSERT_EQ(RunCliWithStdin(CliPath() + " serve --index=" + index +
                                " --metrics_out=" + snapshot,
                            "covered 0\n"
                            "covered 1\n"
                            "metrics\n"
                            "quit\n",
                            &out),
            0);
  EXPECT_NE(out.find("# TYPE serve_requests counter"), std::string::npos);
  EXPECT_NE(out.find("serve_requests 2"), std::string::npos);
  EXPECT_NE(out.find("# TYPE serve_latency_us histogram"),
            std::string::npos);
  EXPECT_NE(out.find("# EOF"), std::string::npos);
  EXPECT_NE(out.find("OK bye"), std::string::npos);

  ASSERT_TRUE(FileNonEmpty(snapshot));
  std::ostringstream snapshot_text;
  {
    std::ifstream in(snapshot);
    snapshot_text << in.rdbuf();
  }
  EXPECT_NE(snapshot_text.str().find("\"serve.requests\""),
            std::string::npos);
  EXPECT_NE(snapshot_text.str().find("\"serve.latency_us\""),
            std::string::npos);
}

TEST(CliTest, ConstructWithExplicitVariant) {
  std::string clicks = TempPath("pm_clicks.csv");
  std::string graph = TempPath("pm_graph.pcg");
  ASSERT_EQ(RunCli(CliPath() + " generate --profile=PM --scale=0.002 --out=" +
                clicks),
            0);
  EXPECT_EQ(RunCli(CliPath() + " construct --input=" + clicks +
                " --variant=normalized --out=" + graph),
            0);
  EXPECT_EQ(RunCli(CliPath() + " solve --graph=" + graph +
                " --k=20 --variant=normalized"),
            0);
}

}  // namespace
}  // namespace prefcover
