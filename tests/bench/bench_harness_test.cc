#include "bench/bench_runner.h"

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/compare.h"
#include "bench/json.h"
#include "bench/metrics_json.h"

namespace prefcover {
namespace {

BenchConfig TestConfig() {
  BenchConfig config;
  config.suite = "harness_test";
  config.seed = 7;
  config.warmup = 2;
  config.repetitions = 3;
  return config;
}

BenchCase CountingCase(const std::string& name, int* invocations) {
  BenchCase bench_case;
  bench_case.name = name;
  bench_case.run = [invocations](BenchRecorder* recorder) -> Status {
    ++*invocations;
    recorder->Record("zeta", 1.0);
    recorder->Record("alpha", 2.0);
    return Status::OK();
  };
  return bench_case;
}

TEST(BenchRunnerTest, RunsWarmupPlusRepetitions) {
  BenchRunner runner(TestConfig());
  int invocations = 0;
  ASSERT_TRUE(runner.Run(CountingCase("case/a", &invocations)).ok());
  EXPECT_EQ(invocations, 5);  // 2 warmup + 3 timed
  ASSERT_EQ(runner.results().size(), 1u);
  const BenchResult& r = runner.results()[0];
  EXPECT_EQ(r.name, "case/a");
  EXPECT_GE(r.wall.min_ms, 0.0);
  EXPECT_LE(r.wall.min_ms, r.wall.p50_ms);
  EXPECT_LE(r.wall.p50_ms, r.wall.p95_ms);
  EXPECT_LE(r.wall.p95_ms, r.wall.max_ms);
}

TEST(BenchRunnerTest, MeasureTimesAGroupRoundRobin) {
  // Every case's warmup first, then one timed repetition of each case per
  // pass; the results come back in case order and are appended only by
  // Add.
  BenchRunner runner(TestConfig());
  std::string calls;
  auto logging_case = [&calls](const std::string& name, char tag) {
    BenchCase bench_case;
    bench_case.name = name;
    bench_case.run = [&calls, tag](BenchRecorder* recorder) -> Status {
      calls += tag;
      recorder->Record("calls", static_cast<double>(calls.size()));
      return Status::OK();
    };
    return bench_case;
  };
  const std::vector<BenchCase> group = {logging_case("case/a", 'a'),
                                        logging_case("case/b", 'b'),
                                        logging_case("case/c", 'c')};
  auto results = runner.Measure(group);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  EXPECT_EQ(calls, "aabbcc" "abcabcabc");
  ASSERT_EQ(results->size(), 3u);
  EXPECT_EQ((*results)[0].name, "case/a");
  EXPECT_EQ((*results)[2].name, "case/c");
  // Each case keeps its own last repetition's counters.
  ASSERT_EQ((*results)[1].counters.size(), 1u);
  EXPECT_EQ((*results)[1].counters[0].second, 14.0);
  EXPECT_TRUE(runner.results().empty());
  for (BenchResult& result : *results) {
    ASSERT_TRUE(runner.Add(std::move(result)).ok());
  }
  ASSERT_EQ(runner.results().size(), 3u);
  EXPECT_EQ(runner.results()[1].name, "case/b");

  // Names stay unique: within a group, against recorded cases, and on Add.
  calls.clear();
  const std::vector<BenchCase> twice = {logging_case("case/d", 'd'),
                                        logging_case("case/d", 'd')};
  EXPECT_FALSE(runner.Measure(twice).ok());
  const std::vector<BenchCase> recorded = {logging_case("case/a", 'a')};
  EXPECT_FALSE(runner.Measure(recorded).ok());
  EXPECT_EQ(calls, "");
  BenchResult again;
  again.name = "case/b";
  EXPECT_FALSE(runner.Add(again).ok());
}

TEST(BenchRunnerTest, CountersAreNameSorted) {
  BenchRunner runner(TestConfig());
  int invocations = 0;
  ASSERT_TRUE(runner.Run(CountingCase("case/a", &invocations)).ok());
  const BenchResult& r = runner.results()[0];
  ASSERT_EQ(r.counters.size(), 2u);
  EXPECT_EQ(r.counters[0].first, "alpha");
  EXPECT_EQ(r.counters[1].first, "zeta");
}

TEST(BenchRunnerTest, RejectsDuplicateAndInvalidCases) {
  BenchRunner runner(TestConfig());
  int invocations = 0;
  ASSERT_TRUE(runner.Run(CountingCase("case/a", &invocations)).ok());
  EXPECT_FALSE(runner.Run(CountingCase("case/a", &invocations)).ok());
  EXPECT_FALSE(runner.Run(CountingCase("", &invocations)).ok());
  BenchCase no_body;
  no_body.name = "case/no_body";
  EXPECT_FALSE(runner.Run(no_body).ok());
}

TEST(BenchRunnerTest, CaseErrorPropagates) {
  BenchRunner runner(TestConfig());
  BenchCase failing;
  failing.name = "case/fails";
  failing.run = [](BenchRecorder*) -> Status {
    return Status::Internal("boom");
  };
  Status st = runner.Run(failing);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("boom"), std::string::npos);
}

TEST(BenchRunnerTest, EmittedDocumentValidates) {
  BenchRunner runner(TestConfig());
  int invocations = 0;
  BenchCase bench_case = CountingCase("solve/x", &invocations);
  bench_case.profile = "PE";
  bench_case.variant = "independent";
  bench_case.solver = "lazy";
  bench_case.n = 100;
  bench_case.k = 10;
  bench_case.threads = 4;
  ASSERT_TRUE(runner.Run(bench_case).ok());
  JsonValue doc = runner.ToJson();
  Status st = ValidateBenchDocument(doc);
  EXPECT_TRUE(st.ok()) << st.ToString();

  ASSERT_NE(doc.Find("schema_version"), nullptr);
  EXPECT_DOUBLE_EQ(doc.Find("schema_version")->number_value(),
                   kBenchSchemaVersion);
  EXPECT_EQ(doc.Find("suite")->string_value(), "harness_test");
  const JsonValue* config = doc.Find("config");
  ASSERT_NE(config, nullptr);
  EXPECT_DOUBLE_EQ(config->Find("seed")->number_value(), 7.0);
  EXPECT_DOUBLE_EQ(config->Find("warmup")->number_value(), 2.0);
  EXPECT_DOUBLE_EQ(config->Find("repetitions")->number_value(), 3.0);
  const JsonValue* cases = doc.Find("cases");
  ASSERT_NE(cases, nullptr);
  ASSERT_EQ(cases->size(), 1u);
  const JsonValue& c = cases->at(0);
  EXPECT_EQ(c.Find("name")->string_value(), "solve/x");
  EXPECT_EQ(c.Find("profile")->string_value(), "PE");
  EXPECT_DOUBLE_EQ(c.Find("n")->number_value(), 100.0);
  EXPECT_DOUBLE_EQ(c.Find("k")->number_value(), 10.0);
  EXPECT_DOUBLE_EQ(c.Find("threads")->number_value(), 4.0);
  ASSERT_NE(c.Find("wall_ms"), nullptr);
  ASSERT_NE(c.Find("cpu_ms"), nullptr);
  ASSERT_NE(c.Find("counters"), nullptr);
  EXPECT_DOUBLE_EQ(c.Find("counters")->Find("alpha")->number_value(), 2.0);
}

TEST(BenchRunnerTest, EveryCaseCarriesAPerfCountersSubtree) {
  BenchRunner runner(TestConfig());
  int invocations = 0;
  ASSERT_TRUE(runner.Run(CountingCase("case/a", &invocations)).ok());
  JsonValue doc = runner.ToJson();
  EXPECT_TRUE(ValidateBenchDocument(doc).ok());

  const JsonValue& c = doc.Find("cases")->at(0);
  const JsonValue* perf = c.Find("perf_counters");
  ASSERT_NE(perf, nullptr);
  ASSERT_NE(perf->Find("schema_version"), nullptr);
  EXPECT_DOUBLE_EQ(perf->Find("schema_version")->number_value(),
                   kPerfCountersSchemaVersion);
  const JsonValue* supported = perf->Find("supported");
  ASSERT_NE(supported, nullptr);
  if (supported->bool_value()) {
    // Measured hosts report raw event values; derived ratios are
    // optional (a PMU-less VM has no cycles/instructions).
    EXPECT_NE(perf->Find("events"), nullptr);
  } else {
    EXPECT_NE(perf->Find("unsupported_reason"), nullptr);
  }

  // The standalone perf document mirrors the per-case subtrees.
  JsonValue perf_doc = runner.PerfCountersJson();
  ASSERT_NE(perf_doc.Find("cases"), nullptr);
  ASSERT_EQ(perf_doc.Find("cases")->size(), 1u);
  EXPECT_EQ(perf_doc.Find("cases")->at(0).Find("name")->string_value(),
            "case/a");
}

TEST(BenchRunnerTest, TwoRunsAgreeOnAllNonTimingFields) {
  auto make_doc = []() {
    BenchRunner runner(TestConfig());
    int invocations = 0;
    EXPECT_TRUE(runner.Run(CountingCase("case/a", &invocations)).ok());
    EXPECT_TRUE(runner.Run(CountingCase("case/b", &invocations)).ok());
    return runner.ToJson();
  };
  JsonValue first = make_doc();
  JsonValue second = make_doc();
  BenchCompareOptions options;
  options.determinism = true;
  auto report = CompareBenchDocuments(first, second, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->ok()) << (report->problems.empty()
                                    ? ""
                                    : report->problems.front());
}

TEST(BenchRunnerTest, WriteJsonFileRoundTrips) {
  BenchRunner runner(TestConfig());
  int invocations = 0;
  ASSERT_TRUE(runner.Run(CountingCase("case/a", &invocations)).ok());
  std::string path = ::testing::TempDir() + "/bench_harness_test.json";
  ASSERT_TRUE(runner.WriteJsonFile(path).ok());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string text;
  char buffer[4096];
  size_t got;
  while ((got = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    text.append(buffer, got);
  }
  std::fclose(f);
  auto parsed = JsonValue::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(*parsed == runner.ToJson());
  std::remove(path.c_str());
}

TEST(BenchConfigFromFlagsTest, ValidatesRepsAndWarmup) {
  FlagParser flags("t");
  AddBenchFlags(&flags, /*default_reps=*/5, /*default_warmup=*/1);
  const char* argv_bad[] = {"prog", "--reps=0"};
  ASSERT_TRUE(flags.Parse(2, argv_bad).ok());
  EXPECT_FALSE(BenchConfigFromFlags(flags, "s", 1).ok());

  FlagParser flags2("t");
  AddBenchFlags(&flags2, /*default_reps=*/5, /*default_warmup=*/1);
  const char* argv_neg[] = {"prog", "--warmup=-1"};
  ASSERT_TRUE(flags2.Parse(2, argv_neg).ok());
  EXPECT_FALSE(BenchConfigFromFlags(flags2, "s", 1).ok());

  FlagParser flags3("t");
  AddBenchFlags(&flags3, /*default_reps=*/5, /*default_warmup=*/1);
  const char* argv_ok[] = {"prog", "--reps=2", "--warmup=0"};
  ASSERT_TRUE(flags3.Parse(3, argv_ok).ok());
  auto config = BenchConfigFromFlags(flags3, "s", 9);
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config->suite, "s");
  EXPECT_EQ(config->seed, 9u);
  EXPECT_EQ(config->repetitions, 2u);
  EXPECT_EQ(config->warmup, 0u);
}

}  // namespace
}  // namespace prefcover
