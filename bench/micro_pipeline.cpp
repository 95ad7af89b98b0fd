// Microbenchmarks for the data pipeline: session generation, graph
// construction, variant-selection measures, clickstream CSV I/O and .pcg
// graph serialization — on the BenchRunner harness, so `--json` emits the
// machine-readable BENCH_core.json record.
//
// clickstream/stream_build runs the streaming construction over the CSV
// that clickstream/csv_read reads into memory: both decode it the same
// way, and only the in-memory reader keeps every finished session id.
//
// The cases perf.yml's ratio gates divide are timed round-robin, one
// group per gate family (build_graph with the two variant measures; the
// CSV writer, reader and streaming build), so host drift between cases
// reaches both sides of a ratio alike.
//
// The .pcg cases time the encoder and the decoder separately on a PE
// profile graph (graph/pcg_write, graph/pcg_read); the "bytes" counter
// is the image size, so throughput is bytes / p50.
//
// Usage: micro_pipeline [--csv] [--seed=S] [--reps=R] [--warmup=W]
//                       [--json=PATH]

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_runner.h"
#include "clickstream/clickstream_io.h"
#include "clickstream/graph_construction.h"
#include "clickstream/streaming_construction.h"
#include "clickstream/variant_selection.h"
#include "eval/experiment.h"
#include "graph/graph_io.h"
#include "synth/dataset_profiles.h"
#include "synth/session_generator.h"
#include "util/random.h"

using namespace prefcover;

namespace {

// Shared inputs, built once from the run seed.
struct PipelineFixture {
  Catalog catalog;
  PreferenceModel model;
  Clickstream clickstream;
  std::string clickstream_csv;

  explicit PipelineFixture(uint64_t seed) {
    Rng rng(seed);
    CatalogParams cparams;
    cparams.num_items = 2000;
    cparams.num_categories = 50;
    catalog = std::move(Catalog::Generate(cparams, &rng)).value();
    PreferenceModelParams mparams;
    model = std::move(PreferenceModel::Build(&catalog, mparams, &rng)).value();
    SessionGeneratorParams sparams;
    sparams.num_sessions = 100'000;
    clickstream = std::move(GenerateSessions(model, sparams, &rng)).value();
    std::ostringstream out;
    PREFCOVER_CHECK(WriteClickstreamCsv(clickstream, &out).ok());
    clickstream_csv = out.str();
  }
};

BenchCase PipelineCase(std::string name, uint64_t n,
                       std::function<Status(BenchRecorder*)> run) {
  BenchCase bench_case;
  bench_case.name = std::move(name);
  bench_case.profile = "catalog2000";
  bench_case.n = n;
  bench_case.run = std::move(run);
  return bench_case;
}

}  // namespace

int main(int argc, char** argv) {
  ExperimentEnv env("micro_pipeline: data-pipeline microbenchmarks");
  AddBenchFlags(&env.flags, /*default_reps=*/5, /*default_warmup=*/1);
  Status st = env.Parse(argc, argv);
  if (st.IsOutOfRange()) return 0;
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  auto config = BenchConfigFromFlags(env.flags, "micro_pipeline", env.seed);
  if (!config.ok()) {
    std::fprintf(stderr, "%s\n", config.status().ToString().c_str());
    return 1;
  }
  BenchRunner runner(*config);
  PrintExperimentHeader(env, "micro_pipeline", "data-pipeline microbenchmarks");

  auto run_or_die = [&runner](const BenchCase& bench_case) {
    Status run_status = runner.Run(bench_case);
    if (!run_status.ok()) {
      std::fprintf(stderr, "%s\n", run_status.ToString().c_str());
      std::exit(1);
    }
  };
  // A ratio gate's cases are timed round-robin (BenchRunner::Measure), so
  // host drift between them cannot fail the gate on noise.
  auto run_round_robin_or_die = [&runner](
                                    const std::vector<BenchCase>& cases) {
    auto results = runner.Measure(cases);
    Status run_status = results.status();
    for (size_t i = 0; run_status.ok() && i < results->size(); ++i) {
      run_status = runner.Add(std::move((*results)[i]));
    }
    if (!run_status.ok()) {
      std::fprintf(stderr, "%s\n", run_status.ToString().c_str());
      std::exit(1);
    }
  };

  const PipelineFixture fixture(env.seed);
  const Clickstream& clicks = fixture.clickstream;
  const uint64_t sessions = clicks.NumSessions();

  for (uint64_t count : {10'000u, 100'000u}) {
    run_or_die(PipelineCase(
        "sessions/generate/s" + std::to_string(count), count,
        [&fixture, count, seed = env.seed](BenchRecorder* recorder) {
          Rng rng(seed ^ 7);
          SessionGeneratorParams params;
          params.num_sessions = count;
          auto cs = GenerateSessions(fixture.model, params, &rng);
          PREFCOVER_RETURN_NOT_OK(cs.status());
          recorder->Record("sessions", static_cast<double>(cs->NumSessions()));
          return Status::OK();
        }));
  }

  // The gates that divide by build_graph.
  run_round_robin_or_die({
      PipelineCase("clickstream/build_graph", sessions,
                   [&clicks](BenchRecorder* recorder) {
                     auto graph = BuildPreferenceGraph(clicks);
                     PREFCOVER_RETURN_NOT_OK(graph.status());
                     recorder->Record("edges",
                                      static_cast<double>(graph->NumEdges()));
                     return Status::OK();
                   }),
      PipelineCase("clickstream/normalized_fit_share", sessions,
                   [&clicks](BenchRecorder* recorder) {
                     recorder->Record("share", NormalizedFitShare(clicks));
                     return Status::OK();
                   }),
      PipelineCase("clickstream/independence_measure", sessions,
                   [&clicks](BenchRecorder* recorder) {
                     recorder->Record("nmi", IndependenceMeasure(clicks));
                     return Status::OK();
                   }),
  });

  // The gates over the CSV codec: csv_read / csv_write and
  // stream_build / csv_read.
  run_round_robin_or_die({
      PipelineCase("clickstream/csv_write", sessions,
                   [&clicks](BenchRecorder* recorder) {
                     std::ostringstream out;
                     PREFCOVER_RETURN_NOT_OK(WriteClickstreamCsv(clicks, &out));
                     recorder->Record("bytes",
                                      static_cast<double>(out.str().size()));
                     return Status::OK();
                   }),
      PipelineCase("clickstream/csv_read", sessions,
                   [&fixture](BenchRecorder* recorder) {
                     std::istringstream in(fixture.clickstream_csv);
                     auto cs = ReadClickstreamCsv(&in);
                     PREFCOVER_RETURN_NOT_OK(cs.status());
                     recorder->Record("sessions",
                                      static_cast<double>(cs->NumSessions()));
                     recorder->Record(
                         "bytes",
                         static_cast<double>(fixture.clickstream_csv.size()));
                     return Status::OK();
                   }),
      PipelineCase("clickstream/stream_build", sessions,
                   [&fixture](BenchRecorder* recorder) {
                     std::istringstream in(fixture.clickstream_csv);
                     auto graph = BuildPreferenceGraphStreaming(&in);
                     PREFCOVER_RETURN_NOT_OK(graph.status());
                     recorder->Record("edges",
                                      static_cast<double>(graph->NumEdges()));
                     return Status::OK();
                   }),
  });

  // The .pcg codec, encoder and decoder timed apart on the same graph.
  for (uint32_t n : {10'000u, 100'000u}) {
    auto graph =
        GenerateProfileGraphWithNodes(DatasetProfile::kPE, n, env.seed);
    PREFCOVER_CHECK(graph.ok());
    const PreferenceGraph& g = *graph;
    const std::string suffix = "/n" + std::to_string(n);
    BenchCase write = PipelineCase(
        "graph/pcg_write" + suffix, n, [&g](BenchRecorder* recorder) {
          const std::string image = SerializeGraphBinary(g);
          recorder->Record("bytes", static_cast<double>(image.size()));
          return Status::OK();
        });
    write.profile = "PE";
    run_or_die(write);

    const std::string image = SerializeGraphBinary(g);
    BenchCase read = PipelineCase(
        "graph/pcg_read" + suffix, n, [image](BenchRecorder* recorder) {
          auto decoded = DeserializeGraphBinary(image);
          PREFCOVER_RETURN_NOT_OK(decoded.status());
          recorder->Record("edges", static_cast<double>(decoded->NumEdges()));
          recorder->Record("bytes", static_cast<double>(image.size()));
          return Status::OK();
        });
    read.profile = "PE";
    run_or_die(read);
  }

  env.Emit(runner.SummaryTable(), "micro_pipeline data pipeline");
  st = MaybeWriteBenchJson(runner, env.flags);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  return 0;
}
