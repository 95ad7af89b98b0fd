#include "dist/worker.h"

#include <string>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include <cstdio>

#include "core/checkpoint.h"
#include "core/variant.h"
#include "dist/protocol.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/transport.h"
#include "util/logging.h"
#include "util/simd_dispatch.h"
#include "util/string_util.h"

namespace prefcover {
namespace dist {

namespace {

std::string Err(Status status) {
  return serve::FormatErrorLine(status);
}

}  // namespace

DistWorker::DistWorker(const PreferenceGraph* graph) : graph_(graph) {}

DistWorker::~DistWorker() = default;

std::string DistWorker::HandleLine(const std::string& line,
                                   bool* stop_session, bool* stop_server) {
  const std::string_view trimmed = TrimWhitespace(line);
  const size_t space = trimmed.find(' ');
  const std::string_view verb =
      space == std::string_view::npos ? trimmed : trimmed.substr(0, space);
  const std::string args(
      space == std::string_view::npos ? std::string_view() :
                                        trimmed.substr(space + 1));
  if (verb == "hello") return HandleHello();
  if (verb == "init") return HandleInit(args);
  if (verb == "propose") return HandlePropose(args);
  if (verb == "commit") return HandleCommit(args);
  if (verb == "ckpt") return HandleCkpt();
  if (verb == "stats") return HandleStats();
  if (verb == "quit") {
    *stop_session = true;
    return "OK bye";
  }
  if (verb == "shutdown") {
    *stop_session = true;
    *stop_server = true;
    return "OK bye";
  }
  return Err(Status::InvalidArgument("unknown verb: " + std::string(verb)));
}

std::string DistWorker::HandleHello() {
  return "OK hello prefcover-dist v=" + std::to_string(kProtocolVersion) +
         " nodes=" + std::to_string(graph_->NumNodes());
}

std::string DistWorker::HandleInit(const std::string& args) {
  const KvArgs kv(args);
  const size_t n = graph_->NumNodes();

  // --- Parse and validate everything before touching member state, so a
  // bad init leaves the previous solve intact.
  std::string_view shard_raw;
  if (!kv.Get("shard", &shard_raw)) {
    return Err(Status::InvalidArgument("missing argument: shard"));
  }
  const size_t colon = shard_raw.find(':');
  if (colon == std::string_view::npos) {
    return Err(Status::InvalidArgument("shard must be <begin>:<end>"));
  }
  auto begin_or = ParseUint32(shard_raw.substr(0, colon));
  auto end_or = ParseUint32(shard_raw.substr(colon + 1));
  if (!begin_or.ok()) return Err(begin_or.status());
  if (!end_or.ok()) return Err(end_or.status());
  const size_t shard_begin = *begin_or;
  const size_t shard_end = *end_or;
  if (shard_begin > shard_end || shard_end > n) {
    return Err(Status::InvalidArgument("shard out of range"));
  }

  auto variant_name = kv.GetString("variant");
  if (!variant_name.ok()) return Err(variant_name.status());
  auto variant = ParseVariant(*variant_name);
  if (!variant.ok()) return Err(variant.status());

  auto simd_name = kv.GetString("simd");
  if (!simd_name.ok()) return Err(simd_name.status());
  SimdLevel level;
  if (!ParseSimdLevel(*simd_name, &level)) {
    return Err(Status::InvalidArgument("unknown simd level: " + *simd_name));
  }

  auto k = kv.GetU64("k");
  if (!k.ok()) return Err(k.status());
  auto seed_cap = kv.GetU64("seed_cap");
  if (!seed_cap.ok()) return Err(seed_cap.status());
  auto digest = kv.GetU64("digest");
  if (!digest.ok()) return Err(digest.status());
  auto opts = kv.GetU64("opts");
  if (!opts.ok()) return Err(opts.status());

  // The PR 4 resume semantics: refuse to rebuild against the wrong
  // instance. The graph digest is the worker-side check (each process
  // loaded its own copy of the graph); the options hash rides along so a
  // coordinator recovering from a worker's `ckpt` can cross-check it
  // against its own GreedyOptionsHash.
  if (*digest != GraphDigest(*graph_)) {
    return Err(Status::FailedPrecondition(
        "graph digest mismatch: coordinator solves a different instance"));
  }

  auto exclude_raw = kv.GetString("exclude");
  if (!exclude_raw.ok()) return Err(exclude_raw.status());
  auto exclude = ParseNodeCsv(*exclude_raw);
  if (!exclude.ok()) return Err(exclude.status());
  auto prefix_raw = kv.GetString("prefix");
  if (!prefix_raw.ok()) return Err(prefix_raw.status());
  auto prefix = ParseNodeCsv(*prefix_raw);
  if (!prefix.ok()) return Err(prefix.status());
  if (prefix->size() > *k) {
    return Err(Status::InvalidArgument("prefix longer than budget k"));
  }

  Bitset excluded(n);
  for (NodeId v : *exclude) {
    if (v >= n) {
      return Err(Status::InvalidArgument("exclude node out of range: " +
                                         std::to_string(v)));
    }
    excluded.Set(v);
  }

  auto state = std::make_unique<CoverState>(graph_, *variant, level);
  for (NodeId v : *prefix) {
    if (v >= n || state->IsRetained(v) || excluded.Test(v)) {
      return Err(Status::InvalidArgument("invalid prefix node: " +
                                         std::to_string(v)));
    }
    state->AddNode(v);
  }

  // --- Swap in the new solve.
  state_ = std::move(state);
  excluded_ = std::move(excluded);
  CelfShardEngine::Config config;
  config.shard_begin = shard_begin;
  config.shard_end = shard_end;
  config.seed_heap_capacity = static_cast<size_t>(*seed_cap);
  engine_ = std::make_unique<CelfShardEngine>(state_.get(), &excluded_,
                                              config);
  prefix_ = std::move(*prefix);
  seq_ = prefix_.size();
  k_ = *k;
  last_commit_reply_.clear();
  totals_ = EvaluatorCounters();

  return "OK init seq=" + std::to_string(seq_) +
         " cover=" + FormatF64(state_->cover());
}

std::string DistWorker::HandlePropose(const std::string& args) {
  if (!initialized()) {
    return Err(Status::FailedPrecondition("propose before init"));
  }
  const KvArgs kv(args);
  auto seq = kv.GetU64("seq");
  if (!seq.ok()) return Err(seq.status());
  if (*seq != seq_) {
    return Err(Status::FailedPrecondition(
        "propose seq " + std::to_string(*seq) + " != worker seq " +
        std::to_string(seq_)));
  }
  return "OK propose seq=" + std::to_string(seq_) + " " + ProposalFields();
}

std::string DistWorker::ProposalFields() {
  const CandidateProposal proposal = engine_->Propose();
  EvaluatorCounters tally;
  engine_->DrainCounters(&tally);
  EvaluatorCounters copy = tally;
  totals_.MergeFrom(&copy);

  std::string fields = std::string("found=") + (proposal.found ? "1" : "0");
  if (proposal.found) {
    fields += " node=" + std::to_string(proposal.node);
    fields += " gain=" + FormatF64(proposal.gain);
  }
  fields += " evals=" + std::to_string(tally.gain_evaluations);
  fields += " pops=" + std::to_string(tally.heap_pops);
  fields += " stale=" + std::to_string(tally.stale_refreshes);
  fields += " refills=" + std::to_string(tally.seed_refills);
  return fields;
}

std::string DistWorker::HandleCommit(const std::string& args) {
  if (!initialized()) {
    return Err(Status::FailedPrecondition("commit before init"));
  }
  const KvArgs kv(args);
  auto seq = kv.GetU64("seq");
  if (!seq.ok()) return Err(seq.status());
  auto node = kv.GetU64("node");
  if (!node.ok()) return Err(node.status());

  // Replay window: a retried commit whose original reply was lost in
  // transit (the ResilientClient reconnect path) is answered from cache
  // instead of re-applied — exactly-once application.
  if (*seq + 1 == seq_ && !prefix_.empty() && *node == prefix_.back() &&
      !last_commit_reply_.empty()) {
    return last_commit_reply_;
  }
  if (*seq != seq_) {
    return Err(Status::FailedPrecondition(
        "commit seq " + std::to_string(*seq) + " != worker seq " +
        std::to_string(seq_) + "; re-init required"));
  }
  const size_t n = graph_->NumNodes();
  if (*node >= n) {
    return Err(Status::InvalidArgument("commit node out of range"));
  }
  const NodeId v = static_cast<NodeId>(*node);
  if (state_->IsRetained(v)) {
    return Err(Status::FailedPrecondition(
        "commit node already retained: " + std::to_string(v)));
  }
  state_->AddNode(v);
  engine_->OnCommitted(v);
  prefix_.push_back(v);
  ++seq_;
  last_commit_reply_ = "OK commit seq=" + std::to_string(seq_) +
                       " cover=" + FormatF64(state_->cover());
  // Piggyback the next round's proposal on the commit reply so the
  // coordinator's steady-state round costs one fan-out barrier, not two.
  // Propose() is repeatable, so a coordinator that asks again anyway (or
  // replays this commit) sees the same bytes; skipping at seq_ == k
  // avoids proposing for a round the budget rules out.
  if (seq_ < k_) {
    last_commit_reply_ += " " + ProposalFields();
  }
  return last_commit_reply_;
}

std::string DistWorker::HandleCkpt() {
  if (!initialized()) {
    return Err(Status::FailedPrecondition("ckpt before init"));
  }
  return "OK ckpt seq=" + std::to_string(seq_) +
         " prefix=" + FormatNodeCsv(prefix_);
}

std::string DistWorker::HandleStats() {
  if (!initialized()) {
    return Err(Status::FailedPrecondition("stats before init"));
  }
  // Fold in anything the engine accumulated since the last propose so the
  // totals are current.
  engine_->DrainCounters(&totals_);
  return "OK stats seq=" + std::to_string(seq_) +
         " evals=" + std::to_string(totals_.gain_evaluations) +
         " pops=" + std::to_string(totals_.heap_pops) +
         " stale=" + std::to_string(totals_.stale_refreshes) +
         " refills=" + std::to_string(totals_.seed_refills);
}

#if defined(__unix__) || defined(__APPLE__)

Status RunDistWorkerServer(const PreferenceGraph& graph, uint16_t port) {
  serve::IgnoreSigpipe();
  PREFCOVER_ASSIGN_OR_RETURN(int listener, serve::ListenTcp(port));
  PREFCOVER_ASSIGN_OR_RETURN(uint16_t bound, serve::LocalPort(listener));
  std::printf("DIST_WORKER_PORT=%u\n", static_cast<unsigned>(bound));
  std::fflush(stdout);
  PREFCOVER_LOG(Info) << "dist-worker listening on port " << bound;

  DistWorker worker(&graph);
  bool keep_serving = true;
  while (keep_serving) {
    auto client = serve::AcceptClient(listener);
    if (!client.ok()) continue;  // transient (EINTR / injected) — retry
    keep_serving = serve::ServeLineSessionLoop(
        *client, [&worker](const std::string& line, bool* stop_session,
                           bool* stop_server) {
          return worker.HandleLine(line, stop_session, stop_server);
        });
  }
  ::close(listener);
  return Status::OK();
}

#endif  // __unix__ || __APPLE__

}  // namespace dist
}  // namespace prefcover
