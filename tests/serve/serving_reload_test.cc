// Hot-reload integration: a live catalog drifts, the InventoryMaintainer
// re-solves, a new ServingIndex is built from the maintained set and
// atomically swapped into a QueryEngine while reader threads keep
// querying. Run under TSan in CI — the snapshot swap must be race-free
// against readers answering on their own threads.

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "core/inventory_maintainer.h"
#include "graph/dynamic_graph.h"
#include "serve/protocol.h"
#include "serve/query_engine.h"
#include "serve/serving_index.h"
#include "util/random.h"

namespace prefcover {
namespace serve {
namespace {

constexpr size_t kItems = 80;
constexpr size_t kK = 16;

// Builds a ServingIndex from the maintainer's stable-id retained set:
// snapshot the catalog, map stable ids to snapshot NodeIds, build.
Result<ServingIndex> IndexFromMaintainer(
    const DynamicPreferenceGraph& catalog,
    const InventoryMaintainer& maintainer, Variant variant) {
  std::vector<StableId> stable_ids;
  PREFCOVER_ASSIGN_OR_RETURN(PreferenceGraph snapshot,
                             catalog.Snapshot(&stable_ids));
  std::unordered_map<StableId, NodeId> to_node;
  to_node.reserve(stable_ids.size());
  for (NodeId v = 0; v < stable_ids.size(); ++v) {
    to_node.emplace(stable_ids[v], v);
  }
  std::vector<NodeId> retained;
  retained.reserve(maintainer.retained().size());
  for (StableId id : maintainer.retained()) {
    auto it = to_node.find(id);
    if (it == to_node.end()) {
      return Status::Internal("maintained item not in snapshot");
    }
    retained.push_back(it->second);
  }
  return ServingIndex::BuildFromRetained(snapshot, retained, variant);
}

TEST(ServingReloadTest, MaintainerDrivenReloadUnderConcurrentReaders) {
  Rng rng(17);
  DynamicPreferenceGraph catalog;
  std::vector<StableId> ids;
  for (size_t i = 0; i < kItems; ++i) {
    ids.push_back(catalog.AddItem(1.0 + rng.NextDouble() * 9.0));
  }
  for (StableId from : ids) {
    for (int e = 0; e < 4; ++e) {
      StableId to = ids[rng.NextUint64() % ids.size()];
      if (to == from) continue;
      ASSERT_TRUE(
          catalog.UpsertEdge(from, to, 0.05 + rng.NextDouble() * 0.9).ok());
    }
  }

  MaintainerOptions options;
  options.k = kK;
  InventoryMaintainer maintainer(&catalog, options);
  ASSERT_TRUE(maintainer.Maintain().ok());

  auto initial =
      IndexFromMaintainer(catalog, maintainer, options.variant);
  ASSERT_TRUE(initial.ok()) << initial.status().ToString();
  QueryEngine engine(
      std::make_shared<const ServingIndex>(std::move(initial).value()));

  // Readers hammer the engine while the writer drifts the catalog and
  // swaps in rebuilt indexes. Answers must always be internally
  // consistent with SOME complete index (never a torn snapshot); this is
  // what TSan checks at the memory level and the per-request status
  // checks at the protocol level.
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  auto reader = [&](uint64_t seed) {
    Rng reader_rng(seed);
    while (!stop.load(std::memory_order_relaxed)) {
      auto index = engine.index();
      const NodeId n = static_cast<NodeId>(index->NumNodes());
      Request request;
      switch (reader_rng.NextUint64() % 3) {
        case 0:
          request.type = QueryType::kCovered;
          request.v = static_cast<NodeId>(reader_rng.NextUint64() % n);
          break;
        case 1:
          request.type = QueryType::kSubstitutes;
          request.v = static_cast<NodeId>(reader_rng.NextUint64() % n);
          request.top_j = 4;
          break;
        default:
          request.type = QueryType::kCoverageAtK;
          request.coverage_k = 0;  // valid on every index size
          break;
      }
      Response response = engine.Answer(request);
      // The catalog only shrinks below the initial size transiently; an
      // id can be NotFound on a newer, smaller index — that's a correct
      // answer, not a tear.
      EXPECT_TRUE(response.status.ok() || response.status.IsNotFound())
          << response.line;
      reads.fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::vector<std::thread> readers;
  for (uint64_t t = 0; t < 3; ++t) readers.emplace_back(reader, 100 + t);

  // On a single core the writer can finish all reloads before a reader
  // thread ever runs; gate each reload on observed reader progress so
  // queries genuinely interleave with swaps.
  auto wait_for_reads = [&](uint64_t target) {
    while (reads.load(std::memory_order_relaxed) < target) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };

  constexpr int kReloads = 8;
  for (int round = 0; round < kReloads; ++round) {
    wait_for_reads(static_cast<uint64_t>(round + 1) * 20);
    // Drift: remove one item (possibly retained), add one, re-estimate a
    // few edges.
    StableId removed = ids[rng.NextUint64() % ids.size()];
    if (catalog.HasItem(removed)) {
      ASSERT_TRUE(catalog.RemoveItem(removed).ok());
    }
    StableId added = catalog.AddItem(1.0 + rng.NextDouble() * 9.0);
    ids.push_back(added);
    for (int e = 0; e < 3; ++e) {
      StableId from = ids[rng.NextUint64() % ids.size()];
      StableId to = ids[rng.NextUint64() % ids.size()];
      if (from == to || !catalog.HasItem(from) || !catalog.HasItem(to)) {
        continue;
      }
      ASSERT_TRUE(
          catalog.UpsertEdge(from, to, 0.05 + rng.NextDouble() * 0.9).ok());
    }

    auto action = maintainer.Maintain();
    ASSERT_TRUE(action.ok()) << action.status().ToString();
    ASSERT_EQ(maintainer.retained().size(), kK);

    auto rebuilt =
        IndexFromMaintainer(catalog, maintainer, options.variant);
    ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
    ASSERT_TRUE(
        engine
            .SwapIndex(std::make_shared<const ServingIndex>(
                std::move(rebuilt).value()))
            .ok());
  }

  stop.store(true);
  for (auto& t : readers) t.join();

  EXPECT_EQ(engine.Stats().index_reloads, kReloads);
  EXPECT_GT(reads.load(), 0u);

  // After the dust settles, the served index agrees with a fresh rebuild
  // from the maintainer's current set.
  auto final_rebuild =
      IndexFromMaintainer(catalog, maintainer, options.variant);
  ASSERT_TRUE(final_rebuild.ok());
  auto served = engine.index();
  EXPECT_EQ(served->Serialize(), final_rebuild->Serialize());
}

}  // namespace
}  // namespace serve
}  // namespace prefcover
