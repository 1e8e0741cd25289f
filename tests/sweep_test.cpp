// Tests for the parallel sweep engine: grid construction, the hard
// determinism guarantee (byte-identical per-cell results regardless of
// thread count), and cross-cell aggregation through Snapshot::merge_from.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <sstream>
#include <string>

#include "eval/sweep.hpp"

namespace eval {
namespace {

std::string jsonl(const obs::Snapshot& snap) {
  std::ostringstream os;
  snap.write_jsonl(os);
  return os.str();
}

SweepConfig small_grid(int threads) {
  SweepConfig config;
  config.threads = threads;
  config.cells = make_grid(scenario_names(), {8, 16}, {1, 2, 3});
  return config;
}

TEST(SweepGrid, MakeGridIsSortedCrossProduct) {
  const auto cells = make_grid({"join", "claim"}, {32, 8}, {2, 1});
  ASSERT_EQ(cells.size(), 8u);
  EXPECT_TRUE(std::is_sorted(cells.begin(), cells.end(), cell_key_less));
  // Key order regardless of argument order: scenario, then domains, then
  // seed.
  EXPECT_EQ(cells.front().scenario, "claim");
  EXPECT_EQ(cells.front().domains, 8);
  EXPECT_EQ(cells.front().seed, 1u);
  EXPECT_EQ(cells.back().scenario, "join");
  EXPECT_EQ(cells.back().domains, 32);
  EXPECT_EQ(cells.back().seed, 2u);
}

TEST(SweepGrid, ScenarioNamesAreTheBuiltinFour) {
  const auto& names = scenario_names();
  ASSERT_EQ(names.size(), 4u);
  EXPECT_NE(std::find(names.begin(), names.end(), "claim"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "join"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "flap"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "workload"), names.end());
}

TEST(Sweep, UnknownScenarioThrowsBeforeRunningAnything) {
  SweepConfig config;
  config.cells.push_back({.scenario = "join"});
  config.cells.push_back({.scenario = "no-such-scenario"});
  EXPECT_THROW((void)run_sweep(config), std::invalid_argument);
}

TEST(Sweep, ResultsSortedByKeyEvenFromShuffledInput) {
  SweepConfig config = small_grid(2);
  std::mt19937 shuffle_rng(7);
  std::shuffle(config.cells.begin(), config.cells.end(), shuffle_rng);
  const SweepResult result = run_sweep(config);
  ASSERT_EQ(result.cells.size(), config.cells.size());
  EXPECT_TRUE(std::is_sorted(
      result.cells.begin(), result.cells.end(),
      [](const SweepCellResult& a, const SweepCellResult& b) {
        return cell_key_less(a.cell, b.cell);
      }));
  EXPECT_EQ(result.failed_cells(), 0u);
}

// The tentpole guarantee: each cell is a pure function of its parameters,
// so the same grid at any thread count reproduces every per-cell digest
// and metric snapshot bit-for-bit — parallelism may only change how long
// the sweep takes, never what it computes.
TEST(Sweep, ByteIdenticalAcrossThreadCounts) {
  const SweepResult serial = run_sweep(small_grid(1));
  ASSERT_EQ(serial.failed_cells(), 0u);
  for (const int threads : {4, 8}) {
    const SweepResult parallel = run_sweep(small_grid(threads));
    ASSERT_EQ(parallel.cells.size(), serial.cells.size());
    for (std::size_t i = 0; i < serial.cells.size(); ++i) {
      const SweepCellResult& a = serial.cells[i];
      const SweepCellResult& b = parallel.cells[i];
      ASSERT_EQ(a.cell.scenario, b.cell.scenario);
      ASSERT_EQ(a.cell.domains, b.cell.domains);
      ASSERT_EQ(a.cell.seed, b.cell.seed);
      EXPECT_EQ(a.rib_digest, b.rib_digest)
          << a.cell.scenario << "/" << a.cell.domains << "/" << a.cell.seed;
      EXPECT_EQ(a.path_digest, b.path_digest)
          << a.cell.scenario << "/" << a.cell.domains << "/" << a.cell.seed;
      EXPECT_EQ(a.tree_digest, b.tree_digest)
          << a.cell.scenario << "/" << a.cell.domains << "/" << a.cell.seed;
      EXPECT_EQ(a.events_run, b.events_run);
      EXPECT_EQ(a.messages_sent, b.messages_sent);
      EXPECT_DOUBLE_EQ(a.sim_seconds, b.sim_seconds);
      // Full snapshot equality, serialized: every counter, gauge and
      // histogram bucket agrees byte-for-byte.
      EXPECT_EQ(jsonl(a.metrics), jsonl(b.metrics))
          << a.cell.scenario << "/" << a.cell.domains << "/" << a.cell.seed;
    }
    EXPECT_EQ(jsonl(serial.merged), jsonl(parallel.merged));
  }
}

TEST(Sweep, MergedSnapshotAggregatesCells) {
  const SweepResult result = run_sweep(small_grid(2));
  ASSERT_EQ(result.failed_cells(), 0u);
  std::uint64_t messages = 0;
  std::uint64_t histogram_count = 0;
  for (const SweepCellResult& c : result.cells) {
    messages += c.metrics.counter_value("net.messages_sent");
    histogram_count +=
        c.metrics.histogram_stats("net.delivery_latency").count;
  }
  EXPECT_GT(messages, 0u);
  EXPECT_EQ(result.merged.counter_value("net.messages_sent"), messages);
  // Histogram merge is at bucket level: the merged count is the total
  // number of underlying samples across every cell.
  EXPECT_EQ(result.merged.histogram_stats("net.delivery_latency").count,
            histogram_count);
}

TEST(Sweep, CellsConvergeAndProduceStableDigests) {
  SweepConfig config;
  config.threads = 2;
  config.cells = make_grid({"join"}, {16}, {1});
  const SweepResult once = run_sweep(config);
  const SweepResult again = run_sweep(config);
  ASSERT_EQ(once.cells.size(), 1u);
  ASSERT_TRUE(once.cells[0].error.empty()) << once.cells[0].error;
  EXPECT_NE(once.cells[0].rib_digest, 0u);
  EXPECT_GT(once.cells[0].events_run, 0u);
  EXPECT_EQ(once.cells[0].rib_digest, again.cells[0].rib_digest);
}

TEST(Sweep, WriteJsonEmitsSchema) {
  SweepConfig config;
  config.threads = 2;
  config.cells = make_grid({"claim"}, {8}, {1, 2});
  const SweepResult result = run_sweep(config);
  std::ostringstream os;
  result.write_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"bench\": \"sweep\""), std::string::npos);
  EXPECT_NE(json.find("\"threads\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"cells\": ["), std::string::npos);
  EXPECT_NE(json.find("\"rib_digest\": "), std::string::npos);
  EXPECT_NE(json.find("\"merged\": "), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

}  // namespace
}  // namespace eval
