// Cluster cost model: makespan scheduling, shuffle time, job overhead, and
// the qualitative effects the paper's evaluation depends on (single-reducer
// stages don't scale; balanced task sets do).
#include "mapreduce/cluster_model.h"

#include <gtest/gtest.h>

#include "mapreduce/task_context.h"

namespace fj::mr {
namespace {

TEST(MakespanTest, EmptyAndSingle) {
  EXPECT_DOUBLE_EQ(Makespan({}, 4), 0.0);
  EXPECT_DOUBLE_EQ(Makespan({5.0}, 4), 5.0);
  EXPECT_DOUBLE_EQ(Makespan({5.0}, 1), 5.0);
}

TEST(MakespanTest, OneSlotSumsEverything) {
  EXPECT_DOUBLE_EQ(Makespan({1, 2, 3}, 1), 6.0);
}

TEST(MakespanTest, PerfectlyDivisibleTasks) {
  // 8 unit tasks on 4 slots -> 2 waves.
  std::vector<double> tasks(8, 1.0);
  EXPECT_DOUBLE_EQ(Makespan(tasks, 4), 2.0);
  EXPECT_DOUBLE_EQ(Makespan(tasks, 8), 1.0);
  EXPECT_DOUBLE_EQ(Makespan(tasks, 16), 1.0);  // can't beat one task
}

TEST(MakespanTest, LongestTaskDominates) {
  // A 10-second straggler bounds the makespan regardless of slots.
  EXPECT_DOUBLE_EQ(Makespan({10, 1, 1, 1, 1}, 8), 10.0);
}

TEST(MakespanTest, LptBalancesSkew) {
  // LPT: {4,3,3} on 2 slots -> slots {4, 3+3} = 6, not the naive 7.
  EXPECT_DOUBLE_EQ(Makespan({4, 3, 3}, 2), 6.0);
}

TEST(MakespanTest, SingleSlotEdgeCases) {
  // One slot serializes everything, in any order.
  EXPECT_DOUBLE_EQ(Makespan({0.5, 4.0, 0.5, 2.0}, 1), 7.0);
  // Zero-cost tasks neither help nor hurt.
  EXPECT_DOUBLE_EQ(Makespan({0.0, 0.0, 3.0}, 1), 3.0);
}

TEST(MakespanTest, MoreSlotsThanTasks) {
  // Every task gets its own slot; the longest one is the makespan.
  EXPECT_DOUBLE_EQ(Makespan({2.0, 7.0, 1.0}, 64), 7.0);
  // Adding yet more slots changes nothing.
  EXPECT_DOUBLE_EQ(Makespan({2.0, 7.0, 1.0}, 3), 7.0);
}

TEST(SimulateJobTest, ComponentsAddUp) {
  JobMetrics metrics;
  metrics.map_tasks = {TaskMetrics{2.0}, TaskMetrics{2.0}};
  metrics.reduce_tasks = {TaskMetrics{3.0}};
  metrics.shuffle_bytes = 100 * 1024 * 1024;

  ClusterConfig cluster;
  cluster.nodes = 1;
  cluster.map_slots_per_node = 1;
  cluster.reduce_slots_per_node = 1;

  auto simulated = SimulateJob(metrics, cluster);
  // 100 MB over one node's shuffle bandwidth.
  const double shuffle = 100 * 1024 * 1024 / kShuffleBytesPerSecondPerNode;
  EXPECT_DOUBLE_EQ(simulated.startup_seconds, kJobStartupSeconds);
  EXPECT_DOUBLE_EQ(simulated.map_seconds, 4.0);  // sequential on 1 slot
  EXPECT_DOUBLE_EQ(simulated.shuffle_seconds, shuffle);
  EXPECT_DOUBLE_EQ(simulated.reduce_seconds, 3.0);
  EXPECT_DOUBLE_EQ(simulated.total(),
                   kJobStartupSeconds + 4.0 + shuffle + 3.0);
}

TEST(SimulateJobTest, ParallelPhasesScaleWithNodesButOverheadDoesNot) {
  JobMetrics metrics;
  for (int i = 0; i < 40; ++i) metrics.map_tasks.push_back(TaskMetrics{1.0});
  for (int i = 0; i < 40; ++i) {
    metrics.reduce_tasks.push_back(TaskMetrics{1.0});
  }
  metrics.shuffle_bytes = 0;

  ClusterConfig small;
  small.nodes = 2;
  ClusterConfig large = small;
  large.nodes = 10;

  auto t_small = SimulateJob(metrics, small);
  auto t_large = SimulateJob(metrics, large);
  EXPECT_GT(t_small.map_seconds, t_large.map_seconds);
  EXPECT_DOUBLE_EQ(t_small.startup_seconds, t_large.startup_seconds);
  // 40 unit tasks on 2 nodes x 4 slots = 5 waves; on 10 nodes = 1 wave.
  EXPECT_DOUBLE_EQ(t_small.map_seconds, 5.0);
  EXPECT_DOUBLE_EQ(t_large.map_seconds, 1.0);
}

TEST(SimulateJobTest, SingleReducerStageDoesNotScale) {
  // The paper's stage-1 sort phase: one reduce task caps the speedup.
  JobMetrics metrics;
  metrics.reduce_tasks = {TaskMetrics{30.0}};
  ClusterConfig two, ten;
  two.nodes = 2;
  ten.nodes = 10;
  EXPECT_DOUBLE_EQ(SimulateJob(metrics, two).reduce_seconds,
                   SimulateJob(metrics, ten).reduce_seconds);
}

TEST(SimulateJobTest, ShuffleScalesWithAggregateBandwidth) {
  JobMetrics metrics;
  metrics.shuffle_bytes = 1000;
  ClusterConfig cluster;
  cluster.nodes = 2;
  EXPECT_DOUBLE_EQ(SimulateJob(metrics, cluster).shuffle_seconds,
                   1000 / (2 * kShuffleBytesPerSecondPerNode));
  cluster.nodes = 10;
  EXPECT_DOUBLE_EQ(SimulateJob(metrics, cluster).shuffle_seconds,
                   1000 / (10 * kShuffleBytesPerSecondPerNode));
}

TEST(SimulateJobTest, SpillBytesPricedOnLocalDiskBandwidth) {
  JobMetrics metrics;
  metrics.spilled_bytes = 500;
  ClusterConfig cluster;
  cluster.nodes = 2;
  // Written once + read once: 2 * 500 bytes over two nodes' bandwidth.
  EXPECT_DOUBLE_EQ(SimulateJob(metrics, cluster).spill_seconds,
                   2 * 500 / (2 * kLocalDiskBytesPerSecondPerNode));
  cluster.nodes = 10;
  EXPECT_DOUBLE_EQ(SimulateJob(metrics, cluster).spill_seconds,
                   2 * 500 / (10 * kLocalDiskBytesPerSecondPerNode));

  // Spill time is part of the total, and jobs that never spill pay zero.
  metrics.spilled_bytes = 0;
  auto clean = SimulateJob(metrics, cluster);
  EXPECT_DOUBLE_EQ(clean.spill_seconds, 0.0);
}

TEST(SimulateJobTest, SpillSecondsScaleWithWorkScale) {
  JobMetrics metrics;
  metrics.spilled_bytes = 1000;
  ClusterConfig cluster;
  cluster.nodes = 1;
  cluster.work_scale = 50.0;
  EXPECT_DOUBLE_EQ(SimulateJob(metrics, cluster).spill_seconds,
                   2 * 1000 * 50.0 / kLocalDiskBytesPerSecondPerNode);
}

// --- fault-tolerance cost modeling ---

TaskMetrics TaskWithChain(double seconds, double failed_seconds,
                          double loser_seconds = 0.0) {
  TaskMetrics t;
  t.seconds = seconds;
  t.failed_attempt_seconds = failed_seconds;
  if (failed_seconds > 0) t.failed_attempts = 1;
  t.speculative_loser_seconds = loser_seconds;
  if (loser_seconds > 0) t.speculative_launched = true;
  return t;
}

TEST(SimulateJobTest, RetryChainSerializesIntoTheTaskSlot) {
  // One task crashed once (3s wasted) then committed in 2s: its slot is
  // busy for 5s, which bounds the single-slot makespan.
  JobMetrics metrics;
  metrics.map_tasks = {TaskWithChain(2.0, 3.0)};
  ClusterConfig cluster;
  cluster.nodes = 1;
  cluster.map_slots_per_node = 1;
  EXPECT_DOUBLE_EQ(SimulateJob(metrics, cluster).map_seconds, 5.0);
}

TEST(SimulateJobTest, SpeculativeLoserOccupiesAParallelSlot) {
  // Winner committed in 2s; the loser burned 4s concurrently. With two
  // slots the loser bounds the phase; with one slot they serialize.
  JobMetrics metrics;
  metrics.map_tasks = {TaskWithChain(2.0, 0.0, 4.0)};
  ClusterConfig two_slots;
  two_slots.nodes = 1;
  two_slots.map_slots_per_node = 2;
  EXPECT_DOUBLE_EQ(SimulateJob(metrics, two_slots).map_seconds, 4.0);

  ClusterConfig one_slot;
  one_slot.nodes = 1;
  one_slot.map_slots_per_node = 1;
  EXPECT_DOUBLE_EQ(SimulateJob(metrics, one_slot).map_seconds, 6.0);
}

TEST(SimulateJobTest, WastedSecondsIsInformationalNotAdditive) {
  // total() must not double-charge wasted work: it is already inside the
  // phase makespans.
  JobMetrics metrics;
  metrics.reduce_tasks = {TaskWithChain(1.0, 2.0, 3.0)};
  ClusterConfig cluster;
  cluster.nodes = 1;
  cluster.reduce_slots_per_node = 2;
  auto simulated = SimulateJob(metrics, cluster);
  // The 3s chain (2s crashed + 1s committed) and the 3s loser share the
  // two slots.
  EXPECT_DOUBLE_EQ(simulated.reduce_seconds, 3.0);
  EXPECT_DOUBLE_EQ(simulated.total(), kJobStartupSeconds + 3.0);
}

TEST(SimulateJobTest, WorkInsideTasksIsNotPricedAgain) {
  // Codec, checksum and contract work runs inside the timed attempts, so
  // its counts must not add to the header formula's five terms.
  JobMetrics metrics;
  metrics.map_tasks = {TaskWithChain(2.0, 1.0), TaskWithChain(1.0, 0.0, 2.0)};
  metrics.reduce_tasks = {TaskWithChain(4.0, 1.0), TaskMetrics{1.0}};
  metrics.shuffle_bytes = 10 * 1024 * 1024;
  metrics.spilled_bytes = 4 * 1024 * 1024;
  ClusterConfig cluster;
  cluster.nodes = 1;
  cluster.map_slots_per_node = 2;
  cluster.reduce_slots_per_node = 1;
  cluster.work_scale = 2.0;

  JobMetrics counted = metrics;
  counted.codec_logical_bytes = counted.codec_encoded_bytes = 1 << 30;
  counted.integrity_bytes_verified = 1 << 30;
  counted.contract_checks = 1 << 30;
  // Map: the 3s chain alone, the 1s winner and 2s loser on the other
  // slot; reduce: 5s + 1s on one slot; everything x2 work_scale.
  const double by_hand =
      kJobStartupSeconds + 2 * 3.0 + 2 * 6.0 +
      2 * 10.0 * 1024 * 1024 / kShuffleBytesPerSecondPerNode +
      2 * 2 * 4.0 * 1024 * 1024 / kLocalDiskBytesPerSecondPerNode;
  EXPECT_DOUBLE_EQ(SimulateJob(counted, cluster).total(), by_hand);
  EXPECT_DOUBLE_EQ(SimulateJob(counted, cluster).total(),
                   SimulateJob(metrics, cluster).total());
}

TEST(SimulateJobTest, ZeroTasksHaveNoWaste) {
  JobMetrics metrics;
  ClusterConfig cluster;
  auto simulated = SimulateJob(metrics, cluster);
  EXPECT_DOUBLE_EQ(simulated.map_seconds, 0.0);
  EXPECT_DOUBLE_EQ(simulated.reduce_seconds, 0.0);
}

TEST(SimulateJobTest, MoreBackupsThanSlotsQueue) {
  // Four tasks each dragging a 1s speculative loser on a single slot:
  // 4 x (1 + 1) = 8 serialized seconds.
  JobMetrics metrics;
  for (int i = 0; i < 4; ++i) {
    metrics.map_tasks.push_back(TaskWithChain(1.0, 0.0, 1.0));
  }
  ClusterConfig cluster;
  cluster.nodes = 1;
  cluster.map_slots_per_node = 1;
  EXPECT_DOUBLE_EQ(SimulateJob(metrics, cluster).map_seconds, 8.0);
  // With plenty of slots every entry runs alone: the longest (1s) bounds.
  cluster.map_slots_per_node = 16;
  EXPECT_DOUBLE_EQ(SimulateJob(metrics, cluster).map_seconds, 1.0);
}

TEST(SimulateJobTest, StragglerSlowerThanBackupStillCharged) {
  // The backup won (committed 1s); the straggler lost after 9s. The
  // loser's slot time dominates a two-slot phase.
  JobMetrics metrics;
  TaskMetrics t = TaskWithChain(1.0, 0.0, 9.0);
  t.speculative_won = true;
  metrics.map_tasks = {t};
  ClusterConfig cluster;
  cluster.nodes = 1;
  cluster.map_slots_per_node = 2;
  EXPECT_DOUBLE_EQ(SimulateJob(metrics, cluster).map_seconds, 9.0);
}

TEST(SimulatePipelineTest, SumsJobs) {
  JobMetrics a, b;
  a.map_tasks = {TaskMetrics{1.0}};
  b.map_tasks = {TaskMetrics{2.0}};
  ClusterConfig cluster;
  EXPECT_DOUBLE_EQ(SimulatePipelineSeconds({a, b}, cluster),
                   (kJobStartupSeconds + 1.0) + (kJobStartupSeconds + 2.0));
}

TEST(LocalScratchTest, MetersIO) {
  LocalScratch scratch;
  scratch.Put("k", {"0123456789"});  // 11 bytes with newline
  EXPECT_EQ(scratch.bytes_written(), 11u);
  auto got = scratch.Get("k");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(scratch.bytes_read(), 11u);
  // Re-reading meters again (the reduce-based strategy re-reads blocks).
  ASSERT_TRUE(scratch.Get("k").ok());
  EXPECT_EQ(scratch.bytes_read(), 22u);
  EXPECT_DOUBLE_EQ(scratch.io_seconds(), 33 * LocalScratch::kSecondsPerByte);
  EXPECT_EQ(scratch.Get("missing").status().code(), StatusCode::kNotFound);
  scratch.Erase("k");
  EXPECT_FALSE(scratch.Get("k").ok());
}

}  // namespace
}  // namespace fj::mr
