// Tests for the multipath downlink tunnel subsystem:
//   - TunnelManager derivation over a fake parent DAG: node-disjointness,
//     loop-freedom under a cyclic DAG, graceful single-path degradation
//     when the second-best parent is missing (RPL-style) or coincides with
//     the primary exit, survival of a dead best parent, churn re-derivation
//     and repair timing,
//   - DuplicateFilter: either-order suppression of the replicated pair and
//     FIFO eviction under wraparound,
//   - tunnel_pair_conflict_free: clean pairs pass (also through a
//     SlotSwapper permutation), a crafted same-role collision is caught,
//     and a fully shared path is exempt (same transmitter, no collision),
//   - scheduler: role-keyed tunnel TX/RX cell ladders, off by default,
//   - end to end: replicated delivery with egress duplicate suppression,
//     the replication-off ablation, and zero tunnel invariant violations.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <numeric>
#include <vector>

#include "core/invariant_monitor.h"
#include "core/network.h"
#include "net/duplicate_filter.h"
#include "routing/tunnel.h"
#include "sched/conflict_analysis.h"
#include "sched/digs_scheduler.h"
#include "testbed/experiment.h"

namespace digs {
namespace {

// --- TunnelManager over a fake DAG ---

// 2 APs (0, 1) + 8 field devices. Two parallel spines:
//   0 <- 2 <- 4 <- 6   (best-parent chain of 6)
//   1 <- 3 <- 5        (5 is 6's second-best parent)
// plus 8 under AP 0 as a spare used by the churn test.
struct FakeDag {
  static constexpr std::size_t kNodes = 10;
  static constexpr std::uint16_t kAps = 2;

  std::array<NodeId, kNodes> best;
  std::array<NodeId, kNodes> second;
  std::array<bool, kNodes> up;

  FakeDag() {
    best.fill(kNoNode);
    second.fill(kNoNode);
    up.fill(true);
    best[2] = NodeId{0};
    best[3] = NodeId{1};
    best[4] = NodeId{2};
    best[5] = NodeId{3};
    best[6] = NodeId{4};
    best[8] = NodeId{0};
    second[6] = NodeId{5};
  }

  [[nodiscard]] TunnelManager::Env env() {
    TunnelManager::Env e;
    e.best_parent = [this](NodeId n) {
      return n.value < kNodes ? best[n.value] : kNoNode;
    };
    e.second_best_parent = [this](NodeId n) {
      return n.value < kNodes ? second[n.value] : kNoNode;
    };
    e.alive = [this](NodeId n) { return n.value < kNodes && up[n.value]; };
    e.num_access_points = kAps;
    e.num_nodes = kNodes;
    return e;
  }
};

TEST(TunnelManagerTest, DerivesNodeDisjointPair) {
  FakeDag dag;
  TunnelManager mgr(dag.env());
  const TunnelPair pair = mgr.derive(NodeId{6});
  ASSERT_TRUE(pair.valid());
  ASSERT_TRUE(pair.replicated());
  EXPECT_TRUE(pair.disjoint);
  EXPECT_EQ(pair.primary.hops,
            (std::vector<NodeId>{NodeId{0}, NodeId{2}, NodeId{4}, NodeId{6}}));
  EXPECT_EQ(pair.backup.hops,
            (std::vector<NodeId>{NodeId{1}, NodeId{3}, NodeId{5}, NodeId{6}}));
  // Roles: the primary rides best-parent edges only; the backup's final hop
  // (5 -> 6) is the second-best-parent edge and must carry the backup role
  // so it lands on the three-quarter-shift ladder.
  EXPECT_EQ(pair.primary.backup_edge,
            (std::vector<std::uint8_t>{0, 0, 0}));
  EXPECT_EQ(pair.backup.backup_edge, (std::vector<std::uint8_t>{0, 0, 1}));
}

TEST(TunnelManagerTest, NoTunnelTowardsApsOrDeadDestinations) {
  FakeDag dag;
  TunnelManager mgr(dag.env());
  EXPECT_FALSE(mgr.derive(NodeId{0}).valid());  // AP
  EXPECT_FALSE(mgr.derive(kNoNode).valid());
  dag.up[6] = false;
  EXPECT_FALSE(mgr.derive(NodeId{6}).valid());
}

TEST(TunnelManagerTest, SinglePathWhenSecondBestMissing) {
  // RPL/Orchestra shape: no node keeps a second-best parent. The pair must
  // degrade to a counted single-path fallback, never assert or drop.
  FakeDag dag;
  dag.second[6] = kNoNode;
  TunnelManager mgr(dag.env());
  const TunnelPair& pair = mgr.refresh(NodeId{6}, SimTime{0});
  ASSERT_TRUE(pair.valid());
  EXPECT_FALSE(pair.replicated());
  EXPECT_FALSE(pair.disjoint);
  EXPECT_EQ(mgr.fallback_derivations(), 1u);
  mgr.refresh(NodeId{6}, SimTime{1000});
  EXPECT_EQ(mgr.fallback_derivations(), 2u);
}

TEST(TunnelManagerTest, SinglePathWhenSecondBestIsPrimaryExit) {
  // The disjoint exit edge is gone when the second-best parent IS the
  // primary's last relay: replicating through it would share the final hop.
  FakeDag dag;
  dag.second[6] = NodeId{4};
  TunnelManager mgr(dag.env());
  const TunnelPair pair = mgr.derive(NodeId{6});
  ASSERT_TRUE(pair.valid());
  EXPECT_FALSE(pair.replicated());
}

TEST(TunnelManagerTest, DeadBestParentDegradesPrimaryNotTunnel) {
  FakeDag dag;
  dag.up[4] = false;  // 6's best parent crashes
  TunnelManager mgr(dag.env());
  const TunnelPair pair = mgr.derive(NodeId{6});
  ASSERT_TRUE(pair.valid());
  // The primary now leaves through the second-best parent (5) — and that
  // consumes the only disjoint exit, so the pair is single-path.
  EXPECT_EQ(pair.primary.hops,
            (std::vector<NodeId>{NodeId{1}, NodeId{3}, NodeId{5}, NodeId{6}}));
  EXPECT_EQ(pair.primary.backup_edge.back(), 1);
  EXPECT_FALSE(pair.replicated());
}

TEST(TunnelManagerTest, CyclicDagYieldsInvalidPairNotAHang) {
  FakeDag dag;
  dag.best[6] = NodeId{4};
  dag.best[4] = NodeId{6};  // parent cycle
  dag.second[6] = kNoNode;
  dag.second[4] = kNoNode;
  TunnelManager mgr(dag.env());
  EXPECT_FALSE(mgr.derive(NodeId{6}).valid());
}

TEST(TunnelManagerTest, ParentChurnRederivesAndCountsRebuild) {
  FakeDag dag;
  TunnelManager mgr(dag.env());
  mgr.refresh(NodeId{6}, SimTime{0});
  EXPECT_EQ(mgr.rebuilds(), 0u);
  dag.best[4] = NodeId{8};  // 4 re-parents under the spare relay
  const TunnelPair& pair = mgr.refresh(NodeId{6}, SimTime{1000});
  EXPECT_EQ(pair.primary.hops,
            (std::vector<NodeId>{NodeId{0}, NodeId{8}, NodeId{4}, NodeId{6}}));
  EXPECT_EQ(mgr.rebuilds(), 1u);
}

TEST(TunnelManagerTest, RepairTimingSpansOutageWindow) {
  FakeDag dag;
  TunnelManager mgr(dag.env());
  mgr.refresh(NodeId{6}, SimTime{0});
  // Partition the destination: both exits die.
  dag.up[4] = false;
  dag.up[5] = false;
  mgr.maintain(SimTime{2'000'000});  // outage observed at t = 2 s
  EXPECT_TRUE(mgr.repair_times_s().empty());
  dag.up[4] = true;
  mgr.maintain(SimTime{7'000'000});  // repaired at t = 7 s
  ASSERT_EQ(mgr.repair_times_s().size(), 1u);
  EXPECT_DOUBLE_EQ(mgr.repair_times_s()[0], 5.0);
}

// --- DuplicateFilter ---

TEST(DuplicateFilterTest, SuppressesSecondCopyEitherOrder) {
  // Two copies of the same (flow, seq) arriving over the two tunnels must
  // collapse to one delivery no matter which tunnel wins the race.
  DuplicateFilter via_primary_first;
  EXPECT_FALSE(via_primary_first.seen_or_insert(FlowId{7}, 42));  // deliver
  EXPECT_TRUE(via_primary_first.seen_or_insert(FlowId{7}, 42));   // suppress

  DuplicateFilter via_backup_first;
  EXPECT_FALSE(via_backup_first.seen_or_insert(FlowId{7}, 42));
  EXPECT_TRUE(via_backup_first.seen_or_insert(FlowId{7}, 42));
}

TEST(DuplicateFilterTest, DistinctFlowsAndSeqsPassThrough) {
  DuplicateFilter filter;
  EXPECT_FALSE(filter.seen_or_insert(FlowId{7}, 42));
  EXPECT_FALSE(filter.seen_or_insert(FlowId{7}, 43));
  EXPECT_FALSE(filter.seen_or_insert(FlowId{8}, 42));
  EXPECT_TRUE(filter.seen_or_insert(FlowId{7}, 42));
}

TEST(DuplicateFilterTest, FifoEvictionUnderWraparound) {
  DuplicateFilter filter;
  const auto cap = static_cast<std::uint32_t>(filter.capacity());
  for (std::uint32_t s = 0; s < cap; ++s) {
    EXPECT_FALSE(filter.seen_or_insert(FlowId{1}, s));
  }
  // Ring full: everything inserted is still seen.
  EXPECT_TRUE(filter.seen_or_insert(FlowId{1}, 0));
  EXPECT_TRUE(filter.seen_or_insert(FlowId{1}, cap - 1));
  // One more distinct key evicts exactly the oldest entry (seq 0)...
  EXPECT_FALSE(filter.seen_or_insert(FlowId{1}, cap));
  EXPECT_FALSE(filter.seen_or_insert(FlowId{1}, 0));  // forgotten again
  // ...and re-inserting it evicted the then-oldest (seq 1), while younger
  // entries survive.
  EXPECT_FALSE(filter.seen_or_insert(FlowId{1}, 1));
  EXPECT_TRUE(filter.seen_or_insert(FlowId{1}, 3));
}

TEST(DuplicateFilterTest, ClearDropsVolatileState) {
  DuplicateFilter filter;
  EXPECT_FALSE(filter.seen_or_insert(FlowId{7}, 42));
  filter.clear();  // power cycle
  EXPECT_FALSE(filter.seen_or_insert(FlowId{7}, 42));
}

// --- replication conflict-freedom (Eq. 4 for tunnel ladders) ---

TEST(TunnelConflictTest, DisjointDerivedPairIsConflictFree) {
  FakeDag dag;
  TunnelManager mgr(dag.env());
  const TunnelPair pair = mgr.derive(NodeId{6});
  ASSERT_TRUE(pair.disjoint);
  const DigsScheduler sched{SchedulerConfig{}};
  EXPECT_TRUE(tunnel_pair_conflict_free(pair, sched, FakeDag::kAps));
}

TEST(TunnelConflictTest, HoldsThroughSlotPermutation) {
  FakeDag dag;
  TunnelManager mgr(dag.env());
  const TunnelPair pair = mgr.derive(NodeId{6});
  const DigsScheduler sched{SchedulerConfig{}};
  const std::size_t len = sched.config().app_slotframe_len;

  std::vector<std::uint16_t> identity(len);
  std::iota(identity.begin(), identity.end(), std::uint16_t{0});
  EXPECT_TRUE(
      tunnel_pair_conflict_free(pair, sched, FakeDag::kAps, identity));

  // Any bijection preserves slot-offset distinctness — rotate by 17.
  std::vector<std::uint16_t> rotated(len);
  for (std::size_t s = 0; s < len; ++s) {
    rotated[s] = static_cast<std::uint16_t>((s + 17) % len);
  }
  EXPECT_TRUE(tunnel_pair_conflict_free(pair, sched, FakeDag::kAps, rotated));
}

TEST(TunnelConflictTest, SameRoleSameChildDifferentTxIsCaught) {
  // Crafted violation: both copies reach child 9 via a best-parent-role
  // final hop from DIFFERENT relays. Same child + same role means the same
  // ladder slots and channel — a true replication self-collision.
  TunnelPair pair;
  pair.primary.hops = {NodeId{0}, NodeId{4}, NodeId{9}};
  pair.primary.backup_edge = {0, 0};
  pair.backup.hops = {NodeId{1}, NodeId{7}, NodeId{9}};
  pair.backup.backup_edge = {0, 0};
  pair.disjoint = true;
  const DigsScheduler sched{SchedulerConfig{}};
  EXPECT_FALSE(tunnel_pair_conflict_free(pair, sched, 2));
  // The role-keyed ladders are exactly what legalizes it: flip the backup's
  // final hop to the second-best-parent role and the collision vanishes.
  pair.backup.backup_edge = {0, 1};
  EXPECT_TRUE(tunnel_pair_conflict_free(pair, sched, 2));
}

TEST(TunnelConflictTest, FullySharedPathIsExemptSharedEdges) {
  // A degenerate non-disjoint pair whose backup IS the primary: every cell
  // is claimed by the same transmitter, so nothing self-collides.
  TunnelPair pair;
  pair.primary.hops = {NodeId{0}, NodeId{4}, NodeId{9}};
  pair.primary.backup_edge = {0, 0};
  pair.backup = pair.primary;
  pair.disjoint = false;
  const DigsScheduler sched{SchedulerConfig{}};
  EXPECT_TRUE(tunnel_pair_conflict_free(pair, sched, 2));
}

// --- scheduler: tunnel cell ladders ---

TEST(TunnelSchedulerTest, RoleKeyedTxCellsPerChild) {
  SchedulerConfig config;
  config.enable_tunnels = true;
  DigsScheduler scheduler(config);

  Schedule schedule;
  // Child 7 sees us as best parent, child 8 as second-best.
  std::vector<ChildEntry> children{ChildEntry{NodeId{7}, true, {}},
                                   ChildEntry{NodeId{8}, false, {}}};
  RoutingView view;
  view.id = NodeId{4};
  view.num_access_points = 2;
  view.best_parent = NodeId{0};
  view.children = children;
  scheduler.rebuild(schedule, view);

  int primary_cells = 0;
  int backup_cells = 0;
  for (const Cell& cell :
       schedule.slotframe(TrafficClass::kApplication)->cells) {
    // Node 4 is itself a field device, so it also listens on its own
    // tunnel RX ladders; only its per-child TX cells are under test here.
    if (!cell.tunnel || cell.option != CellOption::kTx) continue;
    EXPECT_TRUE(cell.downlink);  // tunnel cells are downlink cells
    const bool backup_role = cell.peer == NodeId{8};
    const NodeId child = backup_role ? NodeId{8} : NodeId{7};
    EXPECT_EQ(cell.slot_offset,
              scheduler.tunnel_slot(child, 2, cell.attempt, backup_role));
    EXPECT_EQ(cell.channel_offset,
              DigsScheduler::tunnel_channel(child, cell.attempt, backup_role));
    (backup_role ? backup_cells : primary_cells) += 1;
  }
  EXPECT_EQ(primary_cells, config.attempts);
  EXPECT_EQ(backup_cells, config.attempts);
}

TEST(TunnelSchedulerTest, DeviceListensOnBothParentLadders) {
  SchedulerConfig config;
  config.enable_tunnels = true;
  DigsScheduler scheduler(config);

  Schedule schedule;
  RoutingView view;
  view.id = NodeId{7};
  view.num_access_points = 2;
  view.best_parent = NodeId{4};
  view.second_best_parent = NodeId{5};
  scheduler.rebuild(schedule, view);

  int rx_cells = 0;
  for (const Cell& cell :
       schedule.slotframe(TrafficClass::kApplication)->cells) {
    if (!cell.tunnel) continue;
    ASSERT_EQ(cell.option, CellOption::kRx);
    ++rx_cells;
  }
  // attempts cells on the best-parent ladder + attempts on the second-best.
  EXPECT_EQ(rx_cells, 2 * config.attempts);
}

TEST(TunnelSchedulerTest, NoTunnelCellsWhenDisabled) {
  DigsScheduler scheduler{SchedulerConfig{}};
  Schedule schedule;
  std::vector<ChildEntry> children{ChildEntry{NodeId{7}, true, {}}};
  RoutingView view;
  view.id = NodeId{4};
  view.num_access_points = 2;
  view.best_parent = NodeId{0};
  view.children = children;
  view.second_best_parent = NodeId{1};
  scheduler.rebuild(schedule, view);
  for (const Cell& cell :
       schedule.slotframe(TrafficClass::kApplication)->cells) {
    EXPECT_FALSE(cell.tunnel);
  }
}

// --- end to end ---

TestbedLayout tunnel_layout() {
  TestbedLayout layout;
  layout.name = "tunnel-10";
  layout.num_access_points = 2;
  layout.positions = {
      {12.0, 10.0, 0.0}, {24.0, 10.0, 0.0},  // APs
      {10.0, 5.0, 0.0},  {10.0, 15.0, 0.0}, {17.0, 8.0, 0.0},
      {17.0, 14.0, 0.0}, {24.0, 6.0, 0.0},  {30.0, 10.0, 0.0},
      {14.0, 11.0, 0.0}, {27.0, 12.0, 0.0},
  };
  return layout;
}

NetworkConfig tunnel_net_config(std::uint64_t seed) {
  NetworkConfig config;
  config.suite = ProtocolSuite::kDigs;
  config.seed = seed;
  config.node = ExperimentRunner::default_node_config();
  config.node.enable_downlink = true;
  config.node.enable_tunnels = true;
  config.node.mac.tx_power_dbm = 0.0;
  config.medium.propagation.path_loss_exponent = 3.8;
  return config;
}

TEST(TunnelEndToEndTest, ReplicatedDeliveryWithDuplicateSuppression) {
  NetworkConfig config = tunnel_net_config(41);
  config.monitor_invariants = true;
  Network net(config, tunnel_layout().positions);

  FlowSpec flow;
  flow.id = FlowId{0};
  flow.source = NodeId{0};
  flow.downlink_dest = NodeId{7};
  flow.period = seconds(static_cast<std::int64_t>(2));
  flow.start_offset = seconds(static_cast<std::int64_t>(180));
  net.add_flow(flow);
  net.start();
  net.run_until(SimTime{0} + seconds(static_cast<std::int64_t>(330)));

  EXPECT_GT(net.stats().pdr(FlowId{0},
                            SimTime{0} + seconds(static_cast<std::int64_t>(185))),
            0.85);

  ASSERT_NE(net.tunnel_manager(), nullptr);
  const TunnelPair* pair = net.tunnel_manager()->pair(NodeId{7});
  ASSERT_NE(pair, nullptr);
  ASSERT_TRUE(pair->valid());
  if (pair->replicated()) {
    // Both copies routinely arrive on a clean channel; the egress must have
    // swallowed the redundant ones (FlowStats sees one delivery per seq by
    // construction — this checks the forwarding plane did the dedup too).
    EXPECT_GT(net.duplicates_suppressed(), 0u);
    EXPECT_LE(net.replication_losses(), net.duplicates_suppressed());
  } else {
    EXPECT_GT(net.single_path_fallbacks(), 0u);
  }

  // The tunnel invariants held the whole run.
  const NetworkInvariantMonitor* monitor = net.invariant_monitor();
  ASSERT_NE(monitor, nullptr);
  EXPECT_EQ(monitor->count(InvariantKind::kTunnelLoop), 0u);
  EXPECT_EQ(monitor->count(InvariantKind::kTunnelDisjoint), 0u);
  EXPECT_EQ(monitor->count(InvariantKind::kTunnelConflict), 0u);
  EXPECT_EQ(monitor->count(InvariantKind::kScheduleConflict), 0u);
}

TEST(TunnelEndToEndTest, ReplicationOffSendsSinglePrimaryCopy) {
  NetworkConfig config = tunnel_net_config(42);
  config.tunnel_replication = false;
  Network net(config, tunnel_layout().positions);

  FlowSpec flow;
  flow.id = FlowId{0};
  flow.source = NodeId{0};
  flow.downlink_dest = NodeId{7};
  flow.period = seconds(static_cast<std::int64_t>(2));
  flow.start_offset = seconds(static_cast<std::int64_t>(180));
  net.add_flow(flow);
  net.start();
  net.run_until(SimTime{0} + seconds(static_cast<std::int64_t>(330)));

  EXPECT_GT(net.stats().pdr(FlowId{0},
                            SimTime{0} + seconds(static_cast<std::int64_t>(185))),
            0.85);
  // One copy per packet: nothing to suppress, nothing to win.
  EXPECT_EQ(net.duplicates_suppressed(), 0u);
  EXPECT_EQ(net.replication_wins(), 0u);
  EXPECT_EQ(net.replication_losses(), 0u);
}

// With replication off only the primary copy exists, so nothing can be a
// replication loss. Under interference ACKs get lost and the MAC resends
// frames the egress already has: those ARQ duplicates are suppressed by
// the duplicate filter but must not be counted as replication losses.
TEST(TunnelEndToEndTest, ArqDuplicatesAreNotReplicationLosses) {
  ExperimentConfig config;
  config.suite = ProtocolSuite::kDigs;
  config.seed = 102;
  config.num_flows = 6;
  config.flow_period = seconds(static_cast<std::int64_t>(5));
  config.warmup = seconds(static_cast<std::int64_t>(120));
  config.duration = seconds(static_cast<std::int64_t>(240));
  config.num_jammers = 3;
  config.enable_tunnels = true;
  config.tunnel_replication = false;
  config.control_loops = 2;
  config.control_period = seconds(static_cast<std::int64_t>(2));
  config.control_deadline = seconds(static_cast<std::int64_t>(5));
  ExperimentRunner runner(testbed_a(), config);
  const ExperimentResult result = runner.run();
  EXPECT_GT(result.duplicates_suppressed, 0u);
  EXPECT_EQ(result.replication_wins, 0u);
  EXPECT_EQ(result.replication_losses, 0u);
}

}  // namespace
}  // namespace digs
