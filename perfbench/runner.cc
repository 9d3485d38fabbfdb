#include "runner.h"

#include <algorithm>
#include <chrono>

#include "common/prof.h"
#include "core/invariant_monitor.h"
#include "manager/graph_router.h"
#include "phy/medium.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

template <typename Fn>
double timed(Fn&& fn) {
  const Clock::time_point t0 = Clock::now();
  fn();
  return seconds_between(t0, Clock::now());
}

}  // namespace

TrialRun run_trial(const Trial& trial, bool probe, Layers* layers) {
  TrialRun run;
  if (layers != nullptr) digs::prof::reset();
  const Clock::time_point t0 = Clock::now();
  digs::ExperimentRunner runner(trial.layout, trial.config);
  const Clock::time_point built = Clock::now();
  digs::Network& net = runner.network();
  const digs::SimTime window_start = digs::SimTime{0} + trial.config.warmup;
  const digs::SimTime run_end = window_start + trial.config.duration +
                                trial.config.stat_drain;
  // Probe instants, strictly inside run(): every segment and the window
  // start. Each probe only reads the wall clock.
  std::vector<digs::SimTime> at;
  if (probe) {
    for (digs::SimTime t = digs::SimTime{0} + digs::seconds(kSegmentSeconds);
         t < run_end; t = t + digs::seconds(kSegmentSeconds)) {
      if (t != window_start) at.push_back(t);
    }
    at.push_back(window_start);
    std::sort(at.begin(), at.end());
  }
  std::vector<Clock::time_point> stamps(at.size(), built);
  for (std::size_t i = 0; i < at.size(); ++i) {
    net.sim().schedule_at(at[i], [&stamps, i] { stamps[i] = Clock::now(); });
  }
  std::size_t joined = 0;
  std::size_t looping = 0;
  net.sim().schedule_at(window_start + trial.config.duration,
                        [&net, &joined, &looping] {
                          count_loops(net, joined, looping);
                        });
  digs::ExperimentResult result = runner.run();
  const Clock::time_point done = Clock::now();
  run.setup_s = seconds_between(t0, built);
  Clock::time_point from = built;
  for (std::size_t i = 0; i < at.size(); ++i) {
    const double span = seconds_between(from, stamps[i]);
    if (at[i] <= window_start) {
      run.formation_segments.push_back(span);
      run.formation_s += span;
    } else {
      run.steady_segments.push_back(span);
      run.steady_s += span;
    }
    from = stamps[i];
  }
  if (probe) {
    run.steady_segments.push_back(seconds_between(from, done));
    run.steady_s += run.steady_segments.back();
  }
  run.out = harvest(trial, runner, std::move(result), joined,
                               looping);
  if (layers == nullptr) return run;

  // Profiler phases of this trial's slot loop.
  namespace prof = digs::prof;
  const auto phase_s = [](prof::Phase p) {
    return static_cast<double>(prof::total_ns(p)) * 1e-9;
  };
  auto& s = layers->seconds;
  auto& c = layers->counts;
  s["core.slot_s"] += phase_s(prof::kSlotTotal);
  c["core.slots"] += static_cast<double>(prof::calls(prof::kSlotTotal));
  s["core.wake_pop_s"] += phase_s(prof::kWakePop);
  s["core.wake_refresh_s"] += phase_s(prof::kWakeRefresh);
  s["mac.plan_gather_s"] += phase_s(prof::kPlanGather);
  s["mac.ack_resolve_s"] += phase_s(prof::kAckResolve);
  s["phy.begin_listener_s"] += phase_s(prof::kBeginListener);
  s["phy.decode_s"] += phase_s(prof::kDecode);
  s["phy.bucket_build_s"] += phase_s(prof::kBucketBuild);
  c["phy.listeners"] += static_cast<double>(prof::calls(prof::kBeginListener));
  c["phy.decode_candidates"] += static_cast<double>(prof::calls(prof::kDecode));
  s["phy.shard_resolve_s"] += phase_s(prof::kShardResolve);
  s["core.merge_compact_s"] += phase_s(prof::kMergeCompact);
  s["sim.barrier_wait_s"] += phase_s(prof::kBarrierWait);
  s["sim.worker_idle_s"] += phase_s(prof::kWorkerIdle);
  s["core.deliver_s"] += phase_s(prof::kDeliver);
  s["energy.settle_s"] += phase_s(prof::kEnergySettle);
  s["core.off_slot_s"] += run.formation_s + run.steady_s -
                          phase_s(prof::kSlotTotal);
  c["sim.events"] += static_cast<double>(net.sim().events_executed());
  const std::vector<std::uint64_t>& busy = net.shard_busy_ns();
  std::uint64_t busy_max = 0;
  std::uint64_t busy_sum = 0;
  for (const std::uint64_t ns : busy) {
    busy_max = std::max(busy_max, ns);
    busy_sum += ns;
  }
  if (busy.size() > 1 && busy_sum > 0) {
    layers->shard_imbalance = std::max(
        layers->shard_imbalance,
        static_cast<double>(busy_max) * static_cast<double>(busy.size()) /
            static_cast<double>(busy_sum));
  }

  // Single-layer calls made by the benchmark on the trial's inputs and on
  // its final state (outputs were harvested above; these may mutate).
  s["phy.medium_build_s"] += timed([&] {
    digs::Medium medium(net.config().medium, trial.layout.positions,
                        trial.config.seed);
    medium.build_reachability(net.config().node.mac.tx_power_dbm);
  });
  s["sched.rebuild_s"] += timed([&] {
    for (std::size_t i = 0; i < net.size(); ++i) {
      digs::Node& node = net.node(digs::NodeId{static_cast<std::uint16_t>(i)});
      if (node.alive()) node.refresh_schedule();
    }
  });
  // Layers a trial does not run (no monitor, no tunnels, another suite)
  // read 0.
  double audit_s = 0.0;
  if (digs::NetworkInvariantMonitor* monitor = net.invariant_monitor()) {
    audit_s = timed([&] { monitor->audit_network(net.sim().now()); });
  }
  s["core.monitor_audit_s"] += audit_s;
  double derive_s = 0.0;
  if (const digs::TunnelManager* tunnels = net.tunnel_manager()) {
    derive_s = timed([&] {
      for (const digs::NodeId dest : tunnels->destinations()) {
        const digs::TunnelPair pair = tunnels->derive(dest);
        (void)pair;
      }
    });
  }
  s["routing.tunnel_derive_s"] += derive_s;
  double routes_s = 0.0;
  if (trial.config.suite == digs::ProtocolSuite::kWirelessHart) {
    const digs::TopologySnapshot topo =
        digs::make_topology_snapshot(trial.layout, trial.config.seed);
    routes_s = timed([&] {
      const digs::GraphRoutingResult routes = digs::compute_graph_routes(topo);
      (void)routes;
    });
  }
  s["manager.graph_routes_s"] += routes_s;

  const digs::ExperimentResult& r = run.out.result;
  c["routing.joined"] += static_cast<double>(run.out.joined_at_window_end);
  c["routing.looping_nodes"] +=
      static_cast<double>(run.out.looping_at_window_end);
  c["routing.rejoins"] += static_cast<double>(r.rejoin_times_s.size());
  c["routing.tunnel_rebuilds"] += static_cast<double>(r.tunnel_rebuilds);
  c["core.revivals"] += static_cast<double>(r.revivals);
  c["core.invariant_violations"] +=
      static_cast<double>(r.invariant_violations);
  c["sched.swap_epochs"] += static_cast<double>(r.swap_epochs);
  c["sched.swaps_rejected"] += static_cast<double>(r.swaps_rejected);
  c["net.duplicates_suppressed"] +=
      static_cast<double>(r.duplicates_suppressed);
  c["stats.generated"] += static_cast<double>(r.generated);
  c["stats.delivered"] += static_cast<double>(r.delivered);
  c["energy.overtime_devices"] +=
      static_cast<double>(overtime_devices(run.out));
  return run;
}

}  // namespace perfbench
