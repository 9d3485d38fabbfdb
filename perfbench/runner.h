// Runs one benchmark trial with wall-clock timers around world build,
// formation and steady state, and — when traced — collects the per-layer
// breakdown from the DIGS_PROF profiler and from the benchmark's own timed
// calls into single layers.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "checks.h"
#include "workloads.h"

namespace perfbench {

/// Per-layer times (s) and counts of one traced round, summed over its
/// trials; shard_imbalance is the largest max/mean of per-shard busy time.
struct Layers {
  std::map<std::string, double> seconds;
  std::map<std::string, double> counts;
  double shard_imbalance{1.0};
};

/// Simulated span between two timestamp probes.
inline constexpr std::int64_t kSegmentSeconds = 2;

struct TrialRun {
  TrialOutput out;
  double setup_s{0};
  double formation_s{0};
  double steady_s{0};
  /// Wall-clock of run() cut at every probe, in simulated order: the
  /// formation segments end at the window start, the steady segments at the
  /// end of run(). They sum to formation_s and steady_s. Empty without
  /// probes.
  std::vector<double> formation_segments;
  std::vector<double> steady_segments;
};

/// Builds and runs one trial. `probe` schedules no-op timestamp events at
/// every kSegmentSeconds of simulated time and at the window start; they
/// split run() into formation and steady state and each into segments.
/// Without them the two are not timed. An event at the window end counts
/// joined and looping devices (it only reads). `layers`, when set (profiler
/// on), receives the trial's per-layer breakdown.
[[nodiscard]] TrialRun run_trial(const Trial& trial, bool probe,
                                 Layers* layers);

}  // namespace perfbench
