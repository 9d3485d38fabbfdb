// The benchmark's workloads: each is a fixed list of simulated trials (one
// "round") generated from the run's --seed. A trial is one ExperimentRunner
// built and run; it is the benchmark's unit of operation.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "testbed/experiment.h"

namespace perfbench {

enum class Workload { kCitySerial, kPaperChurn };

[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name);
[[nodiscard]] const char* workload_name(Workload workload);

struct Trial {
  std::string label;
  digs::TestbedLayout layout;
  digs::ExperimentConfig config;
  /// Field devices the fault script crashes (energy lower bound skips them)
  /// and the number of recover events it scripts.
  std::vector<digs::NodeId> crashed;
  std::size_t scripted_recovers{0};
  /// Replication-off tunnel trial on fixed inputs: Network::apply_dropped
  /// counts a tunneled frame's MAC ARQ duplicate as a replication loss, so
  /// these trials fail their replication check every time.
  bool replication_off{false};
};

/// One round of `workload` for run seed `seed`: the same seed always gives
/// the same trials. Like the repository's figure benches, a workload keeps
/// its deployments fixed and draws each trial's experiment seed (flow
/// sources, traffic phases, fading, crash victims) from the run seed.
[[nodiscard]] std::vector<Trial> make_round(Workload workload,
                                            std::uint64_t seed);

/// `trial` run through the sharded slot pipeline: `shards` shards on at most
/// nproc worker threads. Its outputs must equal the serial trial's.
[[nodiscard]] Trial sharded_copy(const Trial& trial, std::size_t shards);

/// The city floor city_serial simulates: bench::city_floor(2000, 5).
inline constexpr int kCityDevices = 2000;
inline constexpr std::uint64_t kCityLayoutSeed = 5;

}  // namespace perfbench
