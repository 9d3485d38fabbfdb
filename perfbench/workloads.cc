#include "workloads.h"

#include <algorithm>

#include "bench_util.h"
#include "common/rng.h"

namespace perfbench {
namespace {

using digs::ExperimentConfig;
using digs::NodeId;
using digs::ProtocolSuite;
using digs::seconds;

constexpr ProtocolSuite kSuites[] = {ProtocolSuite::kDigs,
                                     ProtocolSuite::kOrchestra,
                                     ProtocolSuite::kWirelessHart};

// The city configuration of the repository's scaling sweep (ext_scaling),
// DiGS with 16 flows at 5 s, cut to 150 s of formation and a 60 s window
// (the sweep runs 300 s and 120 s) so that a run repeats the trial often
// enough for each segment's fastest round to settle.
ExperimentConfig city_config(std::uint64_t seed) {
  ExperimentConfig config;
  config.suite = ProtocolSuite::kDigs;
  config.seed = seed;
  config.num_flows = 16;
  config.flow_period = seconds(std::int64_t{5});
  config.warmup = seconds(std::int64_t{150});
  config.duration = seconds(std::int64_t{60});
  config.stat_drain = seconds(std::int64_t{10});
  config.num_jammers = 0;
  config.shards = 1;
  config.shard_threads = 1;
  return config;
}

Trial city_trial(std::uint64_t seed) {
  Trial trial;
  trial.layout = digs::bench::city_floor(kCityDevices, kCityLayoutSeed);
  trial.config = city_config(seed);
  trial.label = trial.layout.name + "/shards1";
  return trial;
}

// Every failure mechanism the simulator carries, composed in one trial:
// crash/recover cycles on two devices, the Fig. 9 WiFi-like jammers,
// SlotSwapper epochs, downlink tunnels feeding PID control loops, and the
// invariant monitor. Window and epoch are whole multiples of the control
// period, so actuations and swap epochs have exact expected counts.
Trial churn_trial(const digs::TestbedLayout& layout, ProtocolSuite suite,
                  std::uint64_t seed, bool replication) {
  Trial trial;
  trial.layout = layout;
  trial.label = layout.name + "/" + digs::to_string(suite) +
                (replication ? "" : "/replication-off");
  trial.replication_off = !replication;
  ExperimentConfig& config = trial.config;
  config.suite = suite;
  config.seed = seed;
  config.num_flows = 6;
  config.flow_period = seconds(std::int64_t{5});
  config.warmup = seconds(std::int64_t{120});
  config.duration = seconds(std::int64_t{240});
  config.stat_drain = seconds(std::int64_t{20});
  config.num_jammers = 3;
  config.jammer_start_after = seconds(std::int64_t{60});
  config.randomize_schedule = true;
  config.randomize_epoch = seconds(std::int64_t{30});
  config.enable_tunnels = true;
  config.tunnel_replication = replication;
  config.control_loops = 2;
  config.control_period = seconds(std::int64_t{2});
  config.control_deadline = seconds(std::int64_t{5});
  config.monitor_invariants = true;
  config.shards = 1;
  config.shard_threads = 1;

  // Two distinct field devices, each crashed twice for 30 s.
  digs::Rng rng(digs::hash_mix(seed, 0xC4A5));
  const std::size_t devices = layout.num_field_devices();
  const auto first = static_cast<std::uint16_t>(rng.uniform_int(devices));
  auto second = static_cast<std::uint16_t>(rng.uniform_int(devices - 1));
  if (second >= first) ++second;
  for (const std::uint16_t index : {first, second}) {
    const NodeId victim{
        static_cast<std::uint16_t>(layout.num_access_points + index)};
    config.faults.crash_cycle(seconds(std::int64_t{40}), victim,
                              seconds(std::int64_t{30}),
                              seconds(std::int64_t{60}), 2);
    trial.crashed.push_back(victim);
    trial.scripted_recovers += 2;
  }
  return trial;
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  for (const Workload w : {Workload::kCitySerial, Workload::kPaperChurn}) {
    if (name == workload_name(w)) return w;
  }
  return std::nullopt;
}

const char* workload_name(Workload workload) {
  switch (workload) {
    case Workload::kCitySerial: return "city_serial";
    case Workload::kPaperChurn: return "paper_churn";
  }
  return "?";
}

std::vector<Trial> make_round(Workload workload, std::uint64_t seed) {
  std::vector<Trial> round;
  switch (workload) {
    case Workload::kCitySerial:
      round.push_back(city_trial(seed));
      break;
    case Workload::kPaperChurn: {
      const digs::TestbedLayout layouts[] = {digs::testbed_a(),
                                             digs::cooja_150()};
      for (std::size_t l = 0; l < std::size(layouts); ++l) {
        for (const ProtocolSuite suite : kSuites) {
          round.push_back(churn_trial(
              layouts[l], suite,
              digs::hash_mix(seed, l, static_cast<std::uint64_t>(suite)),
              true));
        }
      }
      // The known fault, on inputs that do not depend on the run seed.
      for (const std::uint64_t fixed_seed : {101, 102}) {
        round.push_back(churn_trial(digs::testbed_a(), ProtocolSuite::kDigs,
                                    fixed_seed, false));
      }
      break;
    }
  }
  return round;
}

Trial sharded_copy(const Trial& trial, std::size_t shards) {
  Trial copy = trial;
  copy.config.shards = shards;
  copy.config.shard_threads =
      std::min<std::size_t>(shards, digs::bench::hardware_threads());
  copy.label = trial.layout.name + "/shards" + std::to_string(shards);
  return copy;
}

}  // namespace perfbench
