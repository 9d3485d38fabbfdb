#include "checks.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <type_traits>

#include "core/node.h"

namespace perfbench {
namespace {

using digs::ExperimentResult;
using digs::NodeId;

// CC2420 currents at 3 V (paper Section VII): listening is the most
// expensive radio state, sleeping the cheapest.
constexpr double kMaxCurrentMa = 18.8;
constexpr double kSleepCurrentMa = 0.021;
constexpr double kSupplyVolts = 3.0;
constexpr double kSlotMs = 10.0;
// Relative slack for summation order only: the meter adds its per-state
// energies while the ceiling multiplies one current by the summed time.
constexpr double kRounding = 1e-12;

std::string format(const char* fmt, double a, double b = 0, double c = 0) {
  char buf[256];
  std::snprintf(buf, sizeof buf, fmt, a, b, c);
  return buf;
}

class Hasher {
 public:
  void add(std::uint64_t v) { h_ = digs::hash_mix(h_, v); }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  template <typename T>
  void add_all(const std::vector<T>& values) {
    add(static_cast<std::uint64_t>(values.size()));
    for (const T& v : values) {
      if constexpr (std::is_floating_point_v<T>) {
        add(v);
      } else {
        add(static_cast<std::uint64_t>(v));
      }
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_{0x9E3779B97F4A7C15ull};
};

void hash_result(Hasher& h, const ExperimentResult& r) {
  h.add(r.overall_pdr);
  h.add_all(r.flow_pdrs);
  h.add_all(r.latencies_ms);
  h.add(r.energy_per_delivered_mj);
  h.add(r.duty_cycle);
  h.add(r.duty_cycle_per_delivered);
  h.add(r.delivered);
  h.add(r.generated);
  h.add_all(r.repair_times_s);
  h.add_all(r.join_times_s);
  h.add_all(r.full_join_times_s);
  h.add(static_cast<std::uint64_t>(r.flow_ids.size()));
  for (const digs::FlowId flow : r.flow_ids) h.add(std::uint64_t{flow.value});
  h.add(static_cast<std::uint64_t>(r.revivals));
  h.add_all(r.rejoin_times_s);
  h.add(static_cast<std::uint64_t>(r.fault_dips.size()));
  for (const auto& dip : r.fault_dips) {
    h.add(dip.at_s);
    h.add(dip.depth);
    h.add(dip.duration_s);
  }
  h.add(r.stale_route_drops);
  h.add(static_cast<std::uint64_t>(r.invariant_violations));
  h.add(r.victim_tx_attempts);
  h.add(r.victim_tx_jammed);
  h.add(r.jam_slot_hit_rate);
  h.add(r.swap_epochs);
  h.add(r.swaps_applied);
  h.add(r.swaps_rejected);
  h.add(r.swap_epoch_audits);
  h.add(r.swap_epoch_violations);
  h.add(r.control_cost);
  h.add(r.actuations);
  h.add(r.actuation_deadline_misses);
  h.add_all(r.sensor_actuator_latencies_ms);
  h.add(r.p999_sensor_actuator_ms);
  h.add(r.replication_wins);
  h.add(r.replication_losses);
  h.add(r.duplicates_suppressed);
  h.add(r.single_path_fallbacks);
  h.add(r.tunnel_rebuilds);
  h.add_all(r.tunnel_repair_times_s);
  h.add(r.tunnel_violations);
  h.add(r.desync_events);
  h.add(r.guard_misses);
  h.add(r.keepalives_sent);
  h.add(r.clock_corrections);
}

void check_eq4(const TrialOutput& out, std::vector<std::string>& errors) {
  if (out.suite != digs::ProtocolSuite::kDigs) return;
  const std::size_t len = out.app_frame_len;
  if (!out.permutation.empty() && out.permutation.size() != len) {
    errors.push_back(format("Eq. 4: permutation covers %.0f of %.0f offsets",
                            static_cast<double>(out.permutation.size()),
                            static_cast<double>(len)));
    return;
  }
  for (const DeviceRecord& dev : out.devices) {
    if (!dev.alive || !dev.has_parent) continue;
    if (dev.uplink_tx.size() != static_cast<std::size_t>(out.attempts)) {
      errors.push_back(format("Eq. 4: device %.0f has %.0f uplink TX cells",
                              dev.id, static_cast<double>(dev.uplink_tx.size())));
      continue;
    }
    for (const auto& [attempt, slot] : dev.uplink_tx) {
      // s = A * (id - N_AP) + p, mod the application slotframe, then
      // through the epoch's slot permutation when randomizing.
      std::size_t expected =
          (static_cast<std::size_t>(out.attempts) *
               (dev.id - out.num_access_points) +
           attempt) %
          len;
      if (!out.permutation.empty()) expected = out.permutation[expected];
      if (slot != expected) {
        errors.push_back(format("Eq. 4: device %.0f attempt %.0f in slot %.0f",
                                dev.id, attempt, slot) +
                         format(", expected %.0f", static_cast<double>(expected)));
      }
    }
  }
}

void check_energy(const TrialOutput& out, std::vector<std::string>& errors) {
  // The ceiling is per second the meter accounted: no radio state draws
  // more than the listen current. Per second of the metered span it does
  // not hold today, because the slot body charges a full-slot listener a
  // received frame's airtime on top of the whole slot (see README.md).
  const double span_s = out.window_s + out.drain_s;
  const double floor_mj =
      kSleepCurrentMa * kSupplyVolts * span_s * (1.0 - kRounding);
  for (const DeviceRecord& dev : out.devices) {
    const double ceiling_mj =
        kMaxCurrentMa * kSupplyVolts * dev.metered_s * (1.0 + kRounding);
    if (!(dev.energy_mj <= ceiling_mj)) {
      errors.push_back(format("energy: device %.0f used %.3f mJ > %.3f mJ",
                              dev.id, dev.energy_mj, ceiling_mj));
    }
    const bool crashed = std::find(out.crashed.begin(), out.crashed.end(),
                                   dev.id) != out.crashed.end();
    if (!crashed && !(dev.energy_mj >= floor_mj)) {
      errors.push_back(format("energy: device %.0f used %.4f mJ < %.4f mJ",
                              dev.id, dev.energy_mj, floor_mj));
    }
    if (!(dev.duty_cycle >= 0.0 && dev.duty_cycle <= 1.0)) {
      errors.push_back(format("duty cycle of device %.0f is %.6f", dev.id,
                              dev.duty_cycle));
    }
  }
  const double duty = out.result.duty_cycle;
  if (!(duty > 0.0 && duty <= 1.0)) {
    errors.push_back(format("mean duty cycle %.6f outside (0, 1]", duty));
  }
}

void check_traffic(const TrialOutput& out, std::vector<std::string>& errors) {
  const ExperimentResult& r = out.result;
  if (r.delivered > r.generated) {
    errors.push_back(format("delivered %.0f > generated %.0f",
                            static_cast<double>(r.delivered),
                            static_cast<double>(r.generated)));
  }
  // Each control loop registers a sensor and an actuation flow.
  const std::size_t flows = out.num_flows + 2 * out.control_loops;
  if (r.flow_ids.size() != flows) {
    errors.push_back(format("%.0f flows registered, expected %.0f",
                            static_cast<double>(r.flow_ids.size()),
                            static_cast<double>(flows)));
  }
  const double expected =
      static_cast<double>(out.num_flows) * out.window_s / out.flow_period_s +
      2.0 * static_cast<double>(out.control_loops) * out.window_s /
          out.control_period_s;
  if (std::fabs(static_cast<double>(r.generated) - expected) >
      static_cast<double>(flows)) {
    errors.push_back(format("generated %.0f, expected %.1f +- %.0f",
                            static_cast<double>(r.generated), expected,
                            static_cast<double>(flows)));
  }
  const double max_latency_ms = (out.window_s + out.drain_s) * 1e3;
  for (const double ms : r.latencies_ms) {
    if (!(ms >= kSlotMs && ms <= max_latency_ms)) {
      errors.push_back(format("latency %.3f ms outside [%.0f, %.0f] ms", ms,
                              kSlotMs, max_latency_ms));
      break;
    }
  }
}

void check_events(const TrialOutput& out, std::vector<std::string>& errors) {
  const ExperimentResult& r = out.result;
  const auto actuations = static_cast<std::uint64_t>(
      out.control_loops == 0
          ? 0.0
          : static_cast<double>(out.control_loops) *
                std::floor(out.window_s / out.control_period_s));
  if (r.actuations != actuations) {
    errors.push_back(format("actuations %.0f, expected %.0f",
                            static_cast<double>(r.actuations),
                            static_cast<double>(actuations)));
  }
  const auto epochs = static_cast<std::uint64_t>(
      out.randomized
          ? std::floor((out.warmup_s + out.window_s + out.drain_s) / out.epoch_s)
          : 0.0);
  if (r.swap_epochs != epochs) {
    errors.push_back(format("swap epochs %.0f, expected %.0f",
                            static_cast<double>(r.swap_epochs),
                            static_cast<double>(epochs)));
  }
  if (r.revivals != out.scripted_recovers) {
    errors.push_back(format("revivals %.0f, scripted recovers %.0f",
                            static_cast<double>(r.revivals),
                            static_cast<double>(out.scripted_recovers)));
  }
  if (r.rejoin_times_s.size() > r.revivals) {
    errors.push_back(format("rejoins %.0f > revivals %.0f",
                            static_cast<double>(r.rejoin_times_s.size()),
                            static_cast<double>(r.revivals)));
  }
  if (out.randomized) {
    // A bijection of the slotframe's offsets: sorted, it is 0..len-1.
    std::vector<std::uint16_t> sorted = out.permutation;
    std::sort(sorted.begin(), sorted.end());
    std::vector<std::uint16_t> identity(out.swap_frame_len);
    std::iota(identity.begin(), identity.end(), std::uint16_t{0});
    if (sorted != identity) {
      errors.push_back(format("slot permutation of %.0f offsets is not a "
                              "bijection of %.0f",
                              static_cast<double>(sorted.size()),
                              static_cast<double>(out.swap_frame_len)));
    }
  }
}

}  // namespace

void count_loops(const digs::Network& net, std::size_t& joined,
                 std::size_t& looping) {
  joined = 0;
  looping = 0;
  const std::size_t n = net.size();
  const std::size_t aps = net.config().num_access_points;
  for (std::size_t i = aps; i < n; ++i) {
    const digs::Node& node = net.node(NodeId{static_cast<std::uint16_t>(i)});
    if (!node.alive() || !node.routing().joined()) continue;
    ++joined;
    NodeId at = node.routing().best_parent();
    std::size_t steps = 0;
    while (at.valid() && at.value >= aps && steps < n) {
      const digs::Node& hop = net.node(at);
      at = hop.alive() ? hop.routing().best_parent() : NodeId{};
      ++steps;
    }
    if (!at.valid() || at.value >= aps) ++looping;
  }
}

TrialOutput harvest(const Trial& trial, digs::ExperimentRunner& runner,
                    ExperimentResult result, std::size_t joined,
                    std::size_t looping) {
  const digs::ExperimentConfig& config = trial.config;
  digs::Network& net = runner.network();
  const digs::SchedulerConfig& sched = net.config().node.scheduler;

  TrialOutput out;
  out.result = std::move(result);
  out.suite = config.suite;
  out.num_access_points = trial.layout.num_access_points;
  out.attempts = sched.attempts;
  out.app_frame_len = sched.app_slotframe_len;
  out.swap_frame_len = config.suite == digs::ProtocolSuite::kOrchestra
                           ? sched.orchestra_unicast_len
                           : sched.app_slotframe_len;
  out.warmup_s = config.warmup.seconds();
  out.window_s = config.duration.seconds();
  out.drain_s = config.stat_drain.seconds();
  out.num_flows = config.num_flows;
  out.flow_period_s = config.flow_period.seconds();
  out.control_loops = config.control_loops;
  out.control_period_s = config.control_period.seconds();
  out.randomized = config.randomize_schedule;
  out.epoch_s = config.randomize_epoch.seconds();
  out.scripted_recovers = trial.scripted_recovers;
  out.replication_off = trial.replication_off;
  for (const NodeId id : trial.crashed) out.crashed.push_back(id.value);
  out.permutation = net.app_slot_permutation();
  out.joined_at_window_end = joined;
  out.looping_at_window_end = looping;

  for (std::size_t i = out.num_access_points; i < net.size(); ++i) {
    const digs::Node& node = net.node(NodeId{static_cast<std::uint16_t>(i)});
    DeviceRecord dev;
    dev.id = static_cast<std::uint16_t>(i);
    dev.alive = node.alive();
    dev.has_parent = node.routing().best_parent().valid();
    dev.energy_mj = node.meter().energy_mj();
    dev.metered_s = node.meter().total_time().seconds();
    dev.duty_cycle = node.meter().duty_cycle();
    if (config.suite == digs::ProtocolSuite::kDigs) {
      if (const digs::Slotframe* app = node.mac().schedule().slotframe(
              digs::TrafficClass::kApplication)) {
        for (const digs::Cell& cell : app->cells) {
          if (cell.option == digs::CellOption::kTx && !cell.downlink &&
              !cell.tunnel) {
            dev.uplink_tx.emplace_back(cell.attempt, cell.slot_offset);
          }
        }
      }
    }
    out.devices.push_back(std::move(dev));
  }
  return out;
}

CheckReport check_trial(const TrialOutput& out) {
  CheckReport report;
  check_eq4(out, report.errors);
  check_energy(out, report.errors);
  check_traffic(out, report.errors);
  check_events(out, report.errors);
  report.known_fault = out.replication_off &&
                       (out.result.replication_wins != 0 ||
                        out.result.replication_losses != 0);
  return report;
}

std::size_t overtime_devices(const TrialOutput& out) {
  const double span_s = out.window_s + out.drain_s;
  return static_cast<std::size_t>(
      std::count_if(out.devices.begin(), out.devices.end(),
                    [span_s](const DeviceRecord& dev) {
                      return dev.metered_s > span_s;
                    }));
}

std::uint64_t digest(const TrialOutput& out) {
  Hasher h;
  hash_result(h, out.result);
  h.add_all(out.permutation);
  h.add(static_cast<std::uint64_t>(out.joined_at_window_end));
  h.add(static_cast<std::uint64_t>(out.looping_at_window_end));
  h.add(static_cast<std::uint64_t>(out.devices.size()));
  for (const DeviceRecord& dev : out.devices) {
    h.add(std::uint64_t{dev.id});
    h.add(std::uint64_t{dev.alive});
    h.add(std::uint64_t{dev.has_parent});
    h.add(dev.energy_mj);
    h.add(dev.metered_s);
    h.add(dev.duty_cycle);
    for (const auto& [attempt, slot] : dev.uplink_tx) {
      h.add((std::uint64_t{attempt} << 16) | slot);
    }
  }
  return h.value();
}

}  // namespace perfbench
