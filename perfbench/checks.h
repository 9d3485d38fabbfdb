// Output checks of the wall-clock benchmark. Every expected value is
// derived here from the trial's inputs or from a property the method must
// have (paper Eq. 4, the CC2420 current profile, packet conservation,
// exact event counts), never read back through the component under test.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "testbed/experiment.h"
#include "workloads.h"

namespace perfbench {

/// One field device's state at the end of a trial.
struct DeviceRecord {
  std::uint16_t id{0};
  bool alive{false};
  bool has_parent{false};
  double energy_mj{0};
  /// Radio time the energy meter accounted since the window start (s).
  double metered_s{0};
  double duty_cycle{0};
  /// Installed application uplink TX cells as (attempt, slot offset); DiGS
  /// trials only.
  std::vector<std::pair<std::uint8_t, std::uint16_t>> uplink_tx;
};

/// What a trial produced, plus the inputs the checks need.
struct TrialOutput {
  digs::ExperimentResult result;

  digs::ProtocolSuite suite{digs::ProtocolSuite::kDigs};
  std::uint16_t num_access_points{0};
  int attempts{0};
  std::uint16_t app_frame_len{0};
  std::uint16_t swap_frame_len{0};
  double warmup_s{0};
  double window_s{0};
  double drain_s{0};
  std::size_t num_flows{0};
  double flow_period_s{0};
  std::size_t control_loops{0};
  double control_period_s{0};
  bool randomized{false};
  double epoch_s{0};
  std::size_t scripted_recovers{0};
  bool replication_off{false};
  std::vector<std::uint16_t> crashed;

  std::vector<std::uint16_t> permutation;
  std::vector<DeviceRecord> devices;
  /// Joined field devices at the window end, and those among them whose
  /// best-parent chain never reaches an access point.
  std::size_t joined_at_window_end{0};
  std::size_t looping_at_window_end{0};
};

/// Joined and looping device counts of `net` right now (see TrialOutput).
void count_loops(const digs::Network& net, std::size_t& joined,
                 std::size_t& looping);

/// Collects the outputs of a finished trial. `joined`/`looping` are the
/// counts count_loops() took at the window end.
[[nodiscard]] TrialOutput harvest(const Trial& trial,
                                  digs::ExperimentRunner& runner,
                                  digs::ExperimentResult result,
                                  std::size_t joined, std::size_t looping);

struct CheckReport {
  /// Violated output checks; any entry fails the run.
  std::vector<std::string> errors;
  /// The replication scoreboard of a replication-off trial is not zero:
  /// the known fault, counted as a failed operation.
  bool known_fault{false};
};

[[nodiscard]] CheckReport check_trial(const TrialOutput& out);

/// Hash of every output of a trial (bit patterns of every double), for
/// bit-identity between serial and sharded, and untraced and traced runs.
[[nodiscard]] std::uint64_t digest(const TrialOutput& out);

/// Field devices whose meter accounted more radio time than the metered
/// span (window plus drain) — each device's time should sum to the span.
[[nodiscard]] std::size_t overtime_devices(const TrialOutput& out);

}  // namespace perfbench
