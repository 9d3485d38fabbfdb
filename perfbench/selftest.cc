// Self-test of the benchmark's output checks: each check must reject a
// deliberately corrupted result, the digest must see a one-latency
// difference, and the timestamp probes must leave every output unchanged.
// Runs one paper_churn trial (testbed_a, DiGS) twice; exits 0 when every
// case behaves.
#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "checks.h"
#include "runner.h"
#include "workloads.h"

namespace {

using perfbench::CheckReport;
using perfbench::DeviceRecord;
using perfbench::TrialOutput;

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

bool mentions(const CheckReport& report, const std::string& needle) {
  for (const std::string& e : report.errors) {
    if (e.find(needle) != std::string::npos) return true;
  }
  return false;
}

// Applies `corrupt` to a copy of `base` and expects check_trial to report
// an error containing `needle`.
void expect_rejected(const TrialOutput& base, const std::string& what,
                     const std::string& needle,
                     const std::function<void(TrialOutput&)>& corrupt) {
  TrialOutput out = base;
  corrupt(out);
  expect(mentions(perfbench::check_trial(out), needle),
         "rejects " + what);
}

}  // namespace

int main() {
  const std::vector<perfbench::Trial> round =
      perfbench::make_round(perfbench::Workload::kPaperChurn, 1);
  const perfbench::Trial& trial = round.front();
  std::printf("trial %s\n", trial.label.c_str());

  const TrialOutput probed = perfbench::run_trial(trial, true, nullptr).out;
  const TrialOutput plain = perfbench::run_trial(trial, false, nullptr).out;
  expect(perfbench::digest(probed) == perfbench::digest(plain),
         "timestamp probes leave every output unchanged");

  const CheckReport clean = perfbench::check_trial(probed);
  for (const std::string& e : clean.errors) std::printf("  %s\n", e.c_str());
  expect(clean.errors.empty() && !clean.known_fault,
         "unmodified trial passes every check");

  std::size_t joined_device = probed.devices.size();
  for (std::size_t i = 0; i < probed.devices.size(); ++i) {
    if (probed.devices[i].alive && probed.devices[i].has_parent) {
      joined_device = i;
      break;
    }
  }
  expect(joined_device < probed.devices.size(), "a joined device exists");
  if (joined_device < probed.devices.size()) {
    expect_rejected(probed, "a shifted Eq. 4 offset", "Eq. 4",
                    [&](TrialOutput& out) {
                      auto& cell = out.devices[joined_device].uplink_tx[0];
                      cell.second = static_cast<std::uint16_t>(
                          (cell.second + 1) % out.app_frame_len);
                    });
  }
  expect_rejected(probed, "an energy above 18.8 mA x 3 V x metered time",
                  "energy", [](TrialOutput& out) {
                    out.devices.back().energy_mj =
                        18.8 * 3.0 * out.devices.back().metered_s * 1.001;
                  });
  expect_rejected(probed, "an energy below 21 uA x 3 V x window", "energy",
                  [](TrialOutput& out) {
                    for (DeviceRecord& dev : out.devices) dev.energy_mj = 0.0;
                  });
  expect_rejected(probed, "delivered above generated", "delivered",
                  [](TrialOutput& out) {
                    out.result.delivered = out.result.generated + 1;
                  });
  expect_rejected(probed, "a latency below one slot", "latency",
                  [](TrialOutput& out) { out.result.latencies_ms[0] = 9.0; });
  expect_rejected(probed, "a missing actuation", "actuations",
                  [](TrialOutput& out) { --out.result.actuations; });
  expect_rejected(probed, "an extra swap epoch", "swap epochs",
                  [](TrialOutput& out) { ++out.result.swap_epochs; });
  expect_rejected(probed, "an unscripted revival", "revivals",
                  [](TrialOutput& out) { ++out.result.revivals; });
  expect_rejected(probed, "a permutation that repeats an offset",
                  "bijection", [](TrialOutput& out) {
                    out.permutation[1] = out.permutation[0];
                  });

  TrialOutput sharded = probed;
  sharded.result.latencies_ms[0] =
      std::nextafter(sharded.result.latencies_ms[0], 1e300);
  expect(perfbench::digest(sharded) != perfbench::digest(probed),
         "digest tells apart results differing in one latency");

  TrialOutput off = probed;
  off.replication_off = true;
  off.result.replication_wins = 0;
  off.result.replication_losses = 0;
  expect(!perfbench::check_trial(off).known_fault,
         "replication-off trial with an empty scoreboard passes");
  off.result.replication_wins = 1;
  expect(perfbench::check_trial(off).known_fault,
         "replication-off trial reporting a win is a failed operation");

  std::printf("%s: %d failure(s)\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}
