// Wall-clock benchmark of the DiGS simulator. One process runs one workload
// (workloads.h) for --seconds: whole rounds of its trials, each trial one
// ExperimentRunner built and run. See README.md for the metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 times world build (setup_s), formation (formation_s) and the
// measurement window plus drain (steady_s) with the profiler off. --trace 1
// alternates an untraced round with a DIGS_PROF round of the same trials,
// requires their outputs to be bit-identical, and reports the per-layer
// breakdown; on city_serial it also runs the trial once through the sharded
// slot pipeline. Every trial's outputs are checked (checks.h); the last
// stdout line is the JSON result.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "checks.h"
#include "common/prof.h"
#include "runner.h"
#include "workloads.h"

namespace {

using perfbench::Layers;
using perfbench::Trial;
using perfbench::TrialRun;
using Clock = std::chrono::steady_clock;

const Clock::time_point kProcessStart = Clock::now();

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double least(const std::vector<double>& v) {
  return *std::min_element(v.begin(), v.end());
}

// Contention from other processes on the host only ever adds time, and on a
// shared host it comes in bursts of seconds that swing a round's wall-clock
// by tens of percent. Every round runs the same deterministic work, cut by
// the timestamp probes into the same segments, so a phase is reported as the
// sum over its segments of each segment's fastest round: a burst then costs
// only the segments it overlapped in every round.
double sum_of_fastest(const std::vector<std::vector<double>>& rounds) {
  double total = 0.0;
  for (std::size_t seg = 0; seg < rounds.front().size(); ++seg) {
    double best = rounds.front()[seg];
    for (const std::vector<double>& round : rounds) {
      best = std::min(best, round[seg]);
    }
    total += best;
  }
  return total;
}

struct Args {
  perfbench::Workload workload{};
  std::uint64_t seed{0};
  double seconds{0};
  bool trace{false};
};

bool parse_args(int argc, char** argv, Args& args) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i + 1 < argc; i += 2) kv[argv[i]] = argv[i + 1];
  if (argc % 2 != 1 || kv.size() != 4 || !kv.count("--workload") ||
      !kv.count("--seed") || !kv.count("--seconds") || !kv.count("--trace")) {
    return false;
  }
  const auto workload = perfbench::parse_workload(kv["--workload"]);
  if (!workload) return false;
  args.workload = *workload;
  char* end = nullptr;
  args.seed = std::strtoull(kv["--seed"].c_str(), &end, 10);
  if (end == kv["--seed"].c_str() || *end != '\0') return false;
  args.seconds = std::strtod(kv["--seconds"].c_str(), &end);
  if (*end != '\0' || !(args.seconds > 0 && args.seconds <= 600)) return false;
  if (kv["--trace"] != "0" && kv["--trace"] != "1") return false;
  args.trace = kv["--trace"] == "1";
  return true;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

struct RoundResult {
  double setup_s{0};
  double formation_s{0};
  double steady_s{0};
  /// Every trial's segments, concatenated in trial order.
  std::vector<double> formation_segments;
  std::vector<double> steady_segments;
  std::vector<std::uint64_t> digests;
  std::size_t failed{0};
  [[nodiscard]] double wall_s() const {
    return setup_s + formation_s + steady_s;
  }
};

class Bench {
 public:
  // Runs one round, checks every trial, and returns its timings.
  RoundResult round(const std::vector<Trial>& trials, Layers* layers) {
    RoundResult rr;
    for (const Trial& trial : trials) {
      const TrialRun run = perfbench::run_trial(trial, true, layers);
      const perfbench::CheckReport report = perfbench::check_trial(run.out);
      for (const std::string& e : report.errors) fail(trial.label + ": " + e);
      if (report.known_fault) ++rr.failed;
      rr.setup_s += run.setup_s;
      rr.formation_s += run.formation_s;
      rr.steady_s += run.steady_s;
      rr.formation_segments.insert(rr.formation_segments.end(),
                                   run.formation_segments.begin(),
                                   run.formation_segments.end());
      rr.steady_segments.insert(rr.steady_segments.end(),
                                run.steady_segments.begin(),
                                run.steady_segments.end());
      rr.digests.push_back(perfbench::digest(run.out));
      ++attempted_;
      const digs::ExperimentResult& r = run.out.result;
      std::printf(
          "trial %-34s %s setup %.3f s formation %.3f s steady %.3f s | "
          "pdr %.4f gen %llu del %llu joined %zu looping %zu "
          "violations %zu rep_losses %llu%s\n",
          trial.label.c_str(), layers ? "traced  " : "untraced", run.setup_s,
          run.formation_s, run.steady_s, r.overall_pdr,
          static_cast<unsigned long long>(r.generated),
          static_cast<unsigned long long>(r.delivered),
          run.out.joined_at_window_end, run.out.looping_at_window_end,
          r.invariant_violations,
          static_cast<unsigned long long>(r.replication_losses),
          report.known_fault ? " [known fault]" : "");
    }
    failed_ += rr.failed;
    if (reference_digests_.empty()) {
      reference_digests_ = rr.digests;
    } else if (rr.digests != reference_digests_) {
      fail(std::string("outputs differ between rounds") +
           (layers ? " (traced vs untraced)" : ""));
    }
    return rr;
  }

  // city_serial, traced: the trial run once through the sharded slot
  // pipeline, without the probes, must equal the probed serial rounds. It
  // returns the sharded run's per-layer breakdown.
  Layers check_sharded(const std::vector<Trial>& trials) {
    Layers layers;
    for (std::size_t i = 0; i < trials.size(); ++i) {
      const Trial sharded = perfbench::sharded_copy(trials[i], 4);
      const TrialRun run = perfbench::run_trial(sharded, false, &layers);
      if (perfbench::digest(run.out) != reference_digests_[i]) {
        fail(sharded.label + ": sharded outputs differ from serial");
      }
      std::printf("trial %-34s traced   (sharded, no probes) outputs %s\n",
                  sharded.label.c_str(),
                  perfbench::digest(run.out) == reference_digests_[i]
                      ? "equal serial"
                      : "DIFFER from serial");
    }
    return layers;
  }

  void fail(const std::string& what) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    correct_ = false;
  }

  [[nodiscard]] bool correct() const { return correct_; }
  [[nodiscard]] std::size_t attempted() const { return attempted_; }
  [[nodiscard]] std::size_t failed() const { return failed_; }

 private:
  bool correct_{true};
  std::size_t attempted_{0};
  std::size_t failed_{0};
  std::vector<std::uint64_t> reference_digests_;
};

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

void print_metric(std::string& json, const std::string& name, double value,
                  const char* unit) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                json.empty() ? "" : ", ", name.c_str(), value, unit);
  json += buf;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload city_serial|paper_churn "
                 "--seed <n> --seconds <s> --trace 0|1\n");
    return 2;
  }
  const char* commit = std::getenv("PERFBENCH_COMMIT");
  std::printf(
      "provenance: {\"commit\": \"%s\", \"compiler\": \"%s\", \"flags\": "
      "\"%s\", \"build_type\": \"%s\", \"cpu\": \"%s\", \"nproc\": %u, "
      "\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d}\n",
      json_escape(commit ? commit : "unknown").c_str(), PERFBENCH_COMPILER,
      PERFBENCH_FLAGS, PERFBENCH_BUILD_TYPE, json_escape(cpu_model()).c_str(),
      std::thread::hardware_concurrency(),
      perfbench::workload_name(args.workload),
      static_cast<unsigned long long>(args.seed), args.seconds,
      args.trace ? 1 : 0);

  Bench bench;
  digs::prof::force_enabled(false);
  const std::vector<Trial> trials =
      perfbench::make_round(args.workload, args.seed);
  const double preamble_s = since(kProcessStart);

  // Whole rounds until --seconds: a round (or a pair of rounds when traced)
  // starts only if it should end in time by the previous one's length.
  const Clock::time_point measure_start = Clock::now();
  double last_s = 0.0;
  const auto another = [&](bool first) {
    return first || since(measure_start) + last_s <= args.seconds;
  };

  std::string metrics;
  if (!args.trace) {
    std::vector<RoundResult> rounds;
    double first_round_rss_mb = 0.0;
    for (bool first = true; another(first); first = false) {
      const Clock::time_point t0 = Clock::now();
      rounds.push_back(bench.round(trials, nullptr));
      last_s = since(t0);
      if (first) first_round_rss_mb = peak_rss_mb();
    }
    std::vector<std::vector<double>> formation;
    std::vector<std::vector<double>> steady;
    for (const RoundResult& rr : rounds) {
      formation.push_back(rr.formation_segments);
      steady.push_back(rr.steady_segments);
    }
    // One cold set-up per process: from process start through the first
    // round's world builds.
    print_metric(metrics, "setup_s", preamble_s + rounds.front().setup_s, "s");
    print_metric(metrics, "formation_s", sum_of_fastest(formation), "s");
    print_metric(metrics, "steady_s", sum_of_fastest(steady), "s");
    // Through the first round only: later rounds reuse the freed heap, and
    // how many of them fit in the run depends on the host's speed.
    print_metric(metrics, "peak_rss_mb", first_round_rss_mb, "MiB");
    std::printf("rounds: %zu\n", rounds.size());
  } else {
    std::vector<double> untraced_wall;
    std::vector<double> traced_wall;
    std::vector<Layers> traced;
    for (bool first = true; another(first); first = false) {
      const Clock::time_point t0 = Clock::now();
      digs::prof::force_enabled(false);
      untraced_wall.push_back(bench.round(trials, nullptr).wall_s());
      digs::prof::force_enabled(true);
      Layers layers;
      traced_wall.push_back(bench.round(trials, &layers).wall_s());
      traced.push_back(std::move(layers));
      last_s = since(t0);
    }
    // The breakdown of the fastest traced round; counts are the same in
    // every round.
    const std::size_t best = static_cast<std::size_t>(
        std::min_element(traced_wall.begin(), traced_wall.end()) -
        traced_wall.begin());
    Layers& layers = traced[best];
    if (args.workload == perfbench::Workload::kCitySerial) {
      // The shard phases come from the sharded run of the same trial.
      const Layers sharded = bench.check_sharded(trials);
      for (const char* name : {"phy.shard_resolve_s", "sim.barrier_wait_s",
                               "sim.worker_idle_s"}) {
        layers.seconds[name] = sharded.seconds.at(name);
      }
      layers.shard_imbalance = sharded.shard_imbalance;
    }
    digs::prof::force_enabled(false);
    for (const auto& [name, value] : layers.seconds) {
      print_metric(metrics, name, value, "s");
    }
    for (const auto& [name, value] : layers.counts) {
      print_metric(metrics, name, value, "count");
    }
    print_metric(metrics, "sim.shard_imbalance", layers.shard_imbalance,
                 "ratio");
    print_metric(metrics, "trace_overhead",
                 traced_wall[best] / least(untraced_wall), "ratio");
    std::printf("rounds: %zu untraced + %zu traced\n", untraced_wall.size(),
                traced_wall.size());
  }

  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": "
      "{%s}}\n",
      bench.correct() ? "true" : "false", bench.attempted(), bench.failed(),
      metrics.c_str());
  std::fflush(stdout);
  return bench.correct() ? 0 : 1;
}
