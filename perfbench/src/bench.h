// Shared pieces of the delprop benchmark: run configuration, the metric
// sink behind the final JSON line, percentiles, the outcome fingerprint and
// the per-operation verification counters.
#ifndef DELPROP_PERFBENCH_BENCH_H_
#define DELPROP_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "dp/solution.h"
#include "dp/vse_instance.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Command-line configuration of one benchmark run.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// 1x sizes and a handful of operations (the benchmark's own test).
  bool smoke = false;
  /// Where the Chrome trace and the result record are written ("": none).
  std::string out_dir;
  std::string git = "unknown";
};

/// Everything one run reports: the numbers of the final JSON line plus the
/// workload parameters recorded in the host/build block.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = Metric{value, unit};
  }
  void Param(const std::string& key, const std::string& value) {
    params_[key] = value;
  }
  void Param(const std::string& key, double value);

  /// An operation that was attempted; `ok` false counts it as failed. A
  /// failure message is printed for the first few failures.
  void CountOp(bool ok, const std::string& why = "");
  /// A wrong answer or a broken determinism contract: the run is incorrect
  /// (and the operation, if any, is also counted through CountOp).
  void Incorrect(const std::string& why);

  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  const std::map<std::string, Metric>& metrics() const { return metrics_; }
  const std::map<std::string, std::string>& params() const { return params_; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  bool correct() const { return correct_; }

 private:
  std::map<std::string, Metric> metrics_;
  std::map<std::string, std::string> params_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool correct_ = true;
  int messages_ = 0;
};

/// Nearest-rank percentile (q in [0, 1]) of `samples`; 0 when empty.
double Percentile(std::vector<double> samples, double q);
double Median(std::vector<double> samples);
double Sum(const std::vector<double>& samples);

/// Samples strictly above the nearest-rank percentile q (the count the
/// benchmark states next to every p99).
size_t CountBeyond(const std::vector<double>& samples, double q);

/// FNV-1a over operation outcomes: status, solver, cost and the sorted ΔD.
class Fingerprint {
 public:
  void Mix(const std::string& text);
  void Mix(uint64_t value);
  void Mix(const delprop::Status& status);
  void Mix(const delprop::Result<delprop::VseSolution>& result);
  uint64_t value() const { return hash_; }

 private:
  void MixByte(unsigned char b) {
    hash_ ^= b;
    hash_ *= 1099511628211ull;
  }
  uint64_t hash_ = 14695981039346656037ull;
};

std::string Hex(uint64_t value);

/// Recomputes `solution` on `instance` (whose ΔV must be the request's) with
/// EvaluateDeletion: every ΔV tuple must be eliminated and the recomputed
/// weighted side effect must equal the reported cost. Returns "" when the
/// answer checks out, else what is wrong.
std::string VerifyAnswer(const delprop::VseInstance& instance,
                         const delprop::VseSolution& solution);

/// Counts one answered operation: an error status or an ilp solve that hit
/// its wall-clock deadline fails it; a verification `problem` fails it and
/// makes the run incorrect. `context` prefixes the messages.
void CountAnswer(const delprop::Result<delprop::VseSolution>& result,
                 const std::string& problem, const std::string& context,
                 Report* report);

/// Peak resident set of this process in MiB (getrusage).
double PeakRssMb();

/// Stratified draw in [lo, hi]: the k-th value of a golden-ratio sequence
/// started at `offset` (in [0, 1)). Every run of a workload sees the same
/// size distribution, whatever its seed, so medians stay comparable.
size_t Stratified(uint64_t k, double offset, size_t lo, size_t hi);

/// Round-robin pinning of the calling thread over the CPUs the process may
/// use. Cores of a shared host run at different speeds (up to ~15% apart
/// here), so single-threaded phases call Next() at fixed points of their
/// work and every run sees the same mix of cores. The destructor restores
/// the original CPU set. A no-op where affinity is unavailable.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void Next();
  /// Back to every allowed CPU (threads created while pinned would inherit
  /// the single-CPU set).
  void Restore();

 private:
  std::vector<int> cpus_;
  size_t next_ = 0;
};

/// Prints the host/build block (one JSON line on stdout) and writes the
/// full record, host block included, to
/// `<out_dir>/<workload>-seed<seed>-trace<0|1>.json` when out_dir is set.
void EmitHostBlock(const RunConfig& config, const Report& report);

/// The last line of stdout: {"correct", "attempted", "failed", "metrics"}.
void EmitResultLine(const Report& report);

}  // namespace perfbench

#endif  // DELPROP_PERFBENCH_BENCH_H_
