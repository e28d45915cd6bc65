#include "bench.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "dp/side_effect.h"
#include "relational/tuple_ref.h"

namespace perfbench {

void Report::Param(const std::string& key, double value) {
  char text[64];
  std::snprintf(text, sizeof(text), "%.10g", value);
  params_[key] = text;
}

void Report::CountOp(bool ok, const std::string& why) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (messages_ < 10) {
    ++messages_;
    std::fprintf(stderr, "failed operation: %s\n", why.c_str());
  }
}

void Report::Incorrect(const std::string& why) {
  correct_ = false;
  if (messages_ < 10) {
    ++messages_;
    std::fprintf(stderr, "incorrect: %s\n", why.c_str());
  }
}

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  double rank = std::ceil(q * static_cast<double>(samples.size()));
  size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}

double Sum(const std::vector<double>& samples) {
  double total = 0.0;
  for (double s : samples) total += s;
  return total;
}

size_t CountBeyond(const std::vector<double>& samples, double q) {
  double cut = Percentile(samples, q);
  return static_cast<size_t>(
      std::count_if(samples.begin(), samples.end(),
                    [cut](double s) { return s > cut; }));
}

void Fingerprint::Mix(const std::string& text) {
  for (char c : text) MixByte(static_cast<unsigned char>(c));
  MixByte(0);
}

void Fingerprint::Mix(uint64_t value) {
  for (int i = 0; i < 8; ++i) MixByte((value >> (8 * i)) & 0xFF);
}

void Fingerprint::Mix(const delprop::Status& status) {
  Mix(std::string(delprop::StatusCodeName(status.code())));
}

void Fingerprint::Mix(const delprop::Result<delprop::VseSolution>& result) {
  if (!result.ok()) {
    Mix(result.status());
    return;
  }
  Mix(std::string("OK"));
  Mix(result->solver_name);
  char cost[32];
  std::snprintf(cost, sizeof(cost), "%.9g", result->Cost());
  Mix(std::string(cost));
  for (const delprop::TupleRef& ref : result->deletion.Sorted()) {
    Mix(static_cast<uint64_t>(ref.relation));
    Mix(static_cast<uint64_t>(ref.row));
  }
}

std::string Hex(uint64_t value) {
  char text[20];
  std::snprintf(text, sizeof(text), "%016llx",
                static_cast<unsigned long long>(value));
  return text;
}

std::string VerifyAnswer(const delprop::VseInstance& instance,
                         const delprop::VseSolution& solution) {
  delprop::SideEffectReport report =
      delprop::EvaluateDeletion(instance, solution.deletion);
  if (!report.eliminates_all_deletions) {
    return solution.solver_name + ": " +
           std::to_string(report.surviving_deletions.size()) +
           " ΔV tuples survive";
  }
  double cost = solution.Cost();
  if (std::abs(report.side_effect_weight - cost) >
      1e-9 * std::max(1.0, std::abs(cost))) {
    char text[160];
    std::snprintf(text, sizeof(text), ": reported cost %.9g, recomputed %.9g",
                  cost, report.side_effect_weight);
    return solution.solver_name + text;
  }
  return "";
}

void CountAnswer(const delprop::Result<delprop::VseSolution>& result,
                 const std::string& problem, const std::string& context,
                 Report* report) {
  if (!result.ok()) {
    report->CountOp(false, context + ": " + result.status().ToString());
  } else if (result->gap.deadline_hit) {
    // The answer then depends on the host's speed.
    report->CountOp(false, context + ": ilp hit its registry deadline");
  } else if (!problem.empty()) {
    report->Incorrect(context + ": " + problem);
    report->CountOp(false, context + ": " + problem);
  } else {
    report->CountOp(true);
  }
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

CpuRotation::CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus_.push_back(cpu);
  }
}

CpuRotation::~CpuRotation() { Restore(); }

void CpuRotation::Restore() {
  if (cpus_.size() < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus_) CPU_SET(cpu, &set);
  (void)sched_setaffinity(0, sizeof(set), &set);
}

void CpuRotation::Next() {
  if (cpus_.size() < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus_[next_++ % cpus_.size()], &set);
  (void)sched_setaffinity(0, sizeof(set), &set);
}

size_t Stratified(uint64_t k, double offset, size_t lo, size_t hi) {
  constexpr double kGolden = 0.6180339887498949;
  double u = offset + kGolden * static_cast<double>(k);
  u -= std::floor(u);
  size_t span = hi - lo + 1;
  return lo + std::min(span - 1, static_cast<size_t>(u * static_cast<double>(span)));
}

namespace {

std::string JsonEscape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

// CPU brand string and last-level cache size from CPUID, so the host block
// needs no file outside the checkout.
std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {0};
  unsigned int max_ext = __get_cpuid_max(0x80000000u, nullptr);
  if (max_ext < 0x80000004u) return "unknown";
  for (unsigned int i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  char brand[49] = {0};
  std::memcpy(brand, regs, 48);
  std::string model(brand);
  size_t first = model.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : model.substr(first);
#else
  return "unknown";
#endif
}

double LastLevelCacheMiB() {
#if defined(__x86_64__) || defined(__i386__)
  // Deterministic cache parameters: leaf 4 (Intel) or 0x8000001D (AMD).
  for (unsigned int leaf : {4u, 0x8000001Du}) {
    unsigned int max_leaf = __get_cpuid_max(leaf & 0x80000000u, nullptr);
    if (max_leaf < leaf) continue;
    double best = 0.0;
    unsigned int best_level = 0;
    for (unsigned int sub = 0; sub < 16; ++sub) {
      unsigned int a = 0, b = 0, c = 0, d = 0;
      __cpuid_count(leaf, sub, a, b, c, d);
      if ((a & 0x1F) == 0) break;  // no more caches
      unsigned int level = (a >> 5) & 0x7;
      double bytes = static_cast<double>(((b >> 22) & 0x3FF) + 1) *
                     static_cast<double>(((b >> 12) & 0x3FF) + 1) *
                     static_cast<double>((b & 0xFFF) + 1) *
                     static_cast<double>(c + 1);
      if (level >= best_level) {
        best_level = level;
        best = bytes;
      }
    }
    if (best > 0.0) return best / (1024.0 * 1024.0);
  }
#endif
  return 0.0;
}

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

}  // namespace

void EmitHostBlock(const RunConfig& config, const Report& report) {
  std::string host = "{\"nproc\": " +
                     std::to_string(std::thread::hardware_concurrency()) +
                     ", \"cpu\": \"" + JsonEscape(CpuModel()) + "\"";
  char llc[32];
  std::snprintf(llc, sizeof(llc), "%.1f", LastLevelCacheMiB());
  host += std::string(", \"llc_mib\": ") + llc;
  host += std::string(", \"compiler\": \"") + JsonEscape(PERFBENCH_COMPILER) +
          " (" + JsonEscape(__VERSION__) + ")\"";
  host += std::string(", \"build_type\": \"") +
          JsonEscape(PERFBENCH_BUILD_TYPE) + "\"";
  host += ", \"git\": \"" + JsonEscape(config.git) + "\"";
  host += ", \"workload\": \"" + JsonEscape(config.workload) + "\"";
  host += ", \"seed\": " + std::to_string(config.seed);
  host += std::string(", \"trace\": ") + (config.trace ? "1" : "0");
  host += std::string(", \"smoke\": ") + (config.smoke ? "true" : "false");
  host += ", \"params\": {";
  bool first = true;
  for (const auto& [key, value] : report.params()) {
    host += (first ? "\"" : ", \"") + JsonEscape(key) + "\": \"" +
            JsonEscape(value) + "\"";
    first = false;
  }
  host += "}}";
  std::printf("host: %s\n", host.c_str());
  if (config.out_dir.empty()) return;

  std::string path = config.out_dir + "/" + config.workload + "-seed" +
                     std::to_string(config.seed) + "-trace" +
                     (config.trace ? "1" : "0") + ".json";
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return;
  std::fprintf(out, "{\"host\": %s, \"correct\": %s, \"attempted\": %llu, "
               "\"failed\": %llu, \"metrics\": {",
               host.c_str(), report.correct() ? "true" : "false",
               static_cast<unsigned long long>(report.attempted()),
               static_cast<unsigned long long>(report.failed()));
  first = true;
  for (const auto& [name, metric] : report.metrics()) {
    std::fprintf(out, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                 first ? "" : ", ", JsonEscape(name).c_str(), metric.value,
                 JsonEscape(metric.unit).c_str());
    first = false;
  }
  std::fprintf(out, "}}\n");
  std::fclose(out);
}

void EmitResultLine(const Report& report) {
  std::string line = std::string("{\"correct\": ") +
                     (report.correct() ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(report.attempted()) +
                     ", \"failed\": " + std::to_string(report.failed()) +
                     ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : report.metrics()) {
    char value[40];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metric.value) ? metric.value : 0.0);
    line += (first ? "\"" : ", \"") + JsonEscape(name) +
            "\": {\"value\": " + value + ", \"unit\": \"" +
            JsonEscape(metric.unit) + "\"}";
    first = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
