#include "measure.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <set>
#include <utility>

namespace perfbench {
namespace {

// The per-layer catalogue printed by every traced run (BENCHMARK.json's
// per_layer list, in the same order).
const std::vector<std::pair<std::string, std::string>>& LayerCatalogue() {
  static const std::vector<std::pair<std::string, std::string>> kCatalogue =
      [] {
        std::vector<std::pair<std::string, std::string>> names = {
            {"sim.advance_s", "s"},
            {"sim.events", "count"},
            {"sim.ns_per_event", "ns"},
            {"core.calibrate_s", "s"},
            {"core.step_s", "s"},
            {"core.invocations", "count"},
            {"core.invocation_ms.p50", "ms"},
            {"core.invocation_ms.tail", "ms"},
            {"opt.evaluations", "count"},
            {"opt.screened", "count"},
            {"opt.cache_hit_ratio", "ratio"},
            {"core.report_s", "s"},
            {"exp.journal_s", "s"},
            {"exp.fold_s", "s"},
            {"carbon.trace_s", "s"},
            {"core.live_control_ms.p50", "ms"},
            {"core.live_control_ms.tail", "ms"},
            {"core.live_control_ms.max", "ms"},
            {"core.live_boundaries", "count"},
            {"serving.batches", "count"},
            {"serving.batch_fill", "req"},
            {"net.admitted", "count"},
            {"net.shed", "count"},
            {"serving.start_s", "s"},
            {"serving.stop_s", "s"},
            {"fleet.step_ms.p50", "ms"},
            {"fleet.step_ms.tail", "ms"},
            {"fleet.route_us", "us"},
            {"fleet.pool_speedup", "x"},
            {"fleet.meanfield_s", "s"},
            {"fleet.regions", "count"},
            {"obs.overhead_pct", "%"},
            {"bench.p95_norm", "ratio"},
            {"bench.slo_attainment_pct", "%"},
            {"bench.coverage", "ratio"},
            {"bench.trace_overhead_pct", "%"},
            {"bench.live_p50_ms.lo", "ms"},
            {"bench.live_p99_ms.lo", "ms"},
            {"bench.live_p50_ms.hi", "ms"},
            {"bench.live_p99_ms.hi", "ms"},
            {"bench.live_max_qps", "1/s"},
        };
        for (const char* phase : {"lo", "mid", "hi"}) {
          const std::string prefix = std::string("bench.") + phase + ".";
          names.push_back({prefix + "sent", "count"});
          names.push_back({prefix + "ok", "count"});
          names.push_back({prefix + "failed", "count"});
          names.push_back({prefix + "gen_late_ms.p99", "ms"});
          names.push_back({prefix + "gen_late_ms.max", "ms"});
          names.push_back({prefix + "outstanding_max", "count"});
        }
        return names;
      }();
  return kCatalogue;
}

void PrintJsonString(const std::string& text) {
  std::cout << '"';
  for (const char c : text) {
    if (c == '"' || c == '\\') std::cout << '\\';
    std::cout << c;
  }
  std::cout << '"';
}

}  // namespace

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double TailQuantile(const std::vector<double>& values) {
  const double n = static_cast<double>(values.size());
  if (n >= 1000.0) return Quantile(values, 0.99);
  if (n >= 20.0) return Quantile(values, 1.0 - 10.0 / n);
  return Quantile(values, 1.0);
}

void Floors::Add(const std::vector<double>& seconds) {
  if (repetitions_++ == 0) {
    floors_ = seconds;
    return;
  }
  for (std::size_t i = 0; i < floors_.size() && i < seconds.size(); ++i)
    floors_[i] = std::min(floors_[i], seconds[i]);
}

std::vector<double> Floors::ComponentsMs() const {
  std::vector<double> out;
  for (const double seconds : floors_) out.push_back(seconds * 1e3);
  return out;
}

double Floors::TotalSeconds() const {
  double total = 0.0;
  for (const double seconds : floors_) total += seconds;
  return total;
}

namespace {

// The reference kernel's table: 4 MiB of counters, allocated and touched
// once by StartReferenceKernel, then resident for the rest of the process.
std::vector<std::uint64_t>& KernelTable() {
  static std::vector<std::uint64_t> table;
  return table;
}

}  // namespace

void StartReferenceKernel() {
  KernelTable().assign(std::size_t{1} << 19, 0);
}

double ReferenceKernelSeconds() {
  // Counters hit at pseudo-random slots: integer work plus L2/L3 traffic,
  // the two things the host's other tenants slow down (a table that fits in
  // L2 did not slow with them).
  std::vector<std::uint64_t>& table = KernelTable();
  std::uint64_t x = 88172645463325252ull;
  std::uint64_t sum = 0;
  const std::size_t mask = table.size() - 1;
  const auto start = Clock::now();
  for (int i = 0; i < 3000000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    sum += table[x & mask]++;
  }
  const double seconds = SecondsSince(start);
  table[0] += sum & 1;  // keeps the loop's result live
  return seconds;
}

bool PinToCurrentCore() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0;
}

double HostSpeed::Factor() const {
  return samples_s_.empty()
             ? 1.0
             : kNominalKernelS /
                   *std::min_element(samples_s_.begin(), samples_s_.end());
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double table_mb = static_cast<double>(KernelTable().size() *
                                              sizeof(std::uint64_t)) /
                          (1024.0 * 1024.0);
  return static_cast<double>(usage.ru_maxrss) / 1024.0 -  // KiB on Linux
         table_mb;
}

double LayerTrace::Busy(const std::string& name) const {
  const auto it = layers_.find(name);
  return it == layers_.end() ? 0.0 : it->second.busy_s;
}

std::uint64_t LayerTrace::Calls(const std::string& name) const {
  const auto it = layers_.find(name);
  return it == layers_.end() ? 0 : it->second.calls;
}

std::vector<double> LayerTrace::Samples(const std::string& name) const {
  const auto it = layers_.find(name);
  return it == layers_.end() ? std::vector<double>{} : it->second.samples_ms;
}

void LayerTrace::Record(const std::string& name, double seconds,
                        bool top_level) {
  Layer& layer = layers_[name];
  layer.busy_s += seconds;
  ++layer.calls;
  layer.samples_ms.push_back(seconds * 1e3);
  if (top_level) top_level_busy_s_ += seconds;
}

Span::~Span() {
  trace_->Record(layer_, SecondsSince(start_), level_ == kTopLevel);
}

bool Result::Has(const std::string& name) const {
  for (const Metric& metric : metrics_)
    if (metric.name == name) return true;
  return false;
}

std::vector<std::string> Result::names() const {
  std::vector<std::string> out;
  for (const Metric& metric : metrics_) out.push_back(metric.name);
  return out;
}

void Result::Add(const std::string& name, double value,
                 const std::string& unit) {
  for (Metric& metric : metrics_) {
    if (metric.name == name) {
      metric.value = value;
      metric.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

void Result::Check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    correct_ = false;
    std::cerr << "perfbench: check failed: " << what << "\n";
  }
}

void Result::CountOps(std::uint64_t attempted, std::uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
  if (failed > 0) correct_ = false;
}

void Result::Print() const {
  std::cout.flush();
  std::cout << "{\"correct\": " << (correct_ ? "true" : "false")
            << ", \"attempted\": " << std::max<std::uint64_t>(attempted_, 1)
            << ", \"failed\": " << failed_ << ", \"metrics\": {";
  bool first = true;
  for (const Metric& metric : metrics_) {
    if (!first) std::cout << ", ";
    first = false;
    PrintJsonString(metric.name);
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metric.value) ? metric.value : 0.0);
    std::cout << ": {\"value\": " << value << ", \"unit\": ";
    PrintJsonString(metric.unit);
    std::cout << "}";
  }
  std::cout << "}}" << std::endl;
}

void AddOutcome(const Outcome& outcome, bool trace, Result* result) {
  if (trace) {
    result->Add("bench.p95_norm", outcome.p95_norm, "ratio");
    result->Add("bench.slo_attainment_pct", outcome.slo_attainment_pct, "%");
  } else {
    result->Add("carbon_rel_pct", outcome.carbon_rel_pct, "%");
    result->Add("accuracy_rel_pct", outcome.accuracy_rel_pct, "%");
  }
}

void AddMissingLayerMetrics(Result* result) {
  for (const auto& [name, unit] : LayerCatalogue())
    if (!result->Has(name)) result->Add(name, 0.0, unit);
}

bool MetricsMatchCatalogue(const Result& result, bool trace) {
  // BENCHMARK.json's end_to_end list.
  static const std::vector<std::string> kEndToEnd = {
      "setup_s",          "served_per_s", "region_h_per_s",
      "carbon_rel_pct",   "accuracy_rel_pct", "op_p50_ms",
      "op_tail_ms",       "ok_ratio",     "peak_rss_mb"};
  std::set<std::string> expected;
  if (trace) {
    for (const auto& entry : LayerCatalogue()) expected.insert(entry.first);
  } else {
    expected.insert(kEndToEnd.begin(), kEndToEnd.end());
  }
  std::set<std::string> got;
  for (const std::string& name : result.names()) got.insert(name);
  return got == expected;
}

std::string ScratchDir(const std::string& workload) {
  const std::string dir = ".bench_build/perfbench-out/" + workload;
  std::filesystem::create_directories(dir);
  return dir;
}

}  // namespace perfbench
