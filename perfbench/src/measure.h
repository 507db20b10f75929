// Measurement plumbing shared by the benchmark's workloads: wall timers,
// order statistics, the layer trace, and the one-line JSON result.
//
// The layer trace lives entirely in the benchmark: a workload wraps each
// call it makes into a module of src/ in a Span, which adds the call's wall
// time to the named layer. Nothing inside src/ is instrumented for it, and
// the program's own observability layer (src/obs) stays runtime-disabled
// unless a workload switches it on to measure its cost.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Order statistics over a copy of `values` (empty input gives 0). Quantile
// interpolates linearly between closest ranks.
double Quantile(std::vector<double> values, double q);
inline double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}
// The highest percentile that still has at least ten samples beyond it (the
// p99 from 1000 samples on); the maximum below 20 samples.
double TailQuantile(const std::vector<double>& values);

// The fastest time seen for each component of a repeated operation (the
// cells of a campaign, the two runs of a fleet pair). Interference from the
// host only ever adds time, and on a shared host it comes in stretches of
// seconds to minutes, so a component's fastest repetition is its steadiest
// estimate of what the program itself costs; a median over one run still
// carries whichever stretch the run fell into.
class Floors {
 public:
  // Records one repetition: seconds[i] is component i's time.
  void Add(const std::vector<double>& seconds);
  std::size_t repetitions() const { return repetitions_; }
  // Each component's fastest time, in ms.
  std::vector<double> ComponentsMs() const;
  // The operation's time with every component at its fastest, in s.
  double TotalSeconds() const;

 private:
  std::vector<double> floors_;
  std::size_t repetitions_ = 0;
};

// The host-speed reference kernel: a fixed loop of integer work and cache
// traffic over a 4 MiB table, calling nothing in src/. Start allocates the
// table; call it first thing, so that the table is resident for the whole
// run and PeakRssMb can leave it out exactly. ReferenceKernelSeconds, valid
// after Start, runs the kernel once and returns its time.
void StartReferenceKernel();
double ReferenceKernelSeconds();

// Pins the calling thread, and every thread it starts from then on, to the
// core it is running on. False if the host refused.
bool PinToCurrentCore();

// The speed of one core over one run, from the reference kernel run between
// the workload's repetitions, for a workload that runs on one thread pinned
// to that core. On a shared host the other tenants slow a core's caches for
// stretches of seconds to minutes, and the workload's fastest repetition
// moves with them (by up to 30% between runs minutes apart); the kernel's
// fastest time on the same core through the same stretch moves the same
// way. Factor() rescales a time measured in the run to the time on a
// nominal core, whose kernel takes kNominalKernelS: nominal over the
// kernel's fastest time in the run.
class HostSpeed {
 public:
  static constexpr double kNominalKernelS = 12.5e-3;
  void Sample() { samples_s_.push_back(ReferenceKernelSeconds()); }
  double Factor() const;

 private:
  std::vector<double> samples_s_;
};

// Peak resident set size of this process, in MiB, less the reference
// kernel's table.
double PeakRssMb();

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

// Busy time, call count and per-call samples of one layer.
struct Layer {
  double busy_s = 0.0;
  std::uint64_t calls = 0;
  std::vector<double> samples_ms;
};

// The layer trace of one traced pass. Top-level spans never overlap, so
// their busy time over the pass's wall time is the share the trace
// accounts for (bench.coverage).
class LayerTrace {
 public:
  double Busy(const std::string& name) const;
  std::uint64_t Calls(const std::string& name) const;
  std::vector<double> Samples(const std::string& name) const;
  // Adds one call of `seconds` to the layer; a top-level call also counts
  // towards top_level_busy_s().
  void Record(const std::string& name, double seconds, bool top_level);
  // Sum of busy time over the top-level spans recorded so far.
  double top_level_busy_s() const { return top_level_busy_s_; }

 private:
  std::map<std::string, Layer> layers_;
  double top_level_busy_s_ = 0.0;
};

// Times one call into a layer. A top-level span also counts towards the
// pass's coverage; a nested span (one inside another span of the same
// pass) only towards its own layer.
class Span {
 public:
  enum Level { kTopLevel, kNested };
  Span(LayerTrace* trace, const char* layer, Level level = kTopLevel)
      : trace_(trace), layer_(layer), level_(level), start_(Clock::now()) {}
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  LayerTrace* trace_;
  const char* layer_;
  Level level_;
  Clock::time_point start_;
};

// The result line: correctness verdict, operation counts and metrics.
class Result {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  bool Has(const std::string& name) const;
  std::vector<std::string> names() const;
  // Records one checked operation; a failed one clears `correct`.
  void Check(bool ok, const std::string& what);
  void CountOps(std::uint64_t attempted, std::uint64_t failed);
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  // Prints the one-line JSON object as the last line of stdout.
  void Print() const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool correct_ = true;
};

// What the run achieved, judged against its reference (CLOVER vs BASE, or
// carbon-greedy vs static routing). Deterministic per seed.
struct Outcome {
  double carbon_rel_pct = 0.0;
  double accuracy_rel_pct = 0.0;
  double p95_norm = 0.0;
  double slo_attainment_pct = 0.0;
};
// Untraced runs report the carbon and accuracy ratios (end-to-end); traced
// runs report p95_norm and SLO attainment, whose seed-to-seed spread is too
// wide for an end-to-end bound (see README.md).
void AddOutcome(const Outcome& outcome, bool trace, Result* result);

// Adds every per-layer metric of the catalogue that the workload left
// unset, with value 0: a traced run prints the whole catalogue, and a layer
// that does no work on a workload reads 0 there.
void AddMissingLayerMetrics(Result* result);
// True when the result holds exactly the end-to-end catalogue (untraced)
// or exactly the per-layer catalogue (traced).
bool MetricsMatchCatalogue(const Result& result, bool trace);

// Workload entry points; each fills `result` and returns normally even
// when a check fails (the failure is in the result).
void RunPaperCells(const Args& args, Result* result);
void RunLiveReplay(const Args& args, Result* result);
void RunGeoFleet(const Args& args, Result* result);
void RunPlanetFleet(const Args& args, Result* result);

// Scratch directory for files a workload writes (campaign journals), under
// the checkout's build directory; created on demand.
std::string ScratchDir(const std::string& workload);

}  // namespace perfbench
