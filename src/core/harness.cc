#include "core/harness.h"

#include <chrono>
#include <cmath>

#include "common/check.h"
#include "common/units.h"
#include "perf/calibration.h"
#include "sim/arrivals.h"

namespace clover::core {

double RunReport::CarbonSavePctVs(const RunReport& base) const {
  CLOVER_CHECK(base.total_carbon_g > 0.0);
  return (base.total_carbon_g - total_carbon_g) / base.total_carbon_g * 100.0;
}

double RunReport::AccuracyLossPctVs(const RunReport& base) const {
  CLOVER_CHECK(base.weighted_accuracy > 0.0);
  return (base.weighted_accuracy - weighted_accuracy) /
         base.weighted_accuracy * 100.0;
}

double RunReport::P95NormVs(const RunReport& base) const {
  CLOVER_CHECK(base.overall_p95_ms > 0.0);
  return overall_p95_ms / base.overall_p95_ms;
}

namespace {

// Both fidelity tiers expose the same report taps; one template keeps the
// fills from drifting apart.
template <typename Sim>
void FillRunReportFromSimImpl(const Sim& sim,
                              const opt::ObjectiveParams& params,
                              double fallback_energy_per_request_j,
                              RunReport* report) {
  report->arrivals = sim.total_arrivals();
  report->completions = sim.total_completions();
  report->total_energy_j = sim.total_energy_j();
  report->total_carbon_g = sim.total_carbon_g();
  report->weighted_accuracy = sim.OverallWeightedAccuracy();
  report->overall_p50_ms = sim.OverallQuantileMs(0.50);
  report->overall_p95_ms = sim.OverallP95Ms();
  report->overall_p99_ms = sim.OverallQuantileMs(0.99);
  report->sim_events = sim.total_arrivals() + sim.total_completions();
  report->carbon_per_request_g =
      report->completions
          ? report->total_carbon_g / static_cast<double>(report->completions)
          : 0.0;
  report->windows = sim.windows();
  report->objective_series.clear();
  report->objective_series.reserve(report->windows.size());
  for (const sim::WindowRecord& window : report->windows) {
    opt::EvalMetrics metrics;
    metrics.accuracy = window.weighted_accuracy;
    metrics.energy_per_request_j =
        window.completions
            ? window.energy_j / static_cast<double>(window.completions)
            : fallback_energy_per_request_j;
    metrics.p95_ms = window.p95_ms;
    report->objective_series.push_back(
        opt::ObjectiveF(metrics, params, window.ci));
  }
}

}  // namespace

void FillRunReportFromSim(const sim::ClusterSim& sim,
                          const opt::ObjectiveParams& params,
                          double fallback_energy_per_request_j,
                          RunReport* report) {
  FillRunReportFromSimImpl(sim, params, fallback_energy_per_request_j,
                           report);
}

void FillRunReportFromSim(const sim::MeanFieldSim& sim,
                          const opt::ObjectiveParams& params,
                          double fallback_energy_per_request_j,
                          RunReport* report) {
  FillRunReportFromSimImpl(sim, params, fallback_energy_per_request_j,
                           report);
}

bool RunReportsBitIdentical(const RunReport& a, const RunReport& b) {
  return a.arrivals == b.arrivals && a.completions == b.completions &&
         a.total_energy_j == b.total_energy_j &&
         a.total_carbon_g == b.total_carbon_g &&
         a.weighted_accuracy == b.weighted_accuracy &&
         a.overall_p50_ms == b.overall_p50_ms &&
         a.overall_p95_ms == b.overall_p95_ms &&
         a.overall_p99_ms == b.overall_p99_ms &&
         a.optimizations.size() == b.optimizations.size() &&
         a.objective_series == b.objective_series;
}

ExperimentHarness::ExperimentHarness(const models::ModelZoo* zoo)
    : zoo_(zoo) {
  CLOVER_CHECK(zoo_ != nullptr);
}

const BaselineCalibration& ExperimentHarness::Calibrate(
    models::Application app, int sizing_gpus, double utilization_target,
    std::optional<double> rate_override, std::uint64_t seed) {
  const double rate =
      rate_override.value_or(sim::SizeArrivalRate(*zoo_, app, sizing_gpus,
                                                  utilization_target));
  const auto key = std::make_tuple(static_cast<int>(app), sizing_gpus,
                                   static_cast<int>(std::lround(rate * 100)),
                                   seed);
  auto it = calibration_cache_.find(key);
  if (it != calibration_cache_.end()) return it->second;

  // Calibration run: BASE deployment, flat trace, 10-minute warmup then a
  // 30-minute measurement. The p95 of this run defines the SLA target.
  static const carbon::CarbonTrace kFlatTrace(
      "calibration", 3600.0, std::vector<double>(48, 250.0));
  serving::Deployment base = serving::MakeBase(app, sizing_gpus);
  sim::SimOptions options;
  options.arrival_rate_qps = rate;
  options.window_seconds = 300.0;
  options.seed = seed;
  sim::ClusterSim sim(base, *zoo_, &kFlatTrace, options);
  sim.AdvanceTo(MinutesToSeconds(10));
  const sim::Measurement measurement = sim.Measure(MinutesToSeconds(30));
  CLOVER_CHECK_MSG(measurement.completions > 0,
                   "calibration run served no requests");

  BaselineCalibration calibration;
  calibration.arrival_rate_qps = rate;
  calibration.l_tail_ms = measurement.p95_ms;
  calibration.energy_per_request_j = measurement.energy_per_request_j;
  calibration.a_base = measurement.weighted_accuracy;
  return calibration_cache_.emplace(key, calibration).first->second;
}

Oracle& ExperimentHarness::OracleFor(models::Application app, int num_gpus,
                                     double arrival_rate_qps,
                                     std::uint64_t seed) {
  const auto key =
      std::make_tuple(static_cast<int>(app), num_gpus,
                      static_cast<int>(std::lround(arrival_rate_qps * 100)),
                      seed);
  auto it = oracle_cache_.find(key);
  if (it == oracle_cache_.end()) {
    it = oracle_cache_
             .emplace(std::piecewise_construct, std::forward_as_tuple(key),
                      std::forward_as_tuple(zoo_, app, num_gpus,
                                            arrival_rate_qps, seed))
             .first;
    it->second.Profile();
  }
  return it->second;
}

std::vector<double> ControlBoundaries(double interval_s, double duration_s) {
  CLOVER_CHECK(interval_s > 0.0);
  std::vector<double> boundaries;
  for (double t = interval_s; t <= duration_s + 1e-9; t += interval_s)
    boundaries.push_back(t);
  return boundaries;
}

RunReport ExperimentHarness::Run(const ExperimentConfig& config,
                                 const BoundaryObserver& observer) {
  const auto wall_start = std::chrono::steady_clock::now();
  const BaselineCalibration& calibration =
      Calibrate(config.app, config.sizing_gpus, config.utilization_target,
                config.arrival_rate_qps, config.seed);
  Oracle* oracle = config.scheme == Scheme::kOracle
                       ? &OracleFor(config.app, config.num_gpus,
                                    calibration.arrival_rate_qps, config.seed)
                       : nullptr;
  RunReport report =
      RunCalibrated(*zoo_, config, calibration, oracle, observer);
  report.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  return report;
}

RunReport RunCalibrated(const models::ModelZoo& zoo,
                        const ExperimentConfig& config,
                        const BaselineCalibration& calibration, Oracle* oracle,
                        const BoundaryObserver& observer) {
  CLOVER_CHECK(config.trace != nullptr);
  CLOVER_CHECK((oracle != nullptr) == (config.scheme == Scheme::kOracle));
  // Carbon-feed dropouts are repaired up front (last observation carried
  // forward, sim/fault_injector.h): the controller, accountant and oracle
  // all see the held reading, the way a production deployment would.
  std::optional<carbon::CarbonTrace> repaired_trace;
  const carbon::CarbonTrace* trace = config.trace;
  if (!config.faults.trace_dropouts.empty()) {
    repaired_trace = sim::ApplyTraceDropouts(*config.trace,
                                             config.faults.trace_dropouts);
    trace = &*repaired_trace;
  }

  opt::ObjectiveParams params;
  params.lambda = config.lambda;
  params.a_base = calibration.a_base;
  params.c_base_g = CarbonGrams(calibration.energy_per_request_j,
                                config.ci_base, perf::kPue);
  params.l_tail_ms = calibration.l_tail_ms;
  params.pue = perf::kPue;
  params.max_accuracy_loss_pct = config.accuracy_limit_pct;

  // Initial deployment per scheme (all schemes start at the paper's default
  // configuration except CO2OPT, which is statically defined).
  serving::Deployment initial = serving::MakeBase(config.app, config.num_gpus);
  if (config.scheme == Scheme::kCo2Opt) {
    initial = serving::MakeCo2Opt(config.app, config.num_gpus, zoo);
  } else if (config.scheme == Scheme::kOracle) {
    graph::GraphMapper mapper(&zoo, config.num_gpus);
    const OracleEntry& entry = oracle->Select(params, trace->At(0.0));
    const auto deployment = mapper.ToDeployment(entry.graph);
    CLOVER_CHECK(deployment.has_value());
    initial = *deployment;
  }

  sim::SimOptions sim_options;
  sim_options.arrival_rate_qps = calibration.arrival_rate_qps;
  sim_options.window_seconds = config.control_interval_s;
  sim_options.seed = config.seed;
  sim_options.burst = config.burst;
  sim_options.faults = config.faults;
  if (config.service_jitter_sigma.has_value())
    sim_options.service_jitter_sigma = *config.service_jitter_sigma;
  sim::ClusterSim sim(initial, zoo, trace, sim_options);

  std::unique_ptr<Controller> controller;
  if (config.scheme == Scheme::kClover || config.scheme == Scheme::kBlover) {
    Controller::Options controller_options = config.controller;
    controller_options.scheme = config.scheme;
    controller_options.seed = config.seed;
    controller = std::make_unique<Controller>(&sim, &zoo, trace, params,
                                              controller_options);
  }
  carbon::CarbonMonitor oracle_monitor(trace, config.controller.ci_trigger);
  graph::GraphMapper oracle_mapper(&zoo, config.num_gpus);
  const mig::RepartitionCostModel kFreeReconfig{0.0, 0.0, 0.0};
  if (config.scheme == Scheme::kOracle)
    oracle_monitor.AcknowledgeOptimization(0.0);

  // Control loop. An optimization invocation may overrun the control
  // interval (its evaluations advance simulated time), so each step only
  // advances when the target is ahead of the clock.
  const double duration_s = HoursToSeconds(config.duration_hours);
  bool stopped = false;
  for (const double t : ControlBoundaries(config.control_interval_s,
                                          duration_s)) {
    const double target = std::min(t, duration_s);
    if (target > sim.now()) sim.AdvanceTo(target);
    if (controller != nullptr) {
      controller->Step();
    } else if (config.scheme == Scheme::kOracle &&
               oracle_monitor.ShouldReoptimize(sim.now())) {
      const OracleEntry& entry =
          oracle->Select(params, oracle_monitor.IntensityAt(sim.now()));
      const auto deployment = oracle_mapper.ToDeployment(entry.graph);
      CLOVER_CHECK(deployment.has_value());
      sim.ApplyDeployment(*deployment, kFreeReconfig);
      oracle_monitor.AcknowledgeOptimization(sim.now());
    }
    if (observer && !observer(target, sim)) {
      stopped = true;
      break;
    }
  }
  if (!stopped && duration_s > sim.now()) sim.AdvanceTo(duration_s);

  // Assemble the report.
  RunReport report;
  report.app = config.app;
  report.scheme = config.scheme;
  report.arrival_rate_qps = calibration.arrival_rate_qps;
  report.params = params;
  FillRunReportFromSim(sim, params, calibration.energy_per_request_j,
                       &report);
  if (controller != nullptr) {
    report.optimizations = controller->history();
    report.optimization_seconds = controller->total_optimization_seconds();
    report.cache_hits = controller->cache_hits();
  }
  return report;
}

}  // namespace clover::core
