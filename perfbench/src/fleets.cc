// geo_fleet and planet_fleet: the multi-region paths.
//
// geo_fleet    fleet::RunFleet, CLOVER in each of the 4 region presets,
//              carbon-greedy and static routers, region fan-out over the
//              pool. The traced run replays RunFleet's steps twice: once
//              through FleetController at the run's thread count (fleet
//              step, router) and once as a serial per-region replay at one
//              thread (simulator vs controller split, and the 1-thread step
//              time behind fleet.pool_speedup). Both must equal RunFleet
//              bit for bit.
// planet_fleet fleet::RunFleetMeanField, the 4 presets tiled to 100 fluid
//              regions, static vs carbon-greedy. The traced run replays its
//              steps (trace generation, fluid advance, routing, fold) and
//              must equal RunFleetMeanField bit for bit.
#include <algorithm>
#include <deque>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "carbon/trace_generator.h"
#include "common/units.h"
#include "core/harness.h"
#include "exp/campaign.h"
#include "fleet/aggregate.h"
#include "fleet/fleet_controller.h"
#include "fleet/fleet_sim.h"
#include "fleet/meanfield_fleet.h"
#include "fleet/region.h"
#include "fleet/router.h"
#include "measure.h"
#include "models/zoo.h"
#include "perf/calibration.h"
#include "serving/deployment.h"
#include "sim/arrivals.h"
#include "sim/meanfield.h"

namespace perfbench {
namespace {

namespace fleet = clover::fleet;
using fleet::FleetConfig;
using fleet::FleetReport;
using fleet::RouterPolicy;

constexpr int kMinRepeats = 3;

constexpr int kGeoGpus = 4;
constexpr double kGeoHours = 6.0;
constexpr int kPlanetGpus = 2;
constexpr double kPlanetHours = 48.0;
constexpr int kPlanetReplicas = 25;

int FleetThreads() {
  return static_cast<int>(
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
}

std::vector<std::string> PresetNames() {
  std::vector<std::string> names;
  for (const clover::carbon::RegionPreset& preset :
       clover::carbon::NamedRegionPresets())
    names.push_back(preset.name);
  return names;
}

FleetConfig GeoConfig(std::uint64_t seed, RouterPolicy router, int threads) {
  FleetConfig config;
  config.app = clover::models::Application::kClassification;
  config.regions = fleet::RegionsFromPresets(PresetNames(), kGeoGpus);
  config.duration_hours = kGeoHours;
  config.scheme = clover::core::Scheme::kClover;
  config.router = router;
  config.seed = seed;
  config.threads = threads;
  return config;
}

// The 1000-region campaign cell (campaigns/fleet_1000region_toy.json) cut
// to 100 regions and lengthened to two days. At 1000 regions the run's
// 330 MB working set lives in the host's shared L3 and DRAM, and its speed
// swung by up to 1.7x with other tenants' memory traffic; run side by side
// in one stretch, 100 regions (37 MB) held within 2% where 1000 swung 10%.
FleetConfig PlanetConfig(std::uint64_t seed, RouterPolicy router) {
  clover::exp::CellSpec cell;
  cell.mode = clover::exp::CampaignMode::kFleet;
  cell.scheme = clover::core::Scheme::kBase;
  cell.app = clover::models::Application::kClassification;
  cell.regions = PresetNames();
  cell.router = router;
  cell.meanfield = true;
  cell.region_replicas = kPlanetReplicas;
  cell.gpus = kPlanetGpus;
  cell.hours = kPlanetHours;
  cell.seed = seed;
  return clover::exp::MakeFleetCellConfig(cell);
}

// Carbon-greedy judged against the static split over the same fleet.
Outcome FleetOutcome(const FleetReport& greedy, const FleetReport& fixed) {
  Outcome outcome;
  outcome.carbon_rel_pct = 100.0 - greedy.fleet.CarbonSavePctVs(fixed.fleet);
  outcome.accuracy_rel_pct =
      100.0 - greedy.fleet.AccuracyLossPctVs(fixed.fleet);
  outcome.p95_norm = greedy.fleet.P95NormVs(fixed.fleet);
  outcome.slo_attainment_pct = 100.0 * greedy.slo_attainment;
  return outcome;
}

// A fleet run pair (carbon-greedy, static) of one workload.
struct FleetPair {
  FleetReport greedy;
  FleetReport fixed;
};

using FleetRunner = FleetReport (*)(const FleetConfig&,
                                    const clover::models::ModelZoo&);

// Calibration anchored on region 0, as RunFleet and RunFleetMeanField do.
clover::core::BaselineCalibration Calibrate(
    clover::core::ExperimentHarness* harness, const FleetConfig& config) {
  return harness->Calibrate(config.app, config.regions[0].num_gpus,
                            /*utilization_target=*/0.75, std::nullopt,
                            config.seed);
}

clover::opt::ObjectiveParams FleetParams(
    const FleetConfig& config,
    const clover::core::BaselineCalibration& calibration) {
  clover::opt::ObjectiveParams params;
  params.lambda = config.lambda;
  params.a_base = calibration.a_base;
  params.c_base_g = clover::CarbonGrams(calibration.energy_per_request_j,
                                        config.ci_base, clover::perf::kPue);
  params.l_tail_ms = calibration.l_tail_ms;
  params.pue = clover::perf::kPue;
  return params;
}

double TotalQps(const FleetConfig& config,
                const clover::models::ModelZoo& zoo) {
  if (config.total_qps.has_value()) return *config.total_qps;
  double total = 0.0;
  for (const fleet::RegionConfig& region : config.regions)
    total += clover::sim::SizeArrivalRate(zoo, config.app, region.num_gpus,
                                          config.utilization_target);
  return total;
}

clover::carbon::TraceGeneratorOptions FleetTraceOptions(
    const FleetConfig& config) {
  clover::carbon::TraceGeneratorOptions options;
  options.duration_hours = config.duration_hours;
  options.seed = config.seed + 41;
  return options;
}

// Times every Split of the router it wraps (fleet.route, nested: routing
// runs inside the fleet step and the controller's construction).
class TimedRouter : public fleet::Router {
 public:
  TimedRouter(std::unique_ptr<fleet::Router> inner, LayerTrace* layers)
      : inner_(std::move(inner)), layers_(layers) {}
  const char* name() const override { return inner_->name(); }
  std::vector<double> Split(const std::vector<fleet::RegionSnapshot>& regions,
                            double total_qps,
                            const fleet::RouterOptions& options) override {
    Span span(layers_, "fleet.route", Span::kNested);
    return inner_->Split(regions, total_qps, options);
  }

 private:
  std::unique_ptr<fleet::Router> inner_;
  LayerTrace* layers_;
};

// Means of the routing weights over every rebalance, per region.
std::vector<double> MeanWeights(
    const std::vector<std::vector<double>>& history, std::size_t regions) {
  std::vector<double> mean(regions, 0.0);
  for (const std::vector<double>& weights : history)
    for (std::size_t i = 0; i < weights.size(); ++i) mean[i] += weights[i];
  for (double& w : mean) w /= static_cast<double>(history.size());
  return mean;
}

std::uint64_t FleetServed(const FleetPair& pair) {
  return pair.greedy.fleet.completions + pair.fixed.fleet.completions;
}

// Untraced measurement shared by both fleet workloads: (carbon-greedy,
// static) pairs for the run length, each run timed on its own, with one
// set-up before each pair. A fleet that runs on this thread alone
// (`one_core`) is pinned to its core and its times are rescaled by that
// core's speed, sampled before each pair; a pooled fleet spreads over every
// core, which one core's kernel does not represent (with the factor, its
// spread over ten runs was 10% in one set and 17% in another, against 18%
// and 12% without).
template <typename SetupFn>
void MeasureFleet(const Args& args, const char* workload, FleetRunner run,
                  const FleetConfig& greedy_config,
                  const FleetConfig& static_config, SetupFn setup,
                  bool one_core, Result* result) {
  const clover::models::ModelZoo& zoo = clover::models::DefaultZoo();
  const bool pinned = one_core && PinToCurrentCore();
  std::vector<double> setups;
  HostSpeed host;
  std::optional<FleetPair> first;  // every later pair must equal it
  Floors floors;  // components: the greedy run, the static run
  const auto timed = [&](const FleetConfig& config, double* seconds) {
    const auto run_start = Clock::now();
    FleetReport report = run(config, zoo);
    *seconds = SecondsSince(run_start);
    return report;
  };
  const auto start = Clock::now();
  while (static_cast<int>(floors.repetitions()) < kMinRepeats ||
         SecondsSince(start) < args.seconds) {
    setups.push_back(setup());
    if (one_core) host.Sample();
    double greedy_s = 0.0;
    double static_s = 0.0;
    FleetPair pair;
    pair.greedy = timed(greedy_config, &greedy_s);
    pair.fixed = timed(static_config, &static_s);
    floors.Add({greedy_s, static_s});
    const bool served = pair.greedy.fleet.completions > 0 &&
                        pair.fixed.fleet.completions > 0;
    result->Check(served, std::string(workload) + ": a fleet served nothing");
    if (!first.has_value()) {
      first = std::move(pair);
    } else {
      result->Check(
          fleet::FleetReportsBitIdentical(pair.greedy, first->greedy) &&
              fleet::FleetReportsBitIdentical(pair.fixed, first->fixed),
          std::string(workload) + ": repeated fleet run differs");
    }
  }
  const double factor = host.Factor();
  const double floor_s = floors.TotalSeconds() * factor;
  const double region_hours =
      2.0 * static_cast<double>(greedy_config.regions.size()) *
      greedy_config.duration_hours;
  std::cerr << "perfbench: " << workload << " " << floors.repetitions()
            << " pairs; each run at its fastest, a pair takes "
            << floors.TotalSeconds() << " s; host-speed factor " << factor
            << (one_core && !pinned ? " (not pinned)" : "") << "\n";
  result->Add("setup_s", Median(setups) * factor, "s");
  result->Add("served_per_s",
              static_cast<double>(FleetServed(*first)) / floor_s, "1/s");
  result->Add("region_h_per_s", region_hours / floor_s, "h/s");
  AddOutcome(FleetOutcome(first->greedy, first->fixed), false, result);
  // Over the pair's two runs, each at its fastest repetition.
  std::vector<double> runs_ms = floors.ComponentsMs();
  for (double& ms : runs_ms) ms *= factor;
  result->Add("op_p50_ms", Median(runs_ms), "ms");
  result->Add("op_tail_ms", TailQuantile(runs_ms), "ms");
}

// ---------------------------------------------------------------------------
// geo_fleet traced passes: RunFleet's steps, with spans.
// ---------------------------------------------------------------------------
struct GeoCounters {
  std::uint64_t sim_events = 0;
  std::uint64_t invocations = 0;
  std::uint64_t evaluations = 0;
  std::uint64_t screened = 0;
  std::uint64_t cache_hits = 0;
};

// serial_replay = false: the fleet step is FleetController::Step at the
// config's thread count. serial_replay = true: the same step replayed in
// the benchmark, region by region on one thread, with the simulator
// advance and the controller step timed apart.
FleetReport TracedGeoRun(const FleetConfig& config, bool serial_replay,
                         LayerTrace* layers, GeoCounters* counters) {
  namespace core = clover::core;
  const clover::models::ModelZoo& zoo = clover::models::DefaultZoo();
  core::ExperimentHarness harness(&zoo);
  core::BaselineCalibration calibration;
  {
    Span span(layers, "core.calibrate");
    calibration = Calibrate(&harness, config);
  }
  const clover::opt::ObjectiveParams params = FleetParams(config, calibration);
  const double total_qps = TotalQps(config, zoo);

  std::vector<std::unique_ptr<fleet::Region>> regions;
  const clover::carbon::TraceGeneratorOptions trace_options =
      FleetTraceOptions(config);
  for (std::size_t i = 0; i < config.regions.size(); ++i) {
    const fleet::RegionConfig& region_config = config.regions[i];
    clover::sim::SimOptions sim_options;
    sim_options.arrival_rate_qps =
        total_qps / static_cast<double>(config.regions.size());
    sim_options.window_seconds = config.control_interval_s;
    sim_options.seed = fleet::RegionSeed(config.seed, i);
    sim_options.faults = region_config.faults;
    std::unique_ptr<clover::carbon::CarbonTrace> trace;
    {
      Span span(layers, "carbon.trace");
      trace = std::make_unique<clover::carbon::CarbonTrace>(
          clover::carbon::GenerateRegionTrace(region_config.preset,
                                              trace_options));
    }
    Span span(layers, "sim.build");
    regions.push_back(std::make_unique<fleet::Region>(
        region_config, &zoo, std::move(*trace),
        clover::serving::MakeBase(config.app, region_config.num_gpus),
        sim_options));
  }

  TimedRouter router(fleet::MakeRouter(config.router), layers);
  fleet::RouterOptions router_options = config.router_options;
  if (router_options.slo_budget_ms <= 0.0)
    router_options.slo_budget_ms = config.slo_budget_factor * params.l_tail_ms;

  std::unique_ptr<fleet::FleetController> fleet_controller;
  std::vector<std::unique_ptr<core::Controller>> controllers;
  std::vector<std::vector<double>> weight_history;
  auto rebalance = [&](double t) {
    std::vector<fleet::RegionSnapshot> snapshots;
    for (const auto& region : regions) snapshots.push_back(region->Snapshot(t));
    const std::vector<double> weights =
        router.Split(snapshots, total_qps, router_options);
    for (std::size_t i = 0; i < regions.size(); ++i)
      regions[i]->SetAssignedRate(weights[i] * total_qps);
    weight_history.push_back(weights);
  };
  {
    Span span(layers, "fleet.build");
    if (!serial_replay) {
      fleet::FleetControllerOptions options;
      options.scheme = config.scheme;
      options.controller = config.controller;
      options.router = router_options;
      options.threads = config.threads;
      options.share_eval_cache = config.share_eval_cache;
      options.seed = config.seed;
      fleet_controller = std::make_unique<fleet::FleetController>(
          &regions, &zoo, &router, params, total_qps, options);
    } else {
      if (config.share_eval_cache)
        throw std::runtime_error("serial replay needs private eval caches");
      for (std::size_t i = 0; i < regions.size(); ++i) {
        core::Controller::Options options = config.controller;
        options.scheme = config.scheme;
        options.seed = fleet::RegionSeed(config.seed, i);
        controllers.push_back(std::make_unique<core::Controller>(
            &regions[i]->sim(), &zoo, &regions[i]->trace(), params, options));
      }
      rebalance(0.0);
    }
  }

  auto advance = [&](fleet::Region& region, double t) {
    const std::uint64_t before =
        region.sim().total_arrivals() + region.sim().total_completions();
    {
      Span span(layers, "sim.advance");
      region.sim().AdvanceTo(t);
    }
    counters->sim_events += region.sim().total_arrivals() +
                            region.sim().total_completions() - before;
  };
  const double duration_s = clover::HoursToSeconds(config.duration_hours);
  for (double t = config.control_interval_s; t <= duration_s + 1e-9;
       t += config.control_interval_s) {
    const double target = std::min(t, duration_s);
    if (!serial_replay) {
      Span span(layers, "fleet.step");
      fleet_controller->Step(target);
      continue;
    }
    const auto step_start = Clock::now();
    for (std::size_t i = 0; i < regions.size(); ++i) {
      fleet::Region& region = *regions[i];
      if (target > region.sim().now()) advance(region, target);
      if (!region.OnlineAt(target) || region.assigned_qps() <= 0.0) continue;
      const auto controller_start = Clock::now();
      const std::optional<core::OptimizationRun> run = controllers[i]->Step();
      layers->Record("core.step", SecondsSince(controller_start), true);
      if (run.has_value()) {
        ++counters->invocations;
        counters->evaluations += run->search.evaluations.size();
        counters->screened += static_cast<std::uint64_t>(run->search.screened);
        counters->cache_hits +=
            static_cast<std::uint64_t>(run->search.cache_hits);
      }
    }
    {
      Span span(layers, "fleet.rebalance");
      rebalance(target);
    }
    layers->Record("fleet.step", SecondsSince(step_start), false);
  }
  for (auto& region : regions)
    if (duration_s > region->sim().now()) advance(*region, duration_s);

  Span span(layers, "core.report");
  FleetReport report;
  report.router_name = router.name();
  report.total_qps = total_qps;
  report.slo_budget_ms = router_options.slo_budget_ms;
  report.weight_history = serial_replay ? weight_history
                                        : fleet_controller->weight_history();
  const std::vector<double> mean_weights =
      MeanWeights(report.weight_history, regions.size());
  std::uint64_t cache_hits = 0;
  for (std::size_t i = 0; i < regions.size(); ++i) {
    fleet::RegionReport region_report;
    region_report.name = regions[i]->name();
    region_report.latency_penalty_ms = regions[i]->latency_penalty_ms();
    region_report.mean_weight = mean_weights[i];
    core::RunReport& run = region_report.report;
    run.app = config.app;
    run.scheme = config.scheme;
    run.params = params;
    core::FillRunReportFromSim(regions[i]->sim(), params,
                               calibration.energy_per_request_j, &run);
    run.arrival_rate_qps = mean_weights[i] * total_qps;
    const core::Controller* controller =
        serial_replay ? controllers[i].get() : fleet_controller->controller(i);
    if (controller != nullptr) {
      run.optimizations = controller->history();
      run.optimization_seconds = controller->total_optimization_seconds();
      run.cache_hits = controller->cache_hits();
      region_report.controller = controller->Snapshot();
      cache_hits += controller->cache_hits();
    }
    report.regions.push_back(std::move(region_report));
  }
  core::RunReport& aggregate = report.fleet;
  aggregate.app = config.app;
  aggregate.scheme = config.scheme;
  aggregate.arrival_rate_qps = total_qps;
  aggregate.params = params;
  std::vector<fleet::RegionAggregateView> views;
  for (std::size_t i = 0; i < regions.size(); ++i) {
    fleet::RegionAggregateView view;
    view.report = &report.regions[i].report;
    view.latency_histogram = &regions[i]->sim().latency_histogram();
    view.base_penalty_ms = regions[i]->latency_penalty_ms();
    view.penalty_at = [region = regions[i].get()](double start_s) {
      return region->LatencyPenaltyAt(start_s);
    };
    views.push_back(std::move(view));
  }
  fleet::AggregateFleetReport(views, params, calibration.energy_per_request_j,
                              &report);
  aggregate.cache_hits = cache_hits;
  return report;
}

void TracedGeoFleet(const Args& args, Result* result) {
  const clover::models::ModelZoo& zoo = clover::models::DefaultZoo();
  const int threads = FleetThreads();
  const FleetConfig greedy = GeoConfig(args.seed, RouterPolicy::kCarbonGreedy,
                                       threads);
  const FleetConfig fixed = GeoConfig(args.seed, RouterPolicy::kStatic,
                                      threads);

  fleet::RunFleet(greedy, zoo);  // warm-up: page in code and heap
  const auto reference_start = Clock::now();
  const FleetPair reference{fleet::RunFleet(greedy, zoo),
                            fleet::RunFleet(fixed, zoo)};
  const double reference_wall = SecondsSince(reference_start);

  // Pooled pass: the fleet step as users run it. Its controller counts are
  // not reported; the serial replay's are (the same decisions).
  LayerTrace pooled;
  GeoCounters pooled_counters;
  const auto pooled_start = Clock::now();
  const FleetPair traced{
      TracedGeoRun(greedy, false, &pooled, &pooled_counters),
      TracedGeoRun(fixed, false, &pooled, &pooled_counters)};
  const double pooled_wall = SecondsSince(pooled_start);

  LayerTrace serial;
  GeoCounters counters;
  const FleetPair replayed{TracedGeoRun(greedy, true, &serial, &counters),
                           TracedGeoRun(fixed, true, &serial, &counters)};

  auto check = [&](const FleetPair& pair, const char* what) {
    result->Check(
        fleet::FleetReportsBitIdentical(pair.greedy, reference.greedy) &&
            fleet::FleetReportsBitIdentical(pair.fixed, reference.fixed),
        std::string("geo_fleet: ") + what +
            " traced run differs from fleet::RunFleet");
  };
  check(traced, "pooled");
  check(replayed, "serial");

  const double advance_s = serial.Busy("sim.advance");
  const std::vector<double> steps = pooled.Samples("fleet.step");
  result->Add("sim.advance_s", advance_s, "s");
  result->Add("sim.events", static_cast<double>(counters.sim_events), "count");
  result->Add("sim.ns_per_event",
              counters.sim_events
                  ? advance_s * 1e9 / static_cast<double>(counters.sim_events)
                  : 0.0,
              "ns");
  result->Add("core.calibrate_s", pooled.Busy("core.calibrate"), "s");
  result->Add("core.step_s", serial.Busy("core.step"), "s");
  result->Add("core.invocations", static_cast<double>(counters.invocations),
              "count");
  result->Add("opt.evaluations", static_cast<double>(counters.evaluations),
              "count");
  result->Add("opt.screened", static_cast<double>(counters.screened), "count");
  result->Add("opt.cache_hit_ratio",
              counters.evaluations
                  ? static_cast<double>(counters.cache_hits) /
                        static_cast<double>(counters.evaluations)
                  : 0.0,
              "ratio");
  result->Add("core.report_s", pooled.Busy("core.report"), "s");
  result->Add("carbon.trace_s", pooled.Busy("carbon.trace"), "s");
  result->Add("fleet.step_ms.p50", Median(steps), "ms");
  result->Add("fleet.step_ms.tail", TailQuantile(steps), "ms");
  result->Add("fleet.route_us",
              pooled.Calls("fleet.route")
                  ? pooled.Busy("fleet.route") * 1e6 /
                        static_cast<double>(pooled.Calls("fleet.route"))
                  : 0.0,
              "us");
  result->Add("fleet.pool_speedup",
              serial.Busy("fleet.step") / pooled.Busy("fleet.step"), "x");
  result->Add("fleet.regions", static_cast<double>(greedy.regions.size()),
              "count");
  AddOutcome(FleetOutcome(reference.greedy, reference.fixed), true, result);
  result->Add("bench.coverage", pooled.top_level_busy_s() / pooled_wall,
              "ratio");
  result->Add("bench.trace_overhead_pct",
              (pooled_wall / reference_wall - 1.0) * 100.0, "%");
}

// ---------------------------------------------------------------------------
// planet_fleet traced pass: RunFleetMeanField's steps, with spans.
// ---------------------------------------------------------------------------
FleetReport TracedPlanetRun(const FleetConfig& config, LayerTrace* layers) {
  namespace core = clover::core;
  const clover::models::ModelZoo& zoo = clover::models::DefaultZoo();
  core::ExperimentHarness harness(&zoo);
  core::BaselineCalibration calibration;
  {
    Span span(layers, "core.calibrate");
    calibration = Calibrate(&harness, config);
  }
  const clover::opt::ObjectiveParams params = FleetParams(config, calibration);
  const double total_qps = TotalQps(config, zoo);

  // Traces first (the simulators keep pointers into them), then the fluid
  // regions, each starting on the uniform bootstrap split.
  std::deque<clover::carbon::CarbonTrace> traces;
  {
    Span span(layers, "carbon.trace");
    const clover::carbon::TraceGeneratorOptions trace_options =
        FleetTraceOptions(config);
    for (const fleet::RegionConfig& region : config.regions)
      traces.push_back(
          clover::carbon::GenerateRegionTrace(region.preset, trace_options));
  }
  std::vector<std::unique_ptr<clover::sim::MeanFieldSim>> sims;
  std::vector<double> assigned(config.regions.size(),
                               total_qps /
                                   static_cast<double>(config.regions.size()));
  {
    Span span(layers, "sim.build");
    for (std::size_t i = 0; i < config.regions.size(); ++i) {
      clover::sim::SimOptions sim_options;
      sim_options.arrival_rate_qps = assigned[i];
      sim_options.window_seconds = config.control_interval_s;
      sim_options.seed = fleet::RegionSeed(config.seed, i);
      sims.push_back(std::make_unique<clover::sim::MeanFieldSim>(
          clover::serving::MakeBase(config.app, config.regions[i].num_gpus),
          zoo, &traces[i], sim_options));
    }
  }

  TimedRouter router(fleet::MakeRouter(config.router), layers);
  fleet::RouterOptions router_options = config.router_options;
  if (router_options.slo_budget_ms <= 0.0)
    router_options.slo_budget_ms = config.slo_budget_factor * params.l_tail_ms;
  std::vector<std::vector<double>> weight_history;
  auto rebalance = [&](double t) {
    Span span(layers, "fleet.rebalance");
    std::vector<fleet::RegionSnapshot> snapshots;
    for (std::size_t i = 0; i < sims.size(); ++i) {
      const fleet::RegionConfig& region = config.regions[i];
      fleet::RegionSnapshot snapshot;
      snapshot.name = region.preset.name;
      snapshot.online = !region.HasOutage() || t < region.outage_start_s ||
                        t >= region.outage_end_s;
      snapshot.ci = traces[i].At(t);
      snapshot.capacity_qps = sims[i]->capacity_qps();
      snapshot.assigned_qps = assigned[i];
      snapshot.queue_depth = sims[i]->backlog();
      snapshot.latency_penalty_ms = region.latency_penalty_ms;
      snapshot.static_weight = region.static_weight;
      snapshots.push_back(snapshot);
    }
    const std::vector<double> weights =
        router.Split(snapshots, total_qps, router_options);
    for (std::size_t i = 0; i < sims.size(); ++i) {
      assigned[i] = weights[i] * total_qps;
      sims[i]->SetArrivalRate(assigned[i]);
    }
    weight_history.push_back(weights);
  };
  auto advance = [&](double t) {
    Span span(layers, "fleet.meanfield");
    for (auto& sim : sims)
      if (t > sim->now()) sim->AdvanceTo(t);
  };

  rebalance(0.0);
  const double duration_s = clover::HoursToSeconds(config.duration_hours);
  for (double t = config.control_interval_s; t <= duration_s + 1e-9;
       t += config.control_interval_s) {
    const double target = std::min(t, duration_s);
    advance(target);
    rebalance(target);
  }
  advance(duration_s);

  Span span(layers, "core.report");
  FleetReport report;
  report.router_name = router.name();
  report.total_qps = total_qps;
  report.slo_budget_ms = router_options.slo_budget_ms;
  report.weight_history = std::move(weight_history);
  const std::vector<double> mean_weights =
      MeanWeights(report.weight_history, sims.size());
  for (std::size_t i = 0; i < sims.size(); ++i) {
    fleet::RegionReport region_report;
    region_report.name = config.regions[i].preset.name;
    region_report.latency_penalty_ms = config.regions[i].latency_penalty_ms;
    region_report.mean_weight = mean_weights[i];
    region_report.report.app = config.app;
    region_report.report.scheme = config.scheme;
    region_report.report.params = params;
    core::FillRunReportFromSim(*sims[i], params,
                               calibration.energy_per_request_j,
                               &region_report.report);
    region_report.report.arrival_rate_qps = mean_weights[i] * total_qps;
    report.regions.push_back(std::move(region_report));
  }
  core::RunReport& aggregate = report.fleet;
  aggregate.app = config.app;
  aggregate.scheme = config.scheme;
  aggregate.arrival_rate_qps = total_qps;
  aggregate.params = params;
  std::vector<fleet::RegionAggregateView> views;
  for (std::size_t i = 0; i < sims.size(); ++i) {
    fleet::RegionAggregateView view;
    view.report = &report.regions[i].report;
    view.latency_histogram = &sims[i]->latency_histogram();
    view.base_penalty_ms = config.regions[i].latency_penalty_ms;
    views.push_back(std::move(view));
  }
  fleet::AggregateFleetReport(views, params, calibration.energy_per_request_j,
                              &report);
  return report;
}

void TracedPlanetFleet(const Args& args, Result* result) {
  const clover::models::ModelZoo& zoo = clover::models::DefaultZoo();
  const FleetConfig greedy =
      PlanetConfig(args.seed, RouterPolicy::kCarbonGreedy);
  const FleetConfig fixed = PlanetConfig(args.seed, RouterPolicy::kStatic);

  fleet::RunFleetMeanField(greedy, zoo);  // warm-up: page in code and heap
  const auto reference_start = Clock::now();
  const FleetPair reference{fleet::RunFleetMeanField(greedy, zoo),
                            fleet::RunFleetMeanField(fixed, zoo)};
  const double reference_wall = SecondsSince(reference_start);

  LayerTrace layers;
  const auto traced_start = Clock::now();
  const FleetPair traced{TracedPlanetRun(greedy, &layers),
                         TracedPlanetRun(fixed, &layers)};
  const double traced_wall = SecondsSince(traced_start);
  result->Check(
      fleet::FleetReportsBitIdentical(traced.greedy, reference.greedy) &&
          fleet::FleetReportsBitIdentical(traced.fixed, reference.fixed),
      "planet_fleet: traced run differs from fleet::RunFleetMeanField");

  result->Add("core.calibrate_s", layers.Busy("core.calibrate"), "s");
  result->Add("core.report_s", layers.Busy("core.report"), "s");
  result->Add("carbon.trace_s", layers.Busy("carbon.trace"), "s");
  result->Add("fleet.route_us",
              layers.Calls("fleet.route")
                  ? layers.Busy("fleet.route") * 1e6 /
                        static_cast<double>(layers.Calls("fleet.route"))
                  : 0.0,
              "us");
  result->Add("fleet.meanfield_s", layers.Busy("fleet.meanfield"), "s");
  result->Add("fleet.regions", static_cast<double>(greedy.regions.size()),
              "count");
  AddOutcome(FleetOutcome(reference.greedy, reference.fixed), true, result);
  result->Add("bench.coverage", layers.top_level_busy_s() / traced_wall,
              "ratio");
  result->Add("bench.trace_overhead_pct",
              (traced_wall / reference_wall - 1.0) * 100.0, "%");
}

}  // namespace

void RunGeoFleet(const Args& args, Result* result) {
  if (args.trace) {
    TracedGeoFleet(args, result);
    return;
  }
  const int threads = FleetThreads();
  const FleetConfig greedy =
      GeoConfig(args.seed, RouterPolicy::kCarbonGreedy, threads);
  const FleetConfig fixed =
      GeoConfig(args.seed, RouterPolicy::kStatic, threads);
  // Set-up: region configs, the shared calibration and the region traces.
  auto setup = [&] {
    const auto start = Clock::now();
    const FleetConfig config =
        GeoConfig(args.seed, RouterPolicy::kCarbonGreedy, threads);
    clover::core::ExperimentHarness harness(&clover::models::DefaultZoo());
    Calibrate(&harness, config);
    for (const fleet::RegionConfig& region : config.regions)
      clover::carbon::GenerateRegionTrace(region.preset,
                                          FleetTraceOptions(config));
    return SecondsSince(start);
  };
  MeasureFleet(args, "geo_fleet", &fleet::RunFleet, greedy, fixed, setup,
               /*one_core=*/false, result);
}

void RunPlanetFleet(const Args& args, Result* result) {
  if (args.trace) {
    TracedPlanetFleet(args, result);
    return;
  }
  const FleetConfig greedy =
      PlanetConfig(args.seed, RouterPolicy::kCarbonGreedy);
  const FleetConfig fixed = PlanetConfig(args.seed, RouterPolicy::kStatic);
  // Set-up: the tiled 100-region config and the shared calibration (the
  // region traces are generated inside the run, under measurement).
  auto setup = [&] {
    const auto start = Clock::now();
    const FleetConfig config =
        PlanetConfig(args.seed, RouterPolicy::kCarbonGreedy);
    clover::core::ExperimentHarness harness(&clover::models::DefaultZoo());
    Calibrate(&harness, config);
    return SecondsSince(start);
  };
  MeasureFleet(args, "planet_fleet", &fleet::RunFleetMeanField, greedy, fixed,
               setup, /*one_core=*/true, result);
}

}  // namespace perfbench
