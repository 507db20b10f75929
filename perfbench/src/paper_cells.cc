// paper_cells: the researcher's path. The Fig. 9 grid (BASE and CLOVER for
// each of the three applications, CISO March trace, 10 GPUs) through the
// campaign engine with journals written, one campaign thread.
//
// Untraced: exp::RunCampaign repeated for the run length. Traced: the same
// cells driven layer by layer (trace, calibration, simulator, controller,
// report, journal, fold) with the harness's own control loop, checked bit
// for bit against RunCampaign; then obs enabled-idle vs disabled.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/units.h"
#include "core/controller.h"
#include "core/harness.h"
#include "exp/campaign.h"
#include "exp/journal.h"
#include "exp/runner.h"
#include "measure.h"
#include "models/zoo.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "perf/calibration.h"
#include "serving/deployment.h"
#include "sim/cluster_sim.h"

namespace perfbench {
namespace {

using clover::core::RunReport;
using clover::exp::CampaignSpec;
using clover::exp::CellOutcome;

constexpr double kHours = 4.0;
constexpr int kGpus = 10;
constexpr int kMinRepeats = 3;

CampaignSpec PaperSpec(std::uint64_t seed) {
  char text[512];
  std::snprintf(text, sizeof(text),
                R"({"schema": "clover-campaign-v1", "name": "perfbench_paper_cells",
                   "threads": 1,
                   "grid": {"scheme": ["base", "clover"],
                            "app": ["detection", "language", "classification"],
                            "trace": "ciso-march", "gpus": %d, "hours": %g,
                            "seed": %llu}})",
                kGpus, kHours, static_cast<unsigned long long>(seed));
  return clover::exp::ParseCampaignSpec(clover::ParseJson(text));
}

clover::exp::CampaignOptions PaperOptions() {
  clover::exp::CampaignOptions options;
  options.threads = 1;
  options.out_dir = ScratchDir("paper_cells");
  options.write_files = true;
  return options;
}

// The cell's BASE twin in the same campaign (same app), or nullptr.
const CellOutcome* BaseTwin(const std::vector<CellOutcome>& cells,
                            const CellOutcome& cell) {
  for (const CellOutcome& other : cells)
    if (other.cell.scheme == clover::core::Scheme::kBase &&
        other.cell.app == cell.cell.app)
      return &other;
  return nullptr;
}

// The fig09 "overall" convention: carbon saving and relative accuracy are
// means over the three applications, p95_norm is the worst application's
// CLOVER p95 over BASE p95, SLO attainment pools every CLOVER window.
Outcome PaperOutcome(const std::vector<CellOutcome>& cells, Result* result) {
  Outcome outcome;
  int apps = 0;
  std::uint64_t windows = 0;
  std::uint64_t windows_met = 0;
  for (const CellOutcome& cell : cells) {
    if (cell.cell.scheme != clover::core::Scheme::kClover) continue;
    const CellOutcome* base = BaseTwin(cells, cell);
    result->Check(base != nullptr,
                  "paper_cells: CLOVER cell without BASE twin");
    if (base == nullptr) continue;
    ++apps;
    outcome.carbon_rel_pct +=
        100.0 - cell.report.CarbonSavePctVs(base->report);
    outcome.accuracy_rel_pct +=
        100.0 - cell.report.AccuracyLossPctVs(base->report);
    outcome.p95_norm =
        std::max(outcome.p95_norm, cell.report.P95NormVs(base->report));
    for (const clover::sim::WindowRecord& window : cell.report.windows) {
      if (window.completions == 0) continue;
      ++windows;
      if (window.p95_ms <= cell.report.params.l_tail_ms) ++windows_met;
    }
  }
  if (apps > 0) {
    outcome.carbon_rel_pct /= apps;
    outcome.accuracy_rel_pct /= apps;
  }
  if (windows > 0)
    outcome.slo_attainment_pct =
        100.0 * static_cast<double>(windows_met) / static_cast<double>(windows);
  return outcome;
}

// Checks every cell of one campaign: it served requests, and its report
// equals the reference's bit for bit. Counts one operation per cell.
void CheckCells(const std::vector<CellOutcome>& cells,
                const std::vector<CellOutcome>& reference, const char* what,
                Result* result) {
  result->Check(cells.size() == reference.size(),
                std::string("paper_cells: cell count differs in ") + what);
  for (std::size_t i = 0; i < cells.size() && i < reference.size(); ++i) {
    const bool ok =
        cells[i].report.completions > 0 &&
        cells[i].cell.Name() == reference[i].cell.Name() &&
        clover::core::RunReportsBitIdentical(cells[i].report,
                                             reference[i].report);
    result->Check(ok, std::string("paper_cells: ") + what + " cell " +
                          cells[i].cell.Name() +
                          " differs from the reference run");
  }
}

std::uint64_t Served(const std::vector<CellOutcome>& cells) {
  std::uint64_t served = 0;
  for (const CellOutcome& cell : cells) served += cell.report.completions;
  return served;
}

// One-time costs of the researcher's path before the first cell runs:
// model zoo, grid expansion, the cells' traces and the per-application
// BASE calibrations.
double SetupOnce(std::uint64_t seed, CampaignSpec* spec) {
  const auto start = Clock::now();
  const clover::models::ModelZoo zoo;
  *spec = PaperSpec(seed);
  clover::core::ExperimentHarness harness(&zoo);
  for (const clover::exp::CellSpec& cell : spec->cells) {
    const clover::carbon::CarbonTrace trace = clover::exp::MakeCellTrace(cell);
    const clover::core::ExperimentConfig config =
        clover::exp::MakeCellConfig(cell, spec->fault_profile, &trace);
    harness.Calibrate(config.app, config.sizing_gpus,
                      config.utilization_target, config.arrival_rate_qps,
                      config.seed);
  }
  return SecondsSince(start);
}

// ---------------------------------------------------------------------------
// Traced pass: ExperimentHarness::Run's steps for one BASE/CLOVER cell,
// each call into a layer wrapped in a span.
// ---------------------------------------------------------------------------
struct ControllerCounters {
  std::uint64_t evaluations = 0;
  std::uint64_t screened = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t sim_events = 0;
};

CellOutcome TracedCell(const CampaignSpec& spec,
                       const clover::exp::CellSpec& cell,
                       clover::core::ExperimentHarness* harness,
                       LayerTrace* layers, ControllerCounters* counters) {
  namespace core = clover::core;
  const clover::models::ModelZoo& zoo = clover::models::DefaultZoo();
  const auto start = Clock::now();
  CellOutcome outcome;
  outcome.cell = cell;

  std::unique_ptr<clover::carbon::CarbonTrace> trace;
  {
    Span span(layers, "carbon.trace");
    trace = std::make_unique<clover::carbon::CarbonTrace>(
        clover::exp::MakeCellTrace(cell));
  }
  const core::ExperimentConfig config =
      clover::exp::MakeCellConfig(cell, spec.fault_profile, trace.get());
  if (config.scheme != core::Scheme::kBase &&
      config.scheme != core::Scheme::kClover)
    throw std::runtime_error("traced paper cell must be BASE or CLOVER");
  if (!config.faults.Empty())
    throw std::runtime_error("traced paper cell must be fault-free");

  core::BaselineCalibration calibration;
  {
    Span span(layers, "core.calibrate");
    calibration = harness->Calibrate(config.app, config.sizing_gpus,
                                     config.utilization_target,
                                     config.arrival_rate_qps, config.seed);
  }
  clover::opt::ObjectiveParams params;
  params.lambda = config.lambda;
  params.a_base = calibration.a_base;
  params.c_base_g = clover::CarbonGrams(calibration.energy_per_request_j,
                                        config.ci_base, clover::perf::kPue);
  params.l_tail_ms = calibration.l_tail_ms;
  params.pue = clover::perf::kPue;
  params.max_accuracy_loss_pct = config.accuracy_limit_pct;

  std::unique_ptr<clover::sim::ClusterSim> sim;
  std::unique_ptr<core::Controller> controller;
  {
    Span span(layers, "sim.build");
    clover::sim::SimOptions sim_options;
    sim_options.arrival_rate_qps = calibration.arrival_rate_qps;
    sim_options.window_seconds = config.control_interval_s;
    sim_options.seed = config.seed;
    sim_options.burst = config.burst;
    sim_options.faults = config.faults;
    sim = std::make_unique<clover::sim::ClusterSim>(
        clover::serving::MakeBase(config.app, config.num_gpus), zoo,
        trace.get(), sim_options);
    if (config.scheme == core::Scheme::kClover) {
      core::Controller::Options controller_options = config.controller;
      controller_options.scheme = config.scheme;
      controller_options.seed = config.seed;
      controller = std::make_unique<core::Controller>(
          sim.get(), &zoo, trace.get(), params, controller_options);
    }
  }

  auto advance = [&](double target) {
    const std::uint64_t before =
        sim->total_arrivals() + sim->total_completions();
    {
      Span span(layers, "sim.advance");
      sim->AdvanceTo(target);
    }
    counters->sim_events +=
        sim->total_arrivals() + sim->total_completions() - before;
  };
  const double duration_s = clover::HoursToSeconds(config.duration_hours);
  for (double t = config.control_interval_s; t <= duration_s + 1e-9;
       t += config.control_interval_s) {
    const double target = std::min(t, duration_s);
    if (target > sim->now()) advance(target);
    if (controller != nullptr) {
      const auto step_start = Clock::now();
      const std::optional<core::OptimizationRun> run = controller->Step();
      const double step_s = SecondsSince(step_start);
      layers->Record("core.step", step_s, /*top_level=*/true);
      if (run.has_value()) {
        layers->Record("core.invocation", step_s, /*top_level=*/false);
        counters->evaluations += run->search.evaluations.size();
        counters->screened += static_cast<std::uint64_t>(run->search.screened);
        counters->cache_hits +=
            static_cast<std::uint64_t>(run->search.cache_hits);
      }
    }
  }
  if (duration_s > sim->now()) advance(duration_s);

  {
    Span span(layers, "core.report");
    RunReport& report = outcome.report;
    report.app = config.app;
    report.scheme = config.scheme;
    report.arrival_rate_qps = calibration.arrival_rate_qps;
    report.params = params;
    core::FillRunReportFromSim(*sim, params, calibration.energy_per_request_j,
                               &report);
    if (controller != nullptr) {
      report.optimizations = controller->history();
      report.optimization_seconds = controller->total_optimization_seconds();
      report.cache_hits = controller->cache_hits();
    }
    for (const core::OptimizationRun& run : report.optimizations)
      outcome.candidates += run.search.evaluations.size();
  }
  outcome.wall_seconds = SecondsSince(start);
  outcome.report.wall_seconds = outcome.wall_seconds;
  return outcome;
}

std::vector<CellOutcome> RunCampaignOnce(const CampaignSpec& spec,
                                         double* wall_s) {
  const auto start = Clock::now();
  clover::exp::CampaignResult run =
      clover::exp::RunCampaign(spec, PaperOptions());
  *wall_s = SecondsSince(start);
  return std::move(run.cells);
}

void TracedPaperCells(const Args& args, Result* result) {
  CampaignSpec spec = PaperSpec(args.seed);
  const clover::exp::CampaignOptions options = PaperOptions();

  // Reference: the untraced user path.
  double reference_wall = 0.0;
  const std::vector<CellOutcome> reference =
      RunCampaignOnce(spec, &reference_wall);

  LayerTrace layers;
  ControllerCounters counters;
  const auto start = Clock::now();
  clover::exp::CampaignResult traced;
  traced.name = spec.name;
  traced.threads = 1;
  traced.grid_cells = spec.grid_cells;
  traced.executed_cells = static_cast<int>(spec.cells.size());
  {
    // One harness for every cell, as RunCampaign's single slot has.
    clover::core::ExperimentHarness harness(&clover::models::DefaultZoo());
    const std::string fingerprint =
        clover::exp::FaultProfileFingerprint(spec.fault_profile);
    for (const clover::exp::CellSpec& cell : spec.cells) {
      CellOutcome outcome =
          TracedCell(spec, cell, &harness, &layers, &counters);
      {
        Span span(&layers, "exp.journal");
        clover::exp::WriteJournal(
            clover::exp::JournalPath(options.out_dir, cell), spec.name,
            fingerprint, outcome);
      }
      traced.cells.push_back(std::move(outcome));
    }
  }
  {
    Span span(&layers, "exp.fold");
    traced.suite.suite = spec.name;
    traced.suite.threads = 1;
    traced.suite.seed = spec.cells.front().seed;
    for (const CellOutcome& outcome : traced.cells)
      traced.suite.scenarios.push_back(clover::exp::CellScenarioRow(outcome));
    const std::vector<clover::exp::SummaryRow> summary =
        clover::exp::BuildSummary(traced.cells);
    clover::exp::WriteConsolidated(
        options.out_dir + "/CAMPAIGN_" + spec.name + ".json", spec, traced,
        summary);
  }
  const double traced_wall = SecondsSince(start);
  CheckCells(traced.cells, reference, "traced", result);

  // Flight-recorder cost: RunCampaign with obs disabled and enabled-idle
  // (recording, nobody reading), in back-to-back pairs whose order
  // alternates, for the run length. The median of the per-pair ratios
  // cancels the host's slow drifts that unpaired medians would carry.
  std::vector<double> ratios;
  const auto obs_start = Clock::now();
  while (static_cast<int>(ratios.size()) < kMinRepeats ||
         SecondsSince(obs_start) < args.seconds) {
    double walls[2] = {0.0, 0.0};  // [disabled, enabled]
    const bool enabled_first = ratios.size() % 2 == 1;
    for (const bool enabled : {enabled_first, !enabled_first}) {
      clover::obs::SetEnabled(enabled);
      if (enabled) clover::obs::Tracer::Get().Enable();
      const std::vector<CellOutcome> cells =
          RunCampaignOnce(spec, &walls[enabled ? 1 : 0]);
      clover::obs::SetEnabled(false);
      clover::obs::Tracer::Get().Disable();
      CheckCells(cells, reference, enabled ? "obs-enabled" : "obs-disabled",
                 result);
    }
    ratios.push_back(walls[1] / walls[0]);
  }
  std::filesystem::remove_all(options.out_dir);

  const double advance_s = layers.Busy("sim.advance");
  const std::vector<double> invocations = layers.Samples("core.invocation");
  result->Add("sim.advance_s", advance_s, "s");
  result->Add("sim.events", static_cast<double>(counters.sim_events), "count");
  result->Add("sim.ns_per_event",
              counters.sim_events
                  ? advance_s * 1e9 / static_cast<double>(counters.sim_events)
                  : 0.0,
              "ns");
  result->Add("core.calibrate_s", layers.Busy("core.calibrate"), "s");
  result->Add("core.step_s", layers.Busy("core.step"), "s");
  result->Add("core.invocations", static_cast<double>(invocations.size()),
              "count");
  result->Add("core.invocation_ms.p50", Median(invocations), "ms");
  result->Add("core.invocation_ms.tail", TailQuantile(invocations), "ms");
  result->Add("opt.evaluations", static_cast<double>(counters.evaluations),
              "count");
  result->Add("opt.screened", static_cast<double>(counters.screened), "count");
  result->Add("opt.cache_hit_ratio",
              counters.evaluations
                  ? static_cast<double>(counters.cache_hits) /
                        static_cast<double>(counters.evaluations)
                  : 0.0,
              "ratio");
  result->Add("core.report_s", layers.Busy("core.report"), "s");
  result->Add("exp.journal_s", layers.Busy("exp.journal"), "s");
  result->Add("exp.fold_s", layers.Busy("exp.fold"), "s");
  result->Add("carbon.trace_s", layers.Busy("carbon.trace"), "s");
  result->Add("obs.overhead_pct", (Median(ratios) - 1.0) * 100.0, "%");
  AddOutcome(PaperOutcome(reference, result), true, result);
  result->Add("bench.coverage", layers.top_level_busy_s() / traced_wall,
              "ratio");
  result->Add("bench.trace_overhead_pct",
              (traced_wall / reference_wall - 1.0) * 100.0, "%");
}

}  // namespace

void RunPaperCells(const Args& args, Result* result) {
  if (args.trace) {
    TracedPaperCells(args, result);
    return;
  }
  // The campaign runs on one pool thread, started by this one: pinned to
  // this core, it shares the core the reference kernel samples. Before
  // every campaign, one set-up and one kernel sample, so that both span the
  // run. The components of a campaign are its cells, then the campaign's
  // own work outside them (pool, journals, fold).
  const bool pinned = PinToCurrentCore();
  CampaignSpec spec;
  std::vector<double> setups;
  HostSpeed host;
  std::vector<CellOutcome> reference;
  std::vector<double> walls;
  Floors floors;
  const auto start = Clock::now();
  while (static_cast<int>(walls.size()) < kMinRepeats ||
         SecondsSince(start) < args.seconds) {
    setups.push_back(SetupOnce(args.seed, &spec));
    host.Sample();
    double wall = 0.0;
    std::vector<CellOutcome> cells;
    try {
      cells = RunCampaignOnce(spec, &wall);
    } catch (const std::exception& error) {
      std::cerr << "perfbench: paper_cells campaign threw: " << error.what()
                << "\n";
      result->CountOps(spec.cells.size(), spec.cells.size());
      break;
    }
    if (reference.empty()) reference = cells;
    CheckCells(cells, reference, "repeated", result);
    walls.push_back(wall);
    std::vector<double> parts;
    double in_cells = 0.0;
    for (const CellOutcome& cell : cells) {
      parts.push_back(cell.wall_seconds);
      in_cells += cell.wall_seconds;
    }
    parts.push_back(std::max(wall - in_cells, 0.0));
    floors.Add(parts);
  }
  std::filesystem::remove_all(ScratchDir("paper_cells"));
  const double factor = host.Factor();
  const double floor_s = floors.TotalSeconds() * factor;
  std::cerr << "perfbench: paper_cells campaign walls (s):";
  for (const double wall : walls) std::cerr << " " << wall;
  std::cerr << "; every cell at its fastest: " << floors.TotalSeconds()
            << " s; host-speed factor " << factor
            << (pinned ? "" : " (not pinned)") << "\n";

  result->Add("setup_s", Median(setups) * factor, "s");
  result->Add("served_per_s", static_cast<double>(Served(reference)) / floor_s,
              "1/s");
  result->Add("region_h_per_s",
              kHours * static_cast<double>(reference.size()) / floor_s, "h/s");
  AddOutcome(PaperOutcome(reference, result), false, result);
  // Over the grid's cells, each at its fastest repetition (the last
  // component is the campaign's own work, not a cell).
  std::vector<double> cells_ms = floors.ComponentsMs();
  if (!cells_ms.empty()) cells_ms.pop_back();
  for (double& ms : cells_ms) ms *= factor;
  result->Add("op_p50_ms", Median(cells_ms), "ms");
  result->Add("op_tail_ms", TailQuantile(cells_ms), "ms");
}

}  // namespace perfbench
