// The live control plane without sockets: OnVirtualAdvance driven
// directly against a VirtualExecutor, the way the live server's ticket
// section drives it. The twin runs ahead on its own thread, so these tests
// pin the handoff itself:
//
//   * past every boundary, the commits issued so far are exactly the
//     deployment changes ExperimentHarness::Run makes at the boundaries
//     crossed, applied at the same virtual instants (ready times checked
//     against a reference executor), and TwinReport() is bit-identical to
//     the harness report — for CLOVER and for BASE;
//   * once the twin has run ahead, crossing a boundary never waits for it
//     (the lock-free fast path of the handoff);
//   * Finish() with no traffic still fires every boundary;
//   * destroying a plane mid-run stops the twin within one boundary;
//   * a CHECK failing on the twin thread surfaces on the serving side;
//   * the twin-owned state (TwinReport, history) is unreadable before
//     Finish().
#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "carbon/trace.h"
#include "common/check.h"
#include "core/live_control.h"
#include "obs/metrics.h"
#include "opt/annealing.h"
#include "serving/virtual_executor.h"

namespace clover::core {
namespace {

// Deployment changes of a harness run, keyed by boundary index.
struct ReferenceCommit {
  std::size_t boundary_index = 0;
  double boundary_s = 0.0;
  double ready_s = 0.0;
  serving::Deployment deployment;
};

struct Reference {
  RunReport report;
  std::vector<ReferenceCommit> commits;
};

// ExperimentHarness::Run with an observer recording every deployment
// change, then the changes replayed onto a fresh executor for ready times.
Reference RunReference(ExperimentHarness* harness,
                       const ExperimentConfig& config) {
  Reference reference;
  serving::Deployment last = serving::MakeBase(config.app, config.num_gpus);
  std::size_t index = 0;
  reference.report = harness->Run(
      config, [&](double boundary_s, const sim::ClusterSim& sim) {
        if (sim.deployment() != last) {
          last = sim.deployment();
          reference.commits.push_back({index, boundary_s, 0.0, last});
        }
        ++index;
        return true;
      });
  serving::VirtualExecutor executor(
      serving::MakeBase(config.app, config.num_gpus), models::DefaultZoo());
  for (ReferenceCommit& commit : reference.commits)
    commit.ready_s = executor.ApplyDeployment(
        commit.deployment, models::DefaultZoo(), commit.boundary_s);
  return reference;
}

using Commits = std::vector<LiveControlPlane::DeploymentCommit>;

void ExpectCommitsMatch(const Commits& commits,
                        const std::vector<ReferenceCommit>& reference,
                        std::size_t count) {
  ASSERT_EQ(commits.size(), count);
  for (std::size_t i = 0; i < count; ++i) {
    EXPECT_EQ(commits[i].boundary_s, reference[i].boundary_s);
    EXPECT_EQ(commits[i].ready_s, reference[i].ready_s);
    EXPECT_TRUE(commits[i].deployment == reference[i].deployment);
  }
}

void ExpectTwinMatches(const LiveControlPlane& plane,
                       const Reference& reference) {
  EXPECT_TRUE(RunReportsBitIdentical(plane.TwinReport(), reference.report));
  ASSERT_EQ(plane.history().size(), reference.report.optimizations.size());
  for (std::size_t i = 0; i < plane.history().size(); ++i)
    EXPECT_TRUE(opt::SearchResultsBitIdentical(
        plane.history()[i].search, reference.report.optimizations[i].search));
}

ExperimentConfig StepConfig(const carbon::CarbonTrace* trace, Scheme scheme) {
  ExperimentConfig config;
  config.scheme = scheme;
  config.trace = trace;
  config.duration_hours = 0.5;
  config.num_gpus = config.sizing_gpus = 2;
  config.seed = 5;
  return config;
}

// Drives virtual time in steps that straddle boundaries unevenly, checking
// after every step that exactly the boundaries below it have committed.
// Returns the number of commits.
std::size_t DriveAndCheck(const ExperimentConfig& config) {
  ExperimentHarness harness(&models::DefaultZoo());
  const Reference reference = RunReference(&harness, config);

  LiveControlPlane plane(&harness, &models::DefaultZoo(), config);
  serving::VirtualExecutor executor(plane.initial_deployment(),
                                    models::DefaultZoo());
  const std::vector<double> boundaries =
      ControlBoundaries(plane.control_interval_s(), plane.duration_s());
  const double end = plane.duration_s() + plane.control_interval_s();
  for (double ts = 0.0; ts <= end; ts += 37.0) {
    plane.OnVirtualAdvance(ts, &executor);
    std::size_t crossed = 0;
    while (crossed < boundaries.size() && ts > boundaries[crossed]) ++crossed;
    std::size_t expected = 0;
    while (expected < reference.commits.size() &&
           reference.commits[expected].boundary_index < crossed)
      ++expected;
    ExpectCommitsMatch(plane.commits(), reference.commits, expected);
  }
  ExpectCommitsMatch(plane.commits(), reference.commits,
                     reference.commits.size());
  plane.Finish(&executor);
  ExpectCommitsMatch(plane.commits(), reference.commits,
                     reference.commits.size());
  ExpectTwinMatches(plane, reference);
  return plane.commits().size();
}

TEST(LiveControl, CloverCommitsAndTwinMatchHarnessPastEveryBoundary) {
  const carbon::CarbonTrace trace("step", 600.0,
                                  {120.0, 320.0, 120.0, 320.0});
  const ExperimentConfig config = StepConfig(&trace, Scheme::kClover);
  // The scenario must actually reconfigure, or the commit checks are
  // vacuous.
  EXPECT_GT(DriveAndCheck(config), 0u);
}

TEST(LiveControl, BaseTwinMatchesHarnessAndNeverCommits) {
  const carbon::CarbonTrace trace("step", 600.0,
                                  {120.0, 320.0, 120.0, 320.0});
  EXPECT_EQ(DriveAndCheck(StepConfig(&trace, Scheme::kBase)), 0u);
}

TEST(LiveControl, BoundariesDoNotWaitOnceTheTwinIsAhead) {
  const carbon::CarbonTrace trace("step", 600.0,
                                  {120.0, 320.0, 120.0, 320.0});
  const ExperimentConfig config = StepConfig(&trace, Scheme::kClover);
  ExperimentHarness harness(&models::DefaultZoo());
  const Reference reference = RunReference(&harness, config);

  const bool obs_was_enabled = obs::Enabled();
  obs::SetEnabled(true);
  obs::Counter* const waits =
      obs::Registry::Get().GetCounter("core.live.twin_waits");
  LiveControlPlane plane(&harness, &models::DefaultZoo(), config);
  serving::VirtualExecutor executor(plane.initial_deployment(),
                                    models::DefaultZoo());
  plane.OnVirtualAdvance(0.0, &executor);  // starts the twin, fires nothing
  const std::size_t boundaries =
      ControlBoundaries(plane.control_interval_s(), plane.duration_s())
          .size();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  while (plane.decided_boundaries() < boundaries &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_EQ(plane.decided_boundaries(), boundaries);

  const std::uint64_t waits_before = waits->Fold();
  plane.OnVirtualAdvance(plane.duration_s() + plane.control_interval_s(),
                         &executor);
  EXPECT_EQ(waits->Fold(), waits_before);
  obs::SetEnabled(obs_was_enabled);
  ExpectCommitsMatch(plane.commits(), reference.commits,
                     reference.commits.size());
  plane.Finish(&executor);
  ExpectTwinMatches(plane, reference);
}

TEST(LiveControl, FinishWithoutTrafficFiresEveryBoundary) {
  const carbon::CarbonTrace trace("step", 600.0,
                                  {120.0, 320.0, 120.0, 320.0});
  const ExperimentConfig config = StepConfig(&trace, Scheme::kClover);
  ExperimentHarness harness(&models::DefaultZoo());
  const Reference reference = RunReference(&harness, config);
  ASSERT_FALSE(reference.commits.empty());

  LiveControlPlane plane(&harness, &models::DefaultZoo(), config);
  serving::VirtualExecutor executor(plane.initial_deployment(),
                                    models::DefaultZoo());
  plane.Finish(&executor);
  ExpectCommitsMatch(plane.commits(), reference.commits,
                     reference.commits.size());
  ExpectTwinMatches(plane, reference);
  EXPECT_TRUE(executor.deployment() == reference.commits.back().deployment);
  plane.Finish(&executor);  // idempotent
  EXPECT_EQ(plane.commits().size(), reference.commits.size());
}

TEST(LiveControl, DestroyingMidRunStopsTheTwinWithinOneBoundary) {
  // Long enough that the twin cannot finish between the first boundary
  // and the destructor: a full run is many boundaries of work, while the
  // destructor may wait for at most the one in progress.
  const carbon::CarbonTrace trace(
      "hourly", 3600.0,
      {120.0, 320.0, 140.0, 300.0, 110.0, 330.0, 150.0, 290.0, 120.0,
       320.0, 140.0, 300.0, 110.0, 330.0, 150.0, 290.0, 120.0, 320.0,
       140.0, 300.0, 110.0, 330.0, 150.0, 290.0});
  ExperimentConfig config = StepConfig(&trace, Scheme::kClover);
  config.duration_hours = 24.0;
  ExperimentHarness harness(&models::DefaultZoo());
  harness.Calibrate(config.app, config.sizing_gpus, config.utilization_target,
                    config.arrival_rate_qps, config.seed);

  const auto full_start = std::chrono::steady_clock::now();
  harness.Run(config);
  const double full_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - full_start)
                            .count();

  auto plane = std::make_unique<LiveControlPlane>(
      &harness, &models::DefaultZoo(), config);
  serving::VirtualExecutor executor(plane->initial_deployment(),
                                    models::DefaultZoo());
  plane->OnVirtualAdvance(1.5 * plane->control_interval_s(), &executor);
  const auto destroy_start = std::chrono::steady_clock::now();
  plane.reset();
  const double destroy_s = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() -
                               destroy_start)
                               .count();
  EXPECT_LT(destroy_s, 0.25 * full_s)
      << "destroy " << destroy_s << " s vs full run " << full_s << " s";
}

TEST(LiveControl, TwinFailureIsRethrownOnTheServingSide) {
  // A burst multiplier below 1 is rejected by the twin's arrival process,
  // on the twin thread; calibration (steady) and construction succeed.
  const carbon::CarbonTrace trace("step", 600.0,
                                  {120.0, 320.0, 120.0, 320.0});
  ExperimentConfig config = StepConfig(&trace, Scheme::kClover);
  config.burst.rate_multiplier = 0.5;
  ExperimentHarness harness(&models::DefaultZoo());
  {
    LiveControlPlane plane(&harness, &models::DefaultZoo(), config);
    serving::VirtualExecutor executor(plane.initial_deployment(),
                                      models::DefaultZoo());
    EXPECT_THROW(
        plane.OnVirtualAdvance(plane.control_interval_s() + 1.0, &executor),
        CheckError);
  }
  {
    LiveControlPlane plane(&harness, &models::DefaultZoo(), config);
    serving::VirtualExecutor executor(plane.initial_deployment(),
                                      models::DefaultZoo());
    EXPECT_THROW(plane.Finish(&executor), CheckError);
    EXPECT_THROW(plane.TwinReport(), CheckError);
  }
}

TEST(LiveControl, TwinStateIsUnreadableBeforeFinish) {
  const carbon::CarbonTrace trace("step", 600.0,
                                  {120.0, 320.0, 120.0, 320.0});
  const ExperimentConfig config = StepConfig(&trace, Scheme::kClover);
  ExperimentHarness harness(&models::DefaultZoo());
  LiveControlPlane plane(&harness, &models::DefaultZoo(), config);
  EXPECT_THROW(plane.TwinReport(), CheckError);
  EXPECT_THROW(plane.history(), CheckError);
  serving::VirtualExecutor executor(plane.initial_deployment(),
                                    models::DefaultZoo());
  plane.OnVirtualAdvance(plane.control_interval_s() + 1.0, &executor);
  EXPECT_THROW(plane.TwinReport(), CheckError);
  EXPECT_THROW(plane.history(), CheckError);
  plane.Finish(&executor);
  EXPECT_NO_THROW(plane.TwinReport());
  EXPECT_NO_THROW(plane.history());
}

}  // namespace
}  // namespace clover::core
