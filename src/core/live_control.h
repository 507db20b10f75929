// Digital-twin control plane for the live serving path.
//
// The differential requirement this class is built around: the live
// server's control decisions must be *bit-identical* to
// ExperimentHarness::Run's on the same configuration. Rather than
// re-implementing the controller against live telemetry and hoping the two
// converge, the live control plane runs the harness's own control loop
// (RunCalibrated, core/harness.h) over an embedded simulated system — a
// ClusterSim ("twin") plus the same core::Controller — and hands its
// decisions to the live executor at the same virtual boundaries.
//
// The twin consumes its own Poisson arrival stream (the same (rate, seed)
// the replay schedule was drawn from), so its decisions depend on virtual
// time only, never on live traffic. That is what lets it run *ahead* of
// the traffic on a thread of its own: started by the first
// OnVirtualAdvance, it runs the loop to the end of the run and publishes
// each boundary's decision — the new deployment, or "unchanged" — into a
// pre-sized slot. When the request stream crosses boundary t, the serving
// side only takes the published decision for t and, if it changed,
// applies it to the VirtualExecutor at t. A boundary therefore costs a
// handoff instead of a twin catch-up; it waits only when the twin is
// behind (counted as core.live.twin_waits, docs/OBSERVABILITY.md).
// TwinReport() is the RunReport that loop returns, so it satisfies
// RunReportsBitIdentical against the harness by construction, and the
// commit log gives the live executor the same deployments at the same
// virtual times.
//
// Fidelity boundary, stated honestly: *decisions* are bit-identical by
// construction; *live latencies* are close but not identical to the
// twin's, because the controller's candidate probes run against the twin
// only (a live cluster cannot time-travel through candidate configs), so
// during optimization windows the twin serves probe deployments while the
// live executor keeps the last commit. The differential test bounds that
// gap with an explicit tolerance (docs/TESTING.md, "Live vs simulated
// parity").
//
// Threading contract:
//  * OnVirtualAdvance runs on the live server's workers, always inside the
//    ticket-ordered section, and Finish runs after the server stopped; so
//    the serving side is one logical thread and its state (the boundary
//    cursor, the commit log) needs no lock.
//  * The twin thread owns the ClusterSim, the Controller and the run
//    report. It shares only the decision slots with the serving side: it
//    fills slot i, then publishes i + 1 with a release store; the serving
//    side reads slot i only after an acquire load sees it published, and
//    blocks on a condition variable only when it does not.
//  * The twin never touches the caller's ExperimentHarness (its caches
//    are unsynchronized): calibration is resolved in the constructor, on
//    the constructing thread.
//  * An exception thrown on the twin (a failed CHECK) is forwarded: the
//    boundary waiting for a decision the twin never published, or Finish,
//    rethrows it on the serving side.
//  * Finish joins the twin; TwinReport() and history() read its state and
//    CHECK-fail before Finish. The destructor raises a stop flag the loop
//    checks at every boundary, so it joins within one boundary's work.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "core/harness.h"
#include "serving/live_server.h"

namespace clover::core {

class LiveControlPlane : public serving::LiveControlHook {
 public:
  // Supports kBase (no controller), kClover and kBlover. The config is
  // interpreted exactly as ExperimentHarness::Run does — calibration via
  // `harness` (shared cache), trace dropout repair, sigma override.
  LiveControlPlane(ExperimentHarness* harness, const models::ModelZoo* zoo,
                   const ExperimentConfig& config);
  ~LiveControlPlane() override;

  LiveControlPlane(const LiveControlPlane&) = delete;
  LiveControlPlane& operator=(const LiveControlPlane&) = delete;

  double arrival_rate_qps() const { return calibration_.arrival_rate_qps; }
  double duration_s() const { return duration_s_; }
  double control_interval_s() const { return config_.control_interval_s; }
  const serving::Deployment& initial_deployment() const { return initial_; }

  // serving::LiveControlHook: fires every boundary strictly below
  // `virtual_ts_s` (the simulator serves an arrival at exactly t before
  // the controller steps at t, so the boundary at ts itself waits). The
  // first call starts the twin.
  void OnVirtualAdvance(double virtual_ts_s,
                        serving::VirtualExecutor* executor) override;

  // Fires any boundaries the traffic never crossed and joins the twin once
  // it has run to the end of the run. Call once, after the live server
  // has stopped.
  void Finish(serving::VirtualExecutor* executor);

  // The run report of the embedded twin — the RunReport of the harness's
  // own loop, which the differential test holds against the real harness
  // with RunReportsBitIdentical.
  const RunReport& TwinReport() const;

  struct DeploymentCommit {
    double boundary_s = 0.0;  // control boundary that produced the commit
    double ready_s = 0.0;     // executor's all-GPUs-online time
    serving::Deployment deployment;
  };
  const std::vector<DeploymentCommit>& commits() const { return commits_; }
  const std::vector<OptimizationRun>& history() const;

  // Boundaries the twin has decided so far — its lead over the traffic.
  // Safe from any thread.
  std::size_t decided_boundaries() const {
    return published_.load(std::memory_order_acquire);
  }

 private:
  // One boundary's decision, written by the twin before it is published.
  struct Decision {
    double boundary_s = 0.0;
    std::optional<serving::Deployment> deployment;  // nullopt = unchanged
  };

  void StartTwin();
  void RunTwin();
  bool Publish(double boundary_s, const sim::ClusterSim& sim);
  void WaitForTwin();
  void FireBoundary(serving::VirtualExecutor* executor);

  // Set on the constructing thread, read-only afterwards.
  ExperimentConfig config_;
  const models::ModelZoo* zoo_;
  BaselineCalibration calibration_;
  serving::Deployment initial_;
  double duration_s_ = 0.0;
  std::vector<double> boundaries_;  // ControlBoundaries(interval, duration)

  // Shared: slot i is the twin's until published_ > i, then read-only.
  std::vector<Decision> decisions_;
  std::atomic<std::size_t> published_{0};
  std::atomic<bool> stop_{false};
  std::mutex mu_;  // pairs with cv_ for the serving side's wait
  std::condition_variable cv_;
  std::exception_ptr error_;  // guarded by mu_; set if the twin throws

  // Twin thread only (read after join).
  serving::Deployment last_deployment_;
  RunReport report_;
  std::thread twin_;

  // Serving side only.
  bool started_ = false;
  bool finished_ = false;
  std::size_t fired_ = 0;
  std::vector<DeploymentCommit> commits_;
};

}  // namespace clover::core
