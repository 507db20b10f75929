#include "core/live_control.h"

#include <chrono>

#include "common/check.h"
#include "common/units.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace clover::core {

LiveControlPlane::LiveControlPlane(ExperimentHarness* harness,
                                   const models::ModelZoo* zoo,
                                   const ExperimentConfig& config)
    : config_(config), zoo_(zoo) {
  CLOVER_CHECK(harness != nullptr && zoo != nullptr);
  CLOVER_CHECK(config.trace != nullptr);
  CLOVER_CHECK_MSG(config.scheme == Scheme::kBase ||
                       config.scheme == Scheme::kClover ||
                       config.scheme == Scheme::kBlover,
                   "live control plane serves BASE/CLOVER/BLOVER only");
  calibration_ =
      harness->Calibrate(config.app, config.sizing_gpus,
                         config.utilization_target, config.arrival_rate_qps,
                         config.seed);
  initial_ = serving::MakeBase(config.app, config.num_gpus);
  last_deployment_ = initial_;
  duration_s_ = HoursToSeconds(config.duration_hours);
  boundaries_ = ControlBoundaries(config.control_interval_s, duration_s_);
  decisions_.resize(boundaries_.size());
}

LiveControlPlane::~LiveControlPlane() {
  stop_.store(true, std::memory_order_relaxed);
  if (twin_.joinable()) twin_.join();
}

void LiveControlPlane::StartTwin() {
  started_ = true;
  twin_ = std::thread([this] { RunTwin(); });
}

void LiveControlPlane::RunTwin() {
  CLOVER_TRACE_SCOPE("core.live.twin");
  try {
    report_ = RunCalibrated(
        *zoo_, config_, calibration_, nullptr,
        [this](double boundary_s, const sim::ClusterSim& sim) {
          return Publish(boundary_s, sim);
        });
  } catch (...) {
    // Forwarded to the serving side: rethrown by the boundary waiting for
    // a decision the twin will never publish, or by Finish.
    std::lock_guard<std::mutex> lock(mu_);
    error_ = std::current_exception();
  }
  cv_.notify_all();
}

bool LiveControlPlane::Publish(double boundary_s, const sim::ClusterSim& sim) {
  const std::size_t index = published_.load(std::memory_order_relaxed);
  CLOVER_CHECK(index < decisions_.size());
  Decision& decision = decisions_[index];
  decision.boundary_s = boundary_s;
  if (sim.deployment() != last_deployment_) {
    last_deployment_ = sim.deployment();
    decision.deployment = last_deployment_;
  }
  {
    // Publishing under the lock pairs with the waiter's predicate check,
    // so a wakeup between its check and its sleep cannot be lost.
    std::lock_guard<std::mutex> lock(mu_);
    published_.store(index + 1, std::memory_order_release);
  }
  cv_.notify_all();
  return !stop_.load(std::memory_order_relaxed);
}

void LiveControlPlane::WaitForTwin() {
  CLOVER_TRACE_SCOPE("core.live.twin_wait");
  const auto start = std::chrono::steady_clock::now();
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] {
      return published_.load(std::memory_order_acquire) > fired_ || error_;
    });
    if (published_.load(std::memory_order_acquire) <= fired_)
      std::rethrow_exception(error_);
  }
  const double wait_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  CLOVER_OBS_COUNT("core.live.twin_waits", 1);
  CLOVER_OBS_OBSERVE("core.live.twin_wait_ms", wait_ms);
}

void LiveControlPlane::FireBoundary(serving::VirtualExecutor* executor) {
  // Blocks only when the twin is behind.
  if (published_.load(std::memory_order_acquire) <= fired_) WaitForTwin();
  const Decision& decision = decisions_[fired_++];
  if (!decision.deployment.has_value()) return;
  DeploymentCommit commit;
  commit.boundary_s = decision.boundary_s;
  commit.deployment = *decision.deployment;
  commit.ready_s = executor != nullptr
                       ? executor->ApplyDeployment(commit.deployment, *zoo_,
                                                   decision.boundary_s)
                       : decision.boundary_s;
  commits_.push_back(std::move(commit));
}

void LiveControlPlane::OnVirtualAdvance(double virtual_ts_s,
                                        serving::VirtualExecutor* executor) {
  if (!started_) StartTwin();
  while (fired_ < boundaries_.size() && virtual_ts_s > boundaries_[fired_])
    FireBoundary(executor);
}

void LiveControlPlane::Finish(serving::VirtualExecutor* executor) {
  if (finished_) return;
  if (!started_) StartTwin();
  while (fired_ < boundaries_.size()) FireBoundary(executor);
  twin_.join();
  if (error_) std::rethrow_exception(error_);
  finished_ = true;
}

const RunReport& LiveControlPlane::TwinReport() const {
  CLOVER_CHECK_MSG(finished_, "TwinReport before Finish()");
  return report_;
}

const std::vector<OptimizationRun>& LiveControlPlane::history() const {
  CLOVER_CHECK_MSG(finished_, "history before Finish()");
  return report_.optimizations;
}

}  // namespace clover::core
