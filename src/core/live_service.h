// End-to-end live serving runs: schedule construction + server + control
// plane + replay client, wired the way bench_runner, clover_loadgen and
// the differential test all consume it.
//
// The load model: BuildReplaySchedule draws the arrival schedule from
// sim::PoissonArrivals with the same (rate, seed, burst) the simulator
// uses internally — so the requests the live server receives over TCP are
// *the same arrival process, timestamp for timestamp*, that the twin sim
// and the reference harness run generate for themselves. That identity is
// what reduces "live vs simulated" to a controlled experiment: same
// arrivals, same control loop, only the serving substrate differs.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/live_control.h"
#include "net/replay_client.h"
#include "serving/live_server.h"
#include "sim/arrivals.h"

namespace clover::core {

// Arrival schedule on [0, duration_s], drawn from the simulator's Poisson
// stream. request_ids are 1-based schedule positions.
std::vector<net::ScheduledRequest> BuildReplaySchedule(
    double rate_qps, std::uint64_t seed, double duration_s,
    const sim::BurstOptions& burst = {});

struct LiveRunOptions {
  std::size_t worker_threads = 1;
  int connections = 1;
  // Wall seconds per virtual second for the replay (net/replay_client.h);
  // 0 floods as fast as the transport allows.
  double time_scale = 0.0;
  std::size_t batch_max_requests = 256;
  // Admission. Unset bucket = effectively unlimited (no rate shedding):
  // differential runs must serve the full schedule. Benches set a finite
  // rate to exercise shedding.
  std::optional<net::TokenBucketOptions> bucket;
  std::size_t max_queue_depth = 0;
};

struct LiveRunResult {
  net::ReplayReport replay;       // client-side accounting
  serving::LiveStats stats;       // server-side accounting
  RunReport twin_report;          // the embedded twin's harness-style report
  std::vector<LiveControlPlane::DeploymentCommit> commits;
  std::vector<OptimizationRun> optimizations;
  double wall_seconds = 0.0;
};

// Runs one live experiment to completion: starts a LiveServer on loopback
// with a LiveControlPlane for `config`, replays the schedule through it,
// drains, and assembles the result. Blocking; uses the calling thread as
// the load generator.
LiveRunResult RunLiveExperiment(ExperimentHarness* harness,
                                const models::ModelZoo* zoo,
                                const ExperimentConfig& config,
                                const LiveRunOptions& options);

}  // namespace clover::core
