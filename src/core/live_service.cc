#include "core/live_service.h"

#include <chrono>

#include "common/check.h"

namespace clover::core {

std::vector<net::ScheduledRequest> BuildReplaySchedule(
    double rate_qps, std::uint64_t seed, double duration_s,
    const sim::BurstOptions& burst) {
  CLOVER_CHECK(rate_qps > 0.0 && duration_s > 0.0);
  // Same constructor arguments as ClusterSim's internal stream
  // (sim/cluster_sim.cc): identical named RNG stream, identical draws.
  sim::PoissonArrivals arrivals(rate_qps, seed, burst);
  std::vector<net::ScheduledRequest> schedule;
  schedule.reserve(static_cast<std::size_t>(rate_qps * duration_s * 1.1) + 16);
  std::uint64_t id = 0;
  for (double t = arrivals.NextArrivalTime(); t <= duration_s;
       t = arrivals.NextArrivalTime()) {
    schedule.push_back({.request_id = ++id, .virtual_ts_s = t});
  }
  return schedule;
}

LiveRunResult RunLiveExperiment(ExperimentHarness* harness,
                                const models::ModelZoo* zoo,
                                const ExperimentConfig& config,
                                const LiveRunOptions& options) {
  const auto wall_start = std::chrono::steady_clock::now();
  LiveControlPlane control(harness, zoo, config);

  serving::LiveServerOptions server_options;
  server_options.worker_threads = options.worker_threads;
  server_options.batch_max_requests = options.batch_max_requests;
  if (options.bucket.has_value()) {
    server_options.admission.bucket = *options.bucket;
  } else {
    // No rate shedding: the bucket never empties at any realizable rate.
    server_options.admission.bucket.rate_per_s = 1e12;
    server_options.admission.bucket.burst = 1e12;
  }
  server_options.admission.max_queue_depth = options.max_queue_depth;

  serving::LiveServer server(control.initial_deployment(), *zoo,
                             server_options, &control);
  const std::uint16_t port = server.Start();

  const std::vector<net::ScheduledRequest> schedule = BuildReplaySchedule(
      control.arrival_rate_qps(), config.seed, control.duration_s(),
      config.burst);
  CLOVER_CHECK_MSG(!schedule.empty(), "empty replay schedule");

  net::ReplayOptions replay_options;
  replay_options.port = port;
  replay_options.connections = options.connections;
  replay_options.time_scale = options.time_scale;
  // Past the last boundary, so every control step fires from traffic.
  replay_options.final_beacon_ts_s =
      control.duration_s() + control.control_interval_s();

  LiveRunResult result;
  result.replay = net::Replay(schedule, replay_options);
  server.Stop();
  control.Finish(server.mutable_executor());

  result.stats = server.SnapshotStats();
  result.twin_report = control.TwinReport();
  result.commits = control.commits();
  result.optimizations = control.history();
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  return result;
}

}  // namespace clover::core
