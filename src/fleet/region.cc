#include "fleet/region.h"

#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "graph/config_graph.h"
#include "graph/mapping.h"

namespace clover::fleet {

std::uint64_t RegionSeed(std::uint64_t fleet_seed, std::size_t region_index) {
  // SplitMix64 over (seed, index) — the same derivation discipline as the
  // named RNG streams: adding a region never perturbs existing ones.
  std::uint64_t state = fleet_seed + 0x9e3779b97f4a7c15ULL *
                                         (static_cast<std::uint64_t>(
                                              region_index) +
                                          1);
  return SplitMix64(state);
}

Region::Region(const RegionConfig& config, const models::ModelZoo* zoo,
               carbon::CarbonTrace trace, serving::Deployment initial,
               const sim::SimOptions& sim_options, Fidelity fidelity)
    : config_(config),
      zoo_(zoo),
      trace_(std::move(trace)),
      assigned_qps_(sim_options.arrival_rate_qps) {
  CLOVER_CHECK(zoo_ != nullptr);
  CLOVER_CHECK_MSG(!config_.preset.name.empty(), "region needs a name");
  CLOVER_CHECK(config_.num_gpus > 0);
  CLOVER_CHECK(config_.latency_penalty_ms >= 0.0);
  if (fidelity == Fidelity::kDiscreteEvent)
    sim_ = std::make_unique<sim::ClusterSim>(std::move(initial), *zoo_,
                                             &trace_, sim_options);
  else
    sim_ = std::make_unique<sim::MeanFieldSim>(initial, *zoo_, &trace_,
                                               sim_options);
}

sim::ClusterSim& Region::sim() {
  auto* cluster = std::get_if<std::unique_ptr<sim::ClusterSim>>(&sim_);
  CLOVER_CHECK_MSG(cluster != nullptr,
                   "region '" << name() << "' runs the mean-field tier");
  return **cluster;
}

double Region::now() const {
  return std::visit([](const auto& sim) { return sim->now(); }, sim_);
}

void Region::AdvanceTo(double t) {
  std::visit([t](auto& sim) { sim->AdvanceTo(t); }, sim_);
}

const LogHistogramQuantile& Region::latency_histogram() const {
  return std::visit(
      [](const auto& sim) -> const LogHistogramQuantile& {
        return sim->latency_histogram();
      },
      sim_);
}

void Region::FillRunReport(const opt::ObjectiveParams& params,
                           double fallback_energy_per_request_j,
                           core::RunReport* report) const {
  std::visit(
      [&](const auto& sim) {
        core::FillRunReportFromSim(*sim, params,
                                   fallback_energy_per_request_j, report);
      },
      sim_);
}

void Region::SetAssignedRate(double qps) {
  assigned_qps_ = qps;
  std::visit([qps](auto& sim) { sim->SetArrivalRate(qps); }, sim_);
}

double Region::LatencyPenaltyAt(double t) const {
  return sim::RttPenaltyAt(config_.faults.rtt_spikes,
                           config_.latency_penalty_ms, t);
}

RegionSnapshot Region::Snapshot(double t) const {
  RegionSnapshot snapshot;
  snapshot.name = name();
  snapshot.online = OnlineAt(t);
  snapshot.ci = trace_.At(t);
  if (const auto* cluster =
          std::get_if<std::unique_ptr<sim::ClusterSim>>(&sim_)) {
    // Nominal capacity derated by active GPU fail-stops, so the router
    // reroutes around a partially failed region instead of filling it to a
    // margin its surviving GPUs cannot serve.
    const sim::ClusterSim& sim = **cluster;
    snapshot.capacity_qps =
        graph::NominalCapacityQps(
            graph::ConfigGraph::FromDeployment(sim.deployment(), *zoo_),
            *zoo_) *
        sim.OnlineGpuFraction();
    snapshot.queue_depth = static_cast<double>(sim.queue_depth());
  } else {
    // The fluid tier has no fail-stops: nominal capacity is the capacity.
    const sim::MeanFieldSim& sim =
        *std::get<std::unique_ptr<sim::MeanFieldSim>>(sim_);
    snapshot.capacity_qps = sim.capacity_qps();
    snapshot.queue_depth = sim.backlog();
  }
  snapshot.assigned_qps = assigned_qps_;
  snapshot.latency_penalty_ms = LatencyPenaltyAt(t);
  snapshot.static_weight = config_.static_weight;
  return snapshot;
}

}  // namespace clover::fleet
