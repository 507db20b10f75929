// Fleet report aggregation, shared by both fidelity tiers.
//
// RunFleet and RunFleetMeanField run one loop (fleet/fleet_sim.cc) whose
// regions produce the same artifacts on either tier — a core::RunReport, a
// run-level latency histogram and a network penalty. This header is the
// arithmetic that folds them into the fleet report; perfbench's traced
// fleet replays call it too, so their reports match the library's bit for
// bit.
#pragma once

#include <functional>
#include <vector>

#include "common/quantile.h"
#include "fleet/fleet_sim.h"

namespace clover::fleet {

// One region's aggregation inputs. `penalty_at` maps a window start time to
// the network penalty in force (base penalty plus any active RTT spike);
// when empty the base penalty is used for every window.
struct RegionAggregateView {
  const core::RunReport* report = nullptr;
  const LogHistogramQuantile* latency_histogram = nullptr;
  double base_penalty_ms = 0.0;
  std::function<double(double)> penalty_at;
};

// Fills `fleet_report->fleet` (counter/energy/carbon sums, completion-
// weighted accuracy, merged latency quantiles, index-aligned per-window
// series with the descending point-mass p95 rule, objective series) and
// `fleet_report->slo_attainment` from the per-region views. Context fields
// (app/scheme/rate/params), optimization bookkeeping (cache_hits) and
// wall_seconds stay with the caller. `fleet_report->slo_budget_ms` must be
// set before the call (the window SLO verdicts read it).
void AggregateFleetReport(const std::vector<RegionAggregateView>& regions,
                          const opt::ObjectiveParams& params,
                          double fallback_energy_per_request_j,
                          FleetReport* fleet_report);

}  // namespace clover::fleet
