// Mean-field fast path for fleet campaigns.
//
// RunFleetMeanField is RunFleet over fluid regions: the same loop
// (fleet/fleet_sim.cc) builds every Region on the fluid tier
// (sim/meanfield.h) instead of the discrete-event one, so calibration,
// traces, routing, control boundaries and report aggregation are shared
// code, not copies. What changes is the cost per region per window — a
// handful of arithmetic operations instead of thousands of heap events —
// which is what lets a 1000-region campaign cell finish in minutes instead
// of hours.
//
// Scope: the fluid tier runs static schemes only (core::Scheme::kBase; an
// adaptive scheme needs the per-region controller, whose evaluations are
// themselves discrete-event runs) and rejects region fault schedules the
// way MeanFieldSim does. Scheduled ingress outages ARE supported — they
// live in the router, not the simulator.
#pragma once

#include "fleet/fleet_sim.h"
#include "models/zoo.h"

namespace clover::fleet {

// Runs the fleet control loop over mean-field regions. CheckError when
// `config.scheme` is adaptive or any region carries a fault schedule.
FleetReport RunFleetMeanField(const FleetConfig& config,
                              const models::ModelZoo& zoo);

}  // namespace clover::fleet
