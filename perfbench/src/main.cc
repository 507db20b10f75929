// perfbench: the repository benchmark.
//
//   perfbench --workload <paper_cells|live_replay|geo_fleet|planet_fleet>
//             --seed <n> --seconds <s> --trace <0|1>
//
// Runs one workload, checks its outputs, and prints one JSON object as the
// last line of stdout: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end catalogue, measured with no
// tracing; with --trace 1 they are the per-layer catalogue of a separate
// traced pass. Progress and per-phase health go to stderr. See README.md.
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "measure.h"
#include "obs/metrics.h"

namespace {

bool ParseArgs(int argc, char** argv, perfbench::Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args->seconds = std::stod(value);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  try {
    if (!ParseArgs(argc, argv, &args)) {
      std::cerr << "usage: perfbench --workload <name> --seed <n> "
                   "--seconds <s> --trace <0|1>\n";
      return 2;
    }
  } catch (const std::exception& error) {
    std::cerr << "perfbench: bad argument: " << error.what() << "\n";
    return 2;
  }
  // The program's flight recorder stays off unless a workload measures it.
  clover::obs::SetEnabled(false);
  perfbench::StartReferenceKernel();

  perfbench::Result result;
  try {
    if (args.workload == "paper_cells") {
      perfbench::RunPaperCells(args, &result);
    } else if (args.workload == "live_replay") {
      perfbench::RunLiveReplay(args, &result);
    } else if (args.workload == "geo_fleet") {
      perfbench::RunGeoFleet(args, &result);
    } else if (args.workload == "planet_fleet") {
      perfbench::RunPlanetFleet(args, &result);
    } else {
      std::cerr << "perfbench: unknown workload '" << args.workload << "'\n";
      return 2;
    }
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << args.workload << " aborted: " << error.what()
              << "\n";
    return 1;
  }

  if (args.trace) {
    perfbench::AddMissingLayerMetrics(&result);
  } else {
    const double attempted =
        static_cast<double>(std::max<std::uint64_t>(result.attempted(), 1));
    result.Add("ok_ratio",
               (attempted - static_cast<double>(result.failed())) / attempted,
               "ratio");
    result.Add("peak_rss_mb", perfbench::PeakRssMb(), "MB");
  }
  if (!perfbench::MetricsMatchCatalogue(result, args.trace)) {
    std::cerr << "perfbench: " << args.workload
              << " did not report its metric catalogue\n";
    return 1;
  }
  result.Print();
  return 0;
}
