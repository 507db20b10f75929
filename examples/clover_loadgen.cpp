// clover_loadgen — replay a trace-derived arrival schedule against the
// live serving front-end over loopback TCP and report what the server and
// the client each saw.
//
//   clover_loadgen [--scheme base|blover|clover] [--app A] [--trace T]
//                  [--hours H] [--gpus N] [--seed S]
//                  [--workers N] [--connections N]
//                  [--time-scale W]    wall seconds per virtual second
//                                      (default 0 = flood)
//                  [--rate-limit QPS]  finite admission token bucket
//                  [--burst N]         bucket burst (with --rate-limit)
//                  [--depth-limit N]   queue-depth shedding threshold
//                  [--batch N]         batch size cap
//                  [--trace-out F]     dump a Chrome trace (Perfetto) of
//                                      the run; implies observability on
//                  [--metrics-out F]   dump the metrics snapshot log
//
// The schedule is drawn from the same Poisson stream the simulator uses
// (core/live_service.h), so a run here is the wire-served counterpart of
// the corresponding `clover_cli` simulation: same arrivals, same control
// decisions, real sockets. Flood mode (the default) measures the front
// end's throughput ceiling; `--time-scale 1` replays in real time.
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>

#include "carbon/trace_generator.h"
#include "common/table.h"
#include "core/live_service.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace {

using namespace clover;

[[noreturn]] void Usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " [options]\n"
      << "  --scheme base|blover|clover                 (default clover)\n"
      << "  --app detection|language|classification     (default classification)\n"
      << "  --trace ciso-march|ciso-september|eso-march (default ciso-march)\n"
      << "  --hours H          experiment span (default 0.5)\n"
      << "  --gpus N           cluster size (default 4)\n"
      << "  --seed S           RNG seed (default 1)\n"
      << "  --workers N        server worker threads (default 1)\n"
      << "  --connections N    client connections (default 1)\n"
      << "  --time-scale W     wall s per virtual s; 0 = flood (default 0)\n"
      << "  --rate-limit QPS   admission token-bucket rate (default: off)\n"
      << "  --burst N          token-bucket burst (default 100)\n"
      << "  --depth-limit N    shed above this many in flight (default: off)\n"
      << "  --batch N          batch size cap (default 256)\n"
      << "  --trace-out F      write Chrome trace JSON (enables obs)\n"
      << "  --metrics-out F    write metrics snapshot JSON (enables obs)\n";
  std::exit(2);
}

core::Scheme ParseScheme(const std::string& name, const char* argv0) {
  if (name == "base") return core::Scheme::kBase;
  if (name == "blover") return core::Scheme::kBlover;
  if (name == "clover") return core::Scheme::kClover;
  std::cerr << "unknown scheme " << name << " (live path: base|blover|clover)\n";
  Usage(argv0);
}

models::Application ParseApp(const std::string& name, const char* argv0) {
  if (name == "detection") return models::Application::kDetection;
  if (name == "language") return models::Application::kLanguage;
  if (name == "classification") return models::Application::kClassification;
  std::cerr << "unknown application " << name << "\n";
  Usage(argv0);
}

carbon::TraceProfile ParseProfile(const std::string& name,
                                  const char* argv0) {
  if (name == "ciso-march") return carbon::TraceProfile::kCisoMarch;
  if (name == "ciso-september") return carbon::TraceProfile::kCisoSeptember;
  if (name == "eso-march") return carbon::TraceProfile::kEsoMarch;
  std::cerr << "unknown trace profile " << name << "\n";
  Usage(argv0);
}

}  // namespace

int main(int argc, char** argv) {
  core::ExperimentConfig config;
  config.scheme = core::Scheme::kClover;
  config.duration_hours = 0.5;
  config.num_gpus = config.sizing_gpus = 4;

  std::string trace_name = "ciso-march";
  std::string trace_out, metrics_out;
  core::LiveRunOptions options;
  double bucket_burst = 100.0;
  std::optional<double> rate_limit;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) Usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--scheme") {
      config.scheme = ParseScheme(next(), argv[0]);
    } else if (arg == "--app") {
      config.app = ParseApp(next(), argv[0]);
    } else if (arg == "--trace") {
      trace_name = next();
    } else if (arg == "--hours") {
      config.duration_hours = std::stod(next());
    } else if (arg == "--gpus") {
      config.num_gpus = config.sizing_gpus = std::stoi(next());
    } else if (arg == "--seed") {
      config.seed = std::stoull(next());
    } else if (arg == "--workers") {
      options.worker_threads = static_cast<std::size_t>(std::stoul(next()));
    } else if (arg == "--connections") {
      options.connections = std::stoi(next());
    } else if (arg == "--time-scale") {
      options.time_scale = std::stod(next());
    } else if (arg == "--rate-limit") {
      rate_limit = std::stod(next());
    } else if (arg == "--burst") {
      bucket_burst = std::stod(next());
    } else if (arg == "--depth-limit") {
      options.max_queue_depth = static_cast<std::size_t>(std::stoul(next()));
    } else if (arg == "--batch") {
      options.batch_max_requests = static_cast<std::size_t>(std::stoul(next()));
    } else if (arg == "--trace-out") {
      trace_out = next();
    } else if (arg == "--metrics-out") {
      metrics_out = next();
    } else {
      Usage(argv[0]);
    }
  }
  if (!trace_out.empty() || !metrics_out.empty()) {
    obs::SetEnabled(true);
    obs::Tracer::Get().Enable();
  }
  if (rate_limit.has_value()) {
    options.bucket = net::TokenBucketOptions{.rate_per_s = *rate_limit,
                                             .burst = bucket_burst};
  }

  carbon::TraceGeneratorOptions trace_options;
  trace_options.duration_hours = config.duration_hours;
  const carbon::CarbonTrace trace =
      GenerateTrace(ParseProfile(trace_name, argv[0]), trace_options);
  config.trace = &trace;

  core::ExperimentHarness harness(&models::DefaultZoo());
  const core::LiveRunResult result = core::RunLiveExperiment(
      &harness, &models::DefaultZoo(), config, options);

  const net::ReplayReport& replay = result.replay;
  const serving::LiveStats& stats = result.stats;

  TextTable client({"load generator", "value"});
  client.AddRow({"requests sent", std::to_string(replay.sent)});
  client.AddRow({"ok responses", std::to_string(replay.ok)});
  client.AddRow({"shed (rate / queue)",
                 std::to_string(replay.shed_rate) + " / " +
                     std::to_string(replay.shed_queue)});
  client.AddRow({"all acked", replay.all_acked ? "yes" : "no"});
  client.AddRow({"wall time (s)", TextTable::Num(replay.wall_seconds, 3)});
  client.AddRow({"achieved throughput (req/s)",
                 TextTable::Num(replay.achieved_qps, 0)});
  client.AddRow(
      {"shed rate (%)",
       TextTable::Num(replay.sent > 0 ? 100.0 * double(replay.shed()) /
                                            double(replay.sent)
                                      : 0.0,
                      2)});
  client.AddRow({"virtual p50 (ms)",
                 TextTable::Num(replay.ok_latency_virtual_ms.Quantile(0.50),
                                2)});
  client.AddRow({"virtual p99 (ms)",
                 TextTable::Num(replay.ok_latency_virtual_ms.Quantile(0.99),
                                2)});
  client.Print(std::cout);

  std::cout << "\n";
  TextTable server({"server", "value"});
  server.AddRow({"offered", std::to_string(stats.admission.offered)});
  server.AddRow({"admitted", std::to_string(stats.admission.admitted)});
  server.AddRow({"completed", std::to_string(stats.completed)});
  server.AddRow({"batches", std::to_string(stats.batches)});
  server.AddRow({"mean batch fill", TextTable::Num(stats.mean_batch_fill, 1)});
  server.AddRow({"virtual p50 (ms)",
                 TextTable::Num(stats.p50_virtual_ms, 2)});
  server.AddRow({"virtual p99 (ms)",
                 TextTable::Num(stats.p99_virtual_ms, 2)});
  server.AddRow({"mean accuracy (top-1 %)",
                 TextTable::Num(stats.mean_accuracy, 2)});
  server.AddRow({"deployment commits",
                 std::to_string(result.commits.size())});
  server.AddRow({"controller optimizations",
                 std::to_string(result.optimizations.size())});
  server.AddRow({"twin carbon (g CO2)",
                 TextTable::Num(result.twin_report.total_carbon_g, 1)});
  server.AddRow({"twin weighted accuracy",
                 TextTable::Num(result.twin_report.weighted_accuracy, 2)});
  server.Print(std::cout);

  // Flight-recorder dumps after the run is fully quiesced (server stopped,
  // workers joined), so the ring snapshots are exact.
  if (!trace_out.empty()) {
    obs::Tracer::Get().WriteChromeTrace(trace_out);
    std::cout << "\nwrote trace " << trace_out << "\n";
  }
  if (!metrics_out.empty()) {
    obs::Registry::Get().WriteMetricsJson(metrics_out);
    std::cout << "wrote metrics " << metrics_out << "\n";
  }

  return replay.all_acked ? 0 : 1;
}
