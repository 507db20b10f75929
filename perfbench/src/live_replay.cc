// live_replay: the operator's path. CLOVER classification behind a real
// serving::LiveServer with its core::LiveControlPlane twin, on loopback.
//
// Load is an open loop from this file's single-threaded client, speaking
// the net/frame codec directly. The arrival schedule is
// core::BuildReplaySchedule's (its virtual timestamps drive the twin); the
// wall pacing is the benchmark's own: the schedule is cut into blocks, one
// per 300 s control boundary (every block but the first holds exactly one
// boundary, at its middle), and each block is sent at one fixed wall rate —
// lo, mid or hi, in a fixed pattern — with request k of a block due at
// block_start + k / rate. A request's latency is measured from when it was
// due, so a server stall also charges the requests queued behind it.
// Between blocks the client waits until every request is answered, so one
// rate phase's backlog never leaks into another's samples. An untraced run
// makes full replays for its length (kPasses at least), each on a fresh
// server and control plane.
//
// Client + ingest thread + workers never exceed the host's cores.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <iostream>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/units.h"
#include "core/harness.h"
#include "core/live_control.h"
#include "core/live_service.h"
#include "exp/campaign.h"
#include "measure.h"
#include "models/zoo.h"
#include "net/frame.h"
#include "serving/live_server.h"

namespace perfbench {
namespace {

namespace core = clover::core;
namespace net = clover::net;

constexpr int kGpus = 4;
constexpr double kHours = 6.0;
constexpr int kSetupRepeats = 7;
// One worker: the ticket-ordered section serializes execution anyway, and
// client + ingest + worker leave a core of a 4-core host free.
constexpr std::size_t kWorkers = 1;

// The fixed wall rates (requests per second) and the block pattern that
// assigns them: of every six blocks, three run at hi, two at mid, one at lo.
constexpr int kPhases = 3;
constexpr const char* kPhaseNames[kPhases] = {"lo", "mid", "hi"};
constexpr double kPhaseRates[kPhases] = {100e3, 300e3, 600e3};
constexpr int kBlockPattern[] = {2, 1, 2, 0, 2, 1};
// A rate phase meets its limit when it fails no request and, over its
// blocks, the median block p99 stays at or below this and the median
// backlog left at a block's last send stays below the limit's worth of
// arrivals at the phase's rate (a growing queue).
constexpr double kLatencyLimitMs = 10.0;
// Full replays per run, at least; a run makes as many as start within its
// length. The end-to-end figures are medians over them.
constexpr int kPasses = 3;
constexpr double kDrainTimeoutS = 30.0;

struct Phase {
  std::vector<double> latency_ms;
  std::vector<double> late_ms;
  // Per block of the phase: p50 and p99 of its requests' latencies.
  std::vector<double> block_p50_ms;
  std::vector<double> block_p99_ms;
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  std::uint64_t outstanding_max = 0;
  std::vector<double> block_backlog;  // outstanding at each block's last send
  double busy_s = 0.0;  // wall time its blocks took, drains excluded

  // Over every request of the phase; failed requests count as misses.
  double P99() const {
    std::vector<double> all = latency_ms;
    all.insert(all.end(), failed, std::numeric_limits<double>::infinity());
    return Quantile(std::move(all), 0.99);
  }
  // The typical block: medians over the phase's blocks. Each block holds
  // one control boundary, so these read the latency a client sees around
  // a routine boundary, robust to the odd block a noisy host disturbs.
  double BlockP50() const { return Median(block_p50_ms); }
  double BlockP99() const { return Median(block_p99_ms); }
  bool MeetsLimit(double rate) const {
    return sent > 0 && failed == 0 && BlockP99() <= kLatencyLimitMs &&
           Median(block_backlog) < rate * kLatencyLimitMs * 1e-3;
  }
};

struct ReplayOutcome {
  Phase phases[kPhases];
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;
  bool all_acked = false;
  double wall_s = 0.0;
};

// Times every control boundary the hook fires (core.live_control_ms). The
// boundary arithmetic mirrors LiveControlPlane's loop so only calls that
// fire a boundary are sampled.
class TimedHook : public clover::serving::LiveControlHook {
 public:
  explicit TimedHook(core::LiveControlPlane* inner)
      : inner_(inner), next_boundary_s_(inner->control_interval_s()) {}
  void OnVirtualAdvance(double virtual_ts_s,
                        clover::serving::VirtualExecutor* executor) override {
    double next = next_boundary_s_;
    int fired = 0;
    while (next <= inner_->duration_s() + 1e-9 && virtual_ts_s > next) {
      next += inner_->control_interval_s();
      ++fired;
    }
    if (fired == 0) {
      inner_->OnVirtualAdvance(virtual_ts_s, executor);
      return;
    }
    const auto start = Clock::now();
    inner_->OnVirtualAdvance(virtual_ts_s, executor);
    samples_ms_.push_back(SecondsSince(start) * 1e3);
    boundaries_ += fired;
    next_boundary_s_ = next;
  }
  const std::vector<double>& samples_ms() const { return samples_ms_; }
  int boundaries() const { return boundaries_; }

 private:
  core::LiveControlPlane* inner_;
  double next_boundary_s_;
  std::vector<double> samples_ms_;
  int boundaries_ = 0;
};

core::ExperimentConfig LiveConfig(const clover::carbon::CarbonTrace* trace,
                                  std::uint64_t seed, core::Scheme scheme) {
  clover::exp::CellSpec cell;
  cell.scheme = scheme;
  cell.app = clover::models::Application::kClassification;
  cell.gpus = kGpus;
  cell.hours = kHours;
  cell.seed = seed;
  return clover::exp::MakeCellConfig(cell, {}, trace);
}

clover::carbon::CarbonTrace LiveTrace(std::uint64_t seed) {
  clover::exp::CellSpec cell;
  cell.hours = kHours;
  cell.seed = seed;
  return clover::exp::MakeCellTrace(cell);
}

// Server + control plane + schedule, ready for traffic.
struct Rig {
  Rig(const core::ExperimentConfig& config, bool traced)
      : harness(&clover::models::DefaultZoo()) {
    const clover::models::ModelZoo& zoo = clover::models::DefaultZoo();
    const auto calibrate_start = Clock::now();
    harness.Calibrate(config.app, config.sizing_gpus,
                      config.utilization_target, config.arrival_rate_qps,
                      config.seed);
    calibrate_s = SecondsSince(calibrate_start);
    control = std::make_unique<core::LiveControlPlane>(&harness, &zoo, config);
    if (traced) hook = std::make_unique<TimedHook>(control.get());
    clover::serving::LiveServerOptions options;
    options.worker_threads = kWorkers;
    // No rate shedding: the bucket never empties at a realizable rate.
    options.admission.bucket.rate_per_s = 1e12;
    options.admission.bucket.burst = 1e12;
    clover::serving::LiveControlHook* active =
        hook != nullptr ? static_cast<clover::serving::LiveControlHook*>(
                              hook.get())
                        : control.get();
    server = std::make_unique<clover::serving::LiveServer>(
        control->initial_deployment(), zoo, options, active);
    const auto start_start = Clock::now();
    port = server->Start();
    start_s = SecondsSince(start_start);
    schedule = core::BuildReplaySchedule(control->arrival_rate_qps(),
                                         config.seed, control->duration_s(),
                                         config.burst);
  }

  core::ExperimentHarness harness;
  std::unique_ptr<core::LiveControlPlane> control;
  std::unique_ptr<TimedHook> hook;
  std::unique_ptr<clover::serving::LiveServer> server;
  std::vector<net::ScheduledRequest> schedule;
  std::uint16_t port = 0;
  double calibrate_s = 0.0;
  double start_s = 0.0;
};

// A connected, non-blocking loopback socket; closed on destruction.
class Connection {
 public:
  explicit Connection(std::uint16_t port) {
    fd_ = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
            0 &&
        errno != EINPROGRESS) {
      close(fd_);
      throw std::runtime_error("connect() failed");
    }
    pollfd pfd{fd_, POLLOUT, 0};
    if (poll(&pfd, 1, 5000) != 1) {
      close(fd_);
      throw std::runtime_error("connect() timed out");
    }
    const int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  ~Connection() { close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;
  int fd() const { return fd_; }

 private:
  int fd_ = -1;
};

// The open-loop client. Single-threaded: it writes due requests, reads
// responses, and accounts both, in one poll loop.
class OpenLoopClient {
 public:
  OpenLoopClient(const std::vector<net::ScheduledRequest>& schedule,
                 std::uint16_t port, double beacon_ts_s)
      : schedule_(schedule),
        connection_(port),
        beacon_ts_s_(beacon_ts_s),
        due_s_(schedule.size() + 1, 0.0),
        phase_of_(schedule.size() + 1, 0),
        answered_(schedule.size() + 1, 0) {}

  ReplayOutcome Run(double interval_s) {
    ReplayOutcome outcome;
    epoch_ = Clock::now();
    std::size_t next = 0;
    int block = 0;
    while (next < schedule_.size()) {
      // Block `block` holds the requests stamped in
      // [(block - 0.5) * interval, (block + 0.5) * interval).
      const double block_end_ts = (block + 0.5) * interval_s;
      std::size_t end = next;
      while (end < schedule_.size() &&
             schedule_[end].virtual_ts_s < block_end_ts)
        ++end;
      const int phase =
          kBlockPattern[block % static_cast<int>(std::size(kBlockPattern))];
      ++block;
      if (end == next) continue;
      Phase& stats = outcome.phases[phase];
      const std::size_t first_latency = stats.latency_ms.size();
      const std::uint64_t failed_before = stats.failed;
      SendBlock(next, end, phase, &outcome);
      next = end;
      if (!Drain(&outcome)) break;
      std::vector<double> block_ms(stats.latency_ms.begin() + first_latency,
                                   stats.latency_ms.end());
      block_ms.insert(block_ms.end(), stats.failed - failed_before,
                      std::numeric_limits<double>::infinity());
      stats.block_p50_ms.push_back(Quantile(block_ms, 0.5));
      stats.block_p99_ms.push_back(Quantile(std::move(block_ms), 0.99));
    }
    std::vector<std::uint8_t> beacon;
    net::AppendClockBeacon(&beacon, {beacon_ts_s_});
    out_.insert(out_.end(), beacon.begin(), beacon.end());
    outcome.all_acked = Drain(&outcome);
    outcome.wall_s = Now();
    for (std::size_t id = 1; id < answered_.size(); ++id)
      if (id <= sent_ && !answered_[id]) ++outcome.phases[phase_of_[id]].failed;
    outcome.sent = sent_;
    for (const Phase& phase : outcome.phases) outcome.ok += phase.ok;
    outcome.shed = shed_;
    return outcome;
  }

 private:
  double Now() const { return SecondsSince(epoch_); }

  void SendBlock(std::size_t first, std::size_t end, int phase_index,
                 ReplayOutcome* outcome) {
    Phase& phase = outcome->phases[phase_index];
    const double rate = kPhaseRates[phase_index];
    const double start = Now();
    std::size_t next = first;
    std::uint64_t outstanding_at_end = 0;
    while (next < end) {
      const double now = Now();
      int burst = 0;
      while (next < end && burst < 4096) {
        const double due = start + static_cast<double>(next - first) / rate;
        if (due > now) break;
        const net::ScheduledRequest& request = schedule_[next];
        net::AppendRequest(&out_, {request.request_id, request.virtual_ts_s});
        due_s_[request.request_id] = due;
        phase_of_[request.request_id] = static_cast<std::uint8_t>(phase_index);
        phase.late_ms.push_back((now - due) * 1e3);
        ++phase.sent;
        ++sent_;
        ++next;
        ++burst;
      }
      const std::uint64_t outstanding = sent_ - received_;
      phase.outstanding_max = std::max(phase.outstanding_max, outstanding);
      outstanding_at_end = outstanding;
      Pump(0, outcome);
    }
    phase.busy_s += Now() - start;
    phase.block_backlog.push_back(static_cast<double>(outstanding_at_end));
  }

  // Flushes pending writes and waits until every sent request is
  // answered; false on timeout.
  bool Drain(ReplayOutcome* outcome) {
    const double deadline = Now() + kDrainTimeoutS;
    while (received_ < sent_ || !out_.empty()) {
      if (Now() > deadline) return false;
      Pump(1, outcome);
    }
    return true;
  }

  // One round of non-blocking I/O: write what is buffered, read and
  // account what has arrived. `timeout_ms` bounds the wait for readiness.
  void Pump(int timeout_ms, ReplayOutcome* outcome) {
    pollfd pfd{connection_.fd(),
               static_cast<short>(POLLIN | (out_.empty() ? 0 : POLLOUT)), 0};
    if (poll(&pfd, 1, timeout_ms) < 0 && errno != EINTR)
      throw std::runtime_error("poll() failed");
    if (!out_.empty()) {
      const ssize_t written =
          send(connection_.fd(), out_.data(), out_.size(), MSG_NOSIGNAL);
      if (written > 0) {
        out_.erase(out_.begin(), out_.begin() + written);
      } else if (written < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
        throw std::runtime_error("send() failed");
      }
    }
    for (;;) {
      const ssize_t got = recv(connection_.fd(), in_, sizeof(in_), 0);
      if (got == 0) throw std::runtime_error("server closed the connection");
      if (got < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        throw std::runtime_error("recv() failed");
      }
      const double now = Now();
      decoder_.Feed(in_, static_cast<std::size_t>(got));
      while (std::optional<net::Frame> frame = decoder_.Next()) {
        if (frame->type != net::FrameType::kResponse) continue;
        const std::uint64_t id = frame->response.request_id;
        if (id == 0 || id > sent_ || answered_[id])
          throw std::runtime_error("unexpected response id");
        answered_[id] = 1;
        ++received_;
        Phase& phase = outcome->phases[phase_of_[id]];
        if (frame->response.status == net::ResponseStatus::kOk) {
          ++phase.ok;
          phase.latency_ms.push_back((now - due_s_[id]) * 1e3);
        } else {
          ++phase.failed;
          ++shed_;
        }
      }
      if (decoder_.error()) throw std::runtime_error("bad response frame");
    }
  }

  const std::vector<net::ScheduledRequest>& schedule_;
  Connection connection_;
  double beacon_ts_s_;
  Clock::time_point epoch_;
  std::vector<double> due_s_;           // by request id
  std::vector<std::uint8_t> phase_of_;  // by request id
  std::vector<std::uint8_t> answered_;  // by request id
  std::vector<std::uint8_t> out_;
  std::uint8_t in_[1 << 16];
  net::FrameDecoder decoder_;
  std::uint64_t sent_ = 0;
  std::uint64_t received_ = 0;
  std::uint64_t shed_ = 0;
};

// One full live run: traffic, drain, stop, twin finish. Checks the
// client's and the server's accounting.
struct LiveRun {
  ReplayOutcome replay;
  clover::serving::LiveStats stats;
  core::RunReport twin;
  double stop_s = 0.0;
};

LiveRun DriveLive(Rig* rig, Result* result) {
  LiveRun run;
  {
    OpenLoopClient client(
        rig->schedule, rig->port,
        rig->control->duration_s() + rig->control->control_interval_s());
    run.replay = client.Run(rig->control->control_interval_s());
  }
  const auto stop_start = Clock::now();
  rig->server->Stop();
  run.stop_s = SecondsSince(stop_start);
  rig->control->Finish(rig->server->mutable_executor());
  run.stats = rig->server->SnapshotStats();
  run.twin = rig->control->TwinReport();

  const ReplayOutcome& replay = run.replay;
  result->CountOps(replay.sent, replay.sent - replay.ok);
  result->Check(replay.sent == rig->schedule.size(),
                "live_replay: not every scheduled request was sent");
  result->Check(replay.all_acked && replay.sent == replay.ok + replay.shed,
                "live_replay: sent != ok + shed, or requests left unacked");
  result->Check(run.stats.admission.offered == replay.sent &&
                    run.stats.completed == replay.ok,
                "live_replay: server and client accounting disagree");
  for (int p = 0; p < kPhases; ++p) {
    const Phase& phase = replay.phases[p];
    std::cerr << "perfbench: live_replay phase " << kPhaseNames[p] << " ("
              << kPhaseRates[p] << " req/s): sent " << phase.sent << ", ok "
              << phase.ok << ", failed " << phase.failed << ", p50 "
              << Median(phase.latency_ms) << " ms, p99 " << phase.P99()
              << " ms, block p50 " << phase.BlockP50() << " ms, block p99 "
              << phase.BlockP99() << " ms, generator late p99 "
              << Quantile(phase.late_ms, 0.99) << " ms, outstanding max "
              << phase.outstanding_max
              << (phase.MeetsLimit(kPhaseRates[p]) ? "" : "  [misses limit]")
              << "\n";
  }
  return run;
}

// The twin's report must equal the harness's for the same configuration.
void CheckTwin(const core::RunReport& twin, const core::RunReport& reference,
               Result* result) {
  result->Check(core::RunReportsBitIdentical(twin, reference),
                "live_replay: twin report differs from ExperimentHarness::Run");
}

// Achieved rate of the highest fixed rate that meets the limit; 0 when
// none does.
double MaxQps(const ReplayOutcome& replay) {
  for (int p = kPhases - 1; p >= 0; --p) {
    const Phase& phase = replay.phases[p];
    if (phase.MeetsLimit(kPhaseRates[p]) && phase.busy_s > 0.0)
      return static_cast<double>(phase.ok) / phase.busy_s;
  }
  return 0.0;
}

// The twin's CLOVER run judged against the harness's BASE run.
Outcome LiveOutcome(const core::RunReport& twin, const core::RunReport& base) {
  Outcome outcome;
  outcome.carbon_rel_pct = 100.0 - twin.CarbonSavePctVs(base);
  outcome.accuracy_rel_pct = 100.0 - twin.AccuracyLossPctVs(base);
  outcome.p95_norm = twin.P95NormVs(base);
  std::uint64_t windows = 0;
  std::uint64_t windows_met = 0;
  for (const clover::sim::WindowRecord& window : twin.windows) {
    if (window.completions == 0) continue;
    ++windows;
    if (window.p95_ms <= twin.params.l_tail_ms) ++windows_met;
  }
  if (windows > 0)
    outcome.slo_attainment_pct = 100.0 * static_cast<double>(windows_met) /
                                 static_cast<double>(windows);
  return outcome;
}

void TracedLiveReplay(const Args& args, const core::ExperimentConfig& config,
                      const core::RunReport& reference,
                      const core::RunReport& base,
                      const clover::carbon::CarbonTrace& trace,
                      Result* result) {
  // Untraced pass first: the wall time the trace overhead is judged by.
  double untraced_wall = 0.0;
  {
    const auto start = Clock::now();
    Rig rig(config, false);
    CheckTwin(DriveLive(&rig, result).twin, reference, result);
    untraced_wall = SecondsSince(start);
  }

  LayerTrace layers;
  const auto start = Clock::now();
  {
    Span span(&layers, "carbon.trace");
    const clover::carbon::CarbonTrace copy = LiveTrace(args.seed);
    result->Check(copy.values() == trace.values(),
                  "live_replay: trace is not a function of the seed");
  }
  std::unique_ptr<Rig> rig;
  {
    Span span(&layers, "serving.setup");
    rig = std::make_unique<Rig>(config, true);
  }
  LiveRun run;
  {
    Span span(&layers, "bench.replay");
    run = DriveLive(rig.get(), result);
  }
  const double traced_wall = SecondsSince(start);
  CheckTwin(run.twin, reference, result);

  const std::vector<double>& control = rig->hook->samples_ms();
  result->Add("core.calibrate_s", rig->calibrate_s, "s");
  result->Add("carbon.trace_s", layers.Busy("carbon.trace"), "s");
  result->Add("core.live_control_ms.p50", Median(control), "ms");
  result->Add("core.live_control_ms.tail", TailQuantile(control), "ms");
  result->Add("core.live_control_ms.max", Quantile(control, 1.0), "ms");
  result->Add("core.live_boundaries", rig->hook->boundaries(), "count");
  result->Add("core.invocations",
              static_cast<double>(run.twin.optimizations.size()), "count");
  result->Add("serving.batches", static_cast<double>(run.stats.batches),
              "count");
  result->Add("serving.batch_fill", run.stats.mean_batch_fill, "req");
  result->Add("net.admitted",
              static_cast<double>(run.stats.admission.admitted), "count");
  result->Add("net.shed", static_cast<double>(run.stats.admission.shed()),
              "count");
  result->Add("serving.start_s", rig->start_s, "s");
  result->Add("serving.stop_s", run.stop_s, "s");
  const ReplayOutcome& replay = run.replay;
  result->Add("bench.live_p50_ms.lo", Median(replay.phases[0].latency_ms),
              "ms");
  result->Add("bench.live_p99_ms.lo", replay.phases[0].P99(), "ms");
  result->Add("bench.live_p50_ms.hi",
              Median(replay.phases[kPhases - 1].latency_ms), "ms");
  result->Add("bench.live_p99_ms.hi", replay.phases[kPhases - 1].P99(), "ms");
  result->Add("bench.live_max_qps", MaxQps(replay), "1/s");
  for (int p = 0; p < kPhases; ++p) {
    const Phase& phase = replay.phases[p];
    const std::string prefix = std::string("bench.") + kPhaseNames[p] + ".";
    result->Add(prefix + "sent", static_cast<double>(phase.sent), "count");
    result->Add(prefix + "ok", static_cast<double>(phase.ok), "count");
    result->Add(prefix + "failed", static_cast<double>(phase.failed), "count");
    result->Add(prefix + "gen_late_ms.p99", Quantile(phase.late_ms, 0.99),
                "ms");
    result->Add(prefix + "gen_late_ms.max", Quantile(phase.late_ms, 1.0),
                "ms");
    result->Add(prefix + "outstanding_max",
                static_cast<double>(phase.outstanding_max), "count");
  }
  AddOutcome(LiveOutcome(run.twin, base), true, result);
  result->Add("bench.coverage", layers.top_level_busy_s() / traced_wall,
              "ratio");
  result->Add("bench.trace_overhead_pct",
              (traced_wall / untraced_wall - 1.0) * 100.0, "%");
}

}  // namespace

void RunLiveReplay(const Args& args, Result* result) {
  const clover::carbon::CarbonTrace trace = LiveTrace(args.seed);
  const core::ExperimentConfig config =
      LiveConfig(&trace, args.seed, core::Scheme::kClover);

  // Reference results the live run is checked and judged against: the
  // harness run of the same configuration, and its BASE twin.
  core::ExperimentHarness harness(&clover::models::DefaultZoo());
  const core::RunReport reference = harness.Run(config);
  const core::RunReport base =
      harness.Run(LiveConfig(&trace, args.seed, core::Scheme::kBase));
  if (args.trace) {
    TracedLiveReplay(args, config, reference, base, trace, result);
    return;
  }

  // Set-up: calibration, control plane, server start, schedule; timed for
  // every rig, the passes' included.
  std::vector<double> setups;
  auto make_rig = [&] {
    const auto start = Clock::now();
    auto rig = std::make_unique<Rig>(config, false);
    setups.push_back(SecondsSince(start));
    return rig;
  };
  while (static_cast<int>(setups.size()) < kSetupRepeats - kPasses)
    make_rig();

  std::vector<double> max_qps, hours_per_s, p50_ms, tail_ms;
  const auto start = Clock::now();
  for (int pass = 0; pass < kPasses || SecondsSince(start) < args.seconds;
       ++pass) {
    std::unique_ptr<Rig> rig = make_rig();
    const LiveRun run = DriveLive(rig.get(), result);
    CheckTwin(run.twin, reference, result);
    const Phase& hi = run.replay.phases[kPhases - 1];
    max_qps.push_back(MaxQps(run.replay));
    hours_per_s.push_back(kHours / run.replay.wall_s);
    p50_ms.push_back(hi.BlockP50());
    tail_ms.push_back(hi.BlockP99());
    if (pass == 0) AddOutcome(LiveOutcome(run.twin, base), false, result);
  }
  result->Add("setup_s", Median(setups), "s");
  result->Add("served_per_s", Median(max_qps), "1/s");
  result->Add("region_h_per_s", Median(hours_per_s), "h/s");
  result->Add("op_p50_ms", Median(p50_ms), "ms");
  result->Add("op_tail_ms", Median(tail_ms), "ms");
}

}  // namespace perfbench
