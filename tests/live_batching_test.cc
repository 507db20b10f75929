// The live server's work-conserving batching rule, over real loopback
// sockets. The ingest thread flushes its pending batch when every batch
// flushed so far has left the ticket-ordered section, or when the batch
// reaches `batch_max_requests` — and never on a timer. A control hook that
// can hold the ticket section on a latch makes "busy" and "idle"
// controllable:
//
//   * idle server, one request at a time: every request is its own batch
//     (nothing waits for company, and a partial batch never strands);
//   * held section: everything that arrives meanwhile coalesces into
//     capped batches, and after release every request is answered exactly
//     once;
//   * a small cap bounds every batch while the section is held.
#include <gtest/gtest.h>

#include <poll.h>
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "common/quantile.h"
#include "models/zoo.h"
#include "net/frame.h"
#include "obs/metrics.h"
#include "serving/deployment.h"
#include "serving/live_server.h"

namespace clover::serving {
namespace {

constexpr auto kTimeout = std::chrono::seconds(30);

// Blocks the ticket section inside OnVirtualAdvance for the request at
// `hold_ts_s` until Release().
class LatchHook : public LiveControlHook {
 public:
  explicit LatchHook(double hold_ts_s) : hold_ts_s_(hold_ts_s) {}

  void OnVirtualAdvance(double virtual_ts_s, VirtualExecutor*) override {
    std::unique_lock<std::mutex> lock(mu_);
    if (virtual_ts_s != hold_ts_s_ || released_) return;
    held_ = true;
    cv_.notify_all();
    // Bounded so a failing test cannot wedge the server's Stop().
    cv_.wait_for(lock, kTimeout, [&] { return released_; });
  }

  bool WaitHeld() {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, kTimeout, [&] { return held_; });
  }

  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  const double hold_ts_s_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool held_ = false;
  bool released_ = false;
};

// One blocking loopback connection speaking the request/response frames.
class Client {
 public:
  explicit Client(std::uint16_t port) : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    EXPECT_GE(fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  }
  ~Client() { ::close(fd_); }

  // Requests with ids [first, first + count); request i is at virtual
  // time TsOf(i), so ids and the schedule order agree.
  void Send(std::uint64_t first, std::uint64_t count) {
    std::vector<std::uint8_t> out;
    for (std::uint64_t id = first; id < first + count; ++id)
      net::AppendRequest(&out, {.request_id = id, .virtual_ts_s = TsOf(id)});
    std::size_t off = 0;
    while (off < out.size()) {
      const ssize_t n = ::write(fd_, out.data() + off, out.size() - off);
      ASSERT_GT(n, 0);
      off += static_cast<std::size_t>(n);
    }
  }

  // The next `count` responses, or fewer if none arrives for kTimeout.
  std::vector<net::ResponseFrame> Receive(std::size_t count) {
    std::vector<net::ResponseFrame> responses;
    while (responses.size() < count) {
      if (std::optional<net::Frame> frame = decoder_.Next()) {
        EXPECT_EQ(frame->type, net::FrameType::kResponse);
        responses.push_back(frame->response);
        continue;
      }
      if (ReadSome() <= 0) break;
    }
    return responses;
  }

  // After the server closed the connection: frames left over until EOF.
  std::size_t CountUntilEof() {
    std::size_t frames = 0;
    for (;;) {
      while (decoder_.Next().has_value()) ++frames;
      if (ReadSome() <= 0) return frames;
    }
  }

  static double TsOf(std::uint64_t id) { return 0.01 * double(id); }

 private:
  ssize_t ReadSome() {
    pollfd pfd{.fd = fd_, .events = POLLIN, .revents = 0};
    const int timeout_ms = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(kTimeout)
            .count());
    if (::poll(&pfd, 1, timeout_ms) <= 0) return -1;
    std::uint8_t buffer[4096];
    const ssize_t n = ::read(fd_, buffer, sizeof(buffer));
    if (n > 0) decoder_.Feed(buffer, static_cast<std::size_t>(n));
    return n;
  }

  int fd_;
  net::FrameDecoder decoder_;
};

LiveServerOptions Options(std::size_t batch_max_requests) {
  LiveServerOptions options;
  options.worker_threads = 2;
  options.batch_max_requests = batch_max_requests;
  options.admission.bucket.rate_per_s = 1e12;  // admit everything
  options.admission.bucket.burst = 1e12;
  return options;
}

Deployment TestDeployment() {
  return MakeBase(models::Application::kClassification, 2);
}

// Every id in [1, count] answered ok exactly once.
void ExpectEachAnsweredOnce(const std::vector<net::ResponseFrame>& responses,
                            std::uint64_t count) {
  ASSERT_EQ(responses.size(), count);
  std::vector<int> seen(count + 1, 0);
  for (const net::ResponseFrame& response : responses) {
    ASSERT_GE(response.request_id, 1u);
    ASSERT_LE(response.request_id, count);
    EXPECT_EQ(response.status, net::ResponseStatus::kOk);
    ++seen[response.request_id];
  }
  for (std::uint64_t id = 1; id <= count; ++id)
    EXPECT_EQ(seen[id], 1) << "request " << id;
}

bool WaitAdmitted(const LiveServer& server, std::uint64_t admitted) {
  const auto deadline = std::chrono::steady_clock::now() + kTimeout;
  while (server.SnapshotStats().admission.admitted < admitted) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

// Holds the section on request 1, then sends `trickled` more requests in
// small writes spaced a millisecond apart — long enough that any wall-clock
// flush rule would cut them into many batches. Returns the server's batch
// count while the section is still held, then releases and checks that
// every request is answered exactly once.
std::uint64_t HoldAndTrickle(LiveServer* server, LatchHook* hook,
                             Client* client, std::uint64_t trickled) {
  client->Send(1, 1);
  EXPECT_TRUE(hook->WaitHeld());
  constexpr std::uint64_t kPerWrite = 10;
  for (std::uint64_t id = 2; id < 2 + trickled; id += kPerWrite) {
    client->Send(id, std::min(kPerWrite, 2 + trickled - id));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(WaitAdmitted(*server, 1 + trickled));
  const std::uint64_t batches_while_held = server->SnapshotStats().batches;
  hook->Release();
  ExpectEachAnsweredOnce(client->Receive(1 + trickled), 1 + trickled);
  return batches_while_held;
}

TEST(LiveBatching, IdleServerFlushesEveryRequestAtOnce) {
  LiveServer server(TestDeployment(), models::DefaultZoo(), Options(256),
                    nullptr);
  Client client(server.Start());
  constexpr std::uint64_t kRequests = 50;
  for (std::uint64_t id = 1; id <= kRequests; ++id) {
    client.Send(id, 1);
    // With no timer, a request that the idle rule failed to flush would
    // never be answered: Receive times out and the count check fails.
    const std::vector<net::ResponseFrame> response = client.Receive(1);
    ASSERT_EQ(response.size(), 1u) << "request " << id << " stranded";
    EXPECT_EQ(response[0].request_id, id);
  }
  server.Stop();
  const LiveStats stats = server.SnapshotStats();
  EXPECT_EQ(stats.completed, kRequests);
  EXPECT_EQ(stats.batches, kRequests);
  EXPECT_EQ(client.CountUntilEof(), 0u);
}

TEST(LiveBatching, BusySectionCoalescesArrivals) {
  constexpr std::size_t kCap = 256;
  constexpr std::uint64_t kTrickled = 300;
  LatchHook hook(Client::TsOf(1));
  LiveServer server(TestDeployment(), models::DefaultZoo(), Options(kCap),
                    &hook);
  Client client(server.Start());
  // Request 1 is its own batch; of the 300 that arrive while it holds the
  // section, only the first full cap has been flushed.
  EXPECT_EQ(HoldAndTrickle(&server, &hook, &client, kTrickled), 2u);
  server.Stop();
  const LiveStats stats = server.SnapshotStats();
  EXPECT_EQ(stats.completed, 1 + kTrickled);
  EXPECT_LE(stats.batches, 1 + (kTrickled + kCap - 1) / kCap + 1);
  EXPECT_EQ(client.CountUntilEof(), 0u);
}

TEST(LiveBatching, CapBoundsEveryBatchWhileTheSectionIsHeld) {
  constexpr std::size_t kCap = 16;
  constexpr std::uint64_t kTrickled = 300;
  const bool obs_was_enabled = obs::Enabled();
  obs::Registry::Get().ResetForTest();  // no writers: no server running
  obs::SetEnabled(true);
  LatchHook hook(Client::TsOf(1));
  LiveServer server(TestDeployment(), models::DefaultZoo(), Options(kCap),
                    &hook);
  Client client(server.Start());
  EXPECT_EQ(HoldAndTrickle(&server, &hook, &client, kTrickled),
            1 + kTrickled / kCap);
  server.Stop();
  obs::SetEnabled(obs_was_enabled);

  const LiveStats stats = server.SnapshotStats();
  EXPECT_EQ(stats.completed, 1 + kTrickled);
  // 300 requests in batches of at most 16 need at least 19 batches.
  EXPECT_GE(stats.batches, 1 + (kTrickled + kCap - 1) / kCap);
  EXPECT_LE(stats.mean_batch_fill, double(kCap));
  const LogHistogramQuantile fill =
      obs::Registry::Get().GetHistogram("serving.batch_fill")->Fold();
  EXPECT_EQ(fill.count(), stats.batches);
  EXPECT_LE(LogHistogramQuantile::BinIndex(fill.Quantile(1.0)),
            LogHistogramQuantile::BinIndex(double(kCap)));
  EXPECT_EQ(client.CountUntilEof(), 0u);
}

}  // namespace
}  // namespace clover::serving
