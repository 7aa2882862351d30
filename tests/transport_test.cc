// Transport-layer tests (ctest -L distributed) of the frame connection
// abstraction in mapreduce/transport.h: frame roundtrips over a
// socketpair, deadline expiry surfacing as kDeadlineExceeded instead of
// a hang, writes to a closed peer surfacing as kIOError instead of
// SIGPIPE, injected truncation/corruption surfacing as kDataLoss with a
// "[conn <peer>]" culprit tag, drop-then-redial bit-identity through a
// real TCP listener, and the netfault spec grammar.

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "mapreduce/transport.h"
#include "robust/cancel.h"
#include "robust/netfault.h"
#include "robust/retry.h"
#include "util/status.h"

namespace m2td::mapreduce::transport {
namespace {

std::pair<Connection, Connection> MakeSocketPair() {
  int fds[2] = {-1, -1};
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  return {Connection::FromSocket(fds[0], "left"),
          Connection::FromSocket(fds[1], "right")};
}

class TransportTest : public ::testing::Test {
 protected:
  void TearDown() override { robust::DisarmAllNetFaults(); }
};

TEST_F(TransportTest, FrameRoundtripOverSocketpair) {
  auto [a, b] = MakeSocketPair();
  const std::string payload("task p1map 0 0\0binary\x01\xff tail", 28);
  ASSERT_TRUE(a.WriteFrame(payload).ok());
  ASSERT_TRUE(a.WriteFrame("hb 3").ok());
  auto first = b.ReadFrame(1000.0);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(*first, payload);
  auto second = b.ReadFrame(1000.0);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(*second, "hb 3");
}

TEST_F(TransportTest, PollFramesDrainsWithoutBlocking) {
  auto [a, b] = MakeSocketPair();
  ASSERT_TRUE(b.SetNonBlockingRead().ok());
  ASSERT_TRUE(a.WriteFrame("one").ok());
  ASSERT_TRUE(a.WriteFrame("two").ok());
  std::vector<std::string> frames;
  auto open = b.PollFrames(&frames);
  ASSERT_TRUE(open.ok()) << open.status();
  EXPECT_TRUE(*open);
  EXPECT_EQ(frames, (std::vector<std::string>{"one", "two"}));
  // Nothing pending: still open, nothing appended, no blocking.
  frames.clear();
  open = b.PollFrames(&frames);
  ASSERT_TRUE(open.ok());
  EXPECT_TRUE(*open);
  EXPECT_TRUE(frames.empty());
  // Peer closed: drains to "closed", not an error.
  a.Close();
  open = b.PollFrames(&frames);
  ASSERT_TRUE(open.ok()) << open.status();
  EXPECT_FALSE(*open);
}

TEST_F(TransportTest, ReadDeadlineExpiresInsteadOfHanging) {
  auto [a, b] = MakeSocketPair();
  (void)a;
  const auto start = std::chrono::steady_clock::now();
  auto frame = b.ReadFrame(/*deadline_ms=*/120.0);
  const double waited_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kDeadlineExceeded)
      << frame.status();
  EXPECT_GE(waited_ms, 100.0);
  EXPECT_LT(waited_ms, 5000.0);
}

TEST_F(TransportTest, CancelTokenCutsBlockedReadShort) {
  auto [a, b] = MakeSocketPair();
  (void)a;
  robust::CancelSource source;
  std::thread canceller([&source] {
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    source.Cancel();
  });
  robust::CancelScope scope(source.token());
  auto frame = b.ReadFrame(/*deadline_ms=*/10000.0);
  canceller.join();
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kCancelled) << frame.status();
}

TEST_F(TransportTest, WriteToClosedPeerIsIOErrorNotSigpipe) {
  // No SIGPIPE disposition is touched: a write to a socket whose peer has
  // gone must come back as an error on every attempt, with the process
  // (a coordinator, or a worker whose heartbeat races a dead connection)
  // still running.
  auto [a, b] = MakeSocketPair();
  b.Close();
  for (int attempt = 0; attempt < 2; ++attempt) {
    const Status sent = a.WriteFrame("hb 0", 1000.0);
    ASSERT_FALSE(sent.ok()) << "attempt " << attempt;
    EXPECT_EQ(sent.code(), StatusCode::kIOError) << sent;
  }
}

TEST_F(TransportTest, InjectedTruncationIsDataLossNamingTheConnection) {
  auto [a, b] = MakeSocketPair();
  ASSERT_TRUE(
      robust::ArmNetFaultsFromString("truncate:times=1,at=2").ok());
  // The writer observes the tear as a torn-connection IOError...
  const Status torn = a.WriteFrame("task p2map 1 0");
  ASSERT_FALSE(torn.ok());
  EXPECT_EQ(torn.code(), StatusCode::kIOError) << torn;
  // ...and the reader sees 2 stray header bytes then EOF: DataLoss with
  // the connection named as the culprit.
  auto frame = b.ReadFrame(1000.0);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kDataLoss) << frame.status();
  EXPECT_NE(frame.status().message().find("[conn right]"),
            std::string::npos)
      << frame.status();
  EXPECT_EQ(robust::NetFaultInjections(robust::NetFaultAction::kTruncate),
            1u);
}

TEST_F(TransportTest, InjectedCorruptionIsDataLossNamingTheConnection) {
  auto [a, b] = MakeSocketPair();
  ASSERT_TRUE(robust::ArmNetFaultsFromString("corrupt:times=1").ok());
  // The corrupted length prefix still rides an intact write...
  ASSERT_TRUE(a.WriteFrame("task p1red 2 0").ok());
  auto frame = b.ReadFrame(1000.0);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kDataLoss) << frame.status();
  EXPECT_NE(frame.status().message().find("[conn right]"),
            std::string::npos)
      << frame.status();
  // ...and subsequent traffic on a fresh pair is unaffected (times=1).
  auto [c, d] = MakeSocketPair();
  ASSERT_TRUE(c.WriteFrame("hb 0").ok());
  auto ok_frame = d.ReadFrame(1000.0);
  ASSERT_TRUE(ok_frame.ok()) << ok_frame.status();
  EXPECT_EQ(*ok_frame, "hb 0");
}

TEST_F(TransportTest, InjectedDropLosesExactlyTheElectedFrame) {
  auto [a, b] = MakeSocketPair();
  // Drop the second eligible frame only.
  ASSERT_TRUE(
      robust::ArmNetFaultsFromString("drop:after=1,times=1").ok());
  ASSERT_TRUE(a.WriteFrame("first").ok());
  ASSERT_TRUE(a.WriteFrame("second").ok());  // silently dropped
  ASSERT_TRUE(a.WriteFrame("third").ok());
  auto one = b.ReadFrame(1000.0);
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(*one, "first");
  auto two = b.ReadFrame(1000.0);
  ASSERT_TRUE(two.ok());
  EXPECT_EQ(*two, "third");
  EXPECT_EQ(robust::NetFaultInjections(robust::NetFaultAction::kDrop), 1u);
}

TEST_F(TransportTest, InjectedDelayHoldsTheFrameButDeliversIt) {
  auto [a, b] = MakeSocketPair();
  ASSERT_TRUE(robust::ArmNetFaultsFromString("delay:times=1,ms=80").ok());
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(a.WriteFrame("held").ok());
  const double held_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  EXPECT_GE(held_ms, 60.0);
  auto frame = b.ReadFrame(1000.0);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(*frame, "held");
}

TEST_F(TransportTest, PeerFilterScopesFaultsToMatchingConnections) {
  auto [a, b] = MakeSocketPair();  // peers "left" / "right"
  ASSERT_TRUE(
      robust::ArmNetFaultsFromString("drop:peer=worker7").ok());
  ASSERT_TRUE(a.WriteFrame("not dropped").ok());
  auto frame = b.ReadFrame(1000.0);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(*frame, "not dropped");
  EXPECT_EQ(robust::NetFaultInjections(robust::NetFaultAction::kDrop), 0u);
}

TEST_F(TransportTest, RedialAfterDropDeliversBitIdenticalFrames) {
  auto listener = Listener::Listen("127.0.0.1:0");
  ASSERT_TRUE(listener.ok()) << listener.status();

  const std::string payload("done p3red_1 4 2\0\x7f\x00\x01", 20);
  auto exchange = [&](const std::string& tag) -> std::string {
    auto dialed = Dial(listener->bound_address(), "coordinator", 2000.0);
    EXPECT_TRUE(dialed.ok()) << tag << ": " << dialed.status();
    Result<Connection> accepted = listener->Accept();
    for (int spin = 0; !accepted.ok() && spin < 200; ++spin) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      accepted = listener->Accept();
    }
    EXPECT_TRUE(accepted.ok()) << tag << ": " << accepted.status();
    EXPECT_TRUE(dialed->WriteFrame(payload, 2000.0).ok()) << tag;
    auto got = accepted->ReadFrame(2000.0);
    EXPECT_TRUE(got.ok()) << tag << ": " << got.status();
    // Simulate the drop: the dialer tears its end down hard.
    dialed->Close();
    accepted->Close();
    return got.ok() ? *got : std::string();
  };

  const std::string first = exchange("initial connection");
  const std::string second = exchange("redialed connection");
  EXPECT_EQ(first, payload);
  EXPECT_EQ(second, payload);  // bit-identical across the reconnect
}

TEST_F(TransportTest, DialWithBackoffExhaustsItsBudget) {
  // Bind then close a listener so the port is (very likely) refusing.
  auto listener = Listener::Listen("127.0.0.1:0");
  ASSERT_TRUE(listener.ok());
  const std::string address = listener->bound_address();
  listener->Close();

  robust::RetryPolicy policy;
  policy.max_retries = 1 << 20;
  policy.base_backoff_ms = 5.0;
  policy.max_backoff_ms = 20.0;
  policy.seed = 7;
  const auto start = std::chrono::steady_clock::now();
  auto conn = DialWithBackoff(address, "coordinator", policy,
                              /*budget_ms=*/200.0, robust::CancelToken());
  const double waited_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - start)
                               .count();
  ASSERT_FALSE(conn.ok());
  EXPECT_EQ(conn.status().code(), StatusCode::kDeadlineExceeded)
      << conn.status();
  EXPECT_LT(waited_ms, 5000.0);
}

TEST_F(TransportTest, ListenerRejectsAddressWithoutPort) {
  EXPECT_FALSE(Listener::Listen("localhost").ok());
  EXPECT_FALSE(Dial("no-port-here", "x", 100.0).ok());
}

// ------------------------------------------------- netfault spec grammar

TEST_F(TransportTest, NetFaultSpecGrammarParses) {
  auto spec = robust::ParseNetFaultSpec(
      "delay:after=3,times=2,prob=0.5,seed=11,ms=40,peer=worker1");
  ASSERT_TRUE(spec.ok()) << spec.status();
  EXPECT_EQ(spec->action, robust::NetFaultAction::kDelay);
  EXPECT_EQ(spec->after, 3u);
  EXPECT_EQ(spec->times, 2u);
  EXPECT_EQ(spec->probability, 0.5);
  EXPECT_EQ(spec->seed, 11u);
  EXPECT_EQ(spec->delay_ms, 40.0);
  EXPECT_EQ(spec->peer, "worker1");

  auto truncate = robust::ParseNetFaultSpec("truncate:at=7");
  ASSERT_TRUE(truncate.ok());
  EXPECT_EQ(truncate->action, robust::NetFaultAction::kTruncate);
  EXPECT_EQ(truncate->truncate_at, 7u);

  EXPECT_FALSE(robust::ParseNetFaultSpec("").ok());
  EXPECT_FALSE(robust::ParseNetFaultSpec("explode").ok());
  EXPECT_FALSE(robust::ParseNetFaultSpec("drop:prob=0").ok());
  EXPECT_FALSE(robust::ParseNetFaultSpec("drop:prob=1.5").ok());
  EXPECT_FALSE(robust::ParseNetFaultSpec("drop:bogus=1").ok());
}

}  // namespace
}  // namespace m2td::mapreduce::transport
