// net transport primitives: listener/connect round trips on loopback,
// full-buffer sends and exact reads of payloads far beyond one syscall,
// line reads, and the failure surface — refused connections, torn streams
// and dead peers all as NetError, never a crash or a SIGPIPE.
#include "net/line_channel.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/listener.hpp"
#include "net/socket.hpp"

namespace ffsm::net {
namespace {

using std::chrono::milliseconds;

TEST(NetParse, PortAndHostPortAreStrict) {
  std::uint16_t port = 1;
  EXPECT_TRUE(parse_port("0", port));  // ephemeral is a valid bind port
  EXPECT_EQ(port, 0);
  EXPECT_TRUE(parse_port("65535", port));
  EXPECT_EQ(port, 65535);
  // What atol would silently accept must be rejected.
  for (const char* bad : {"", "abc", "70o1", "7001 ", " 7001", "-1",
                          "65536", "0x10", "7001junk"})
    EXPECT_FALSE(parse_port(bad, port)) << bad;

  std::string host;
  ASSERT_TRUE(parse_host_port("worker-3:7001", host, port));
  EXPECT_EQ(host, "worker-3");
  EXPECT_EQ(port, 7001);
  // A connect target needs a real host and a nonzero, clean port.
  for (const char* bad :
       {"worker-3", ":7001", "worker-3:", "worker-3:0", "worker-3:70o1"})
    EXPECT_FALSE(parse_host_port(bad, host, port)) << bad;
}

TEST(NetParse, HostPortListIsStrict) {
  std::vector<Endpoint> endpoints;
  ASSERT_TRUE(parse_host_port_list("a:1", endpoints));
  ASSERT_EQ(endpoints.size(), 1u);
  EXPECT_EQ(to_string(endpoints[0]), "a:1");

  ASSERT_TRUE(parse_host_port_list("a:7001,b:7001,a:7002", endpoints));
  ASSERT_EQ(endpoints.size(), 3u);
  EXPECT_EQ(endpoints[0], (Endpoint{"a", 7001}));
  EXPECT_EQ(endpoints[1], (Endpoint{"b", 7001}));
  EXPECT_EQ(endpoints[2], (Endpoint{"a", 7002}));

  // Empty list, empty items (leading/trailing/double commas), malformed
  // items, and duplicated endpoints — a typo'd replica seed list must
  // fail whole, never half-parse.
  for (const char* bad :
       {"", ",", "a:1,", ",a:1", "a:1,,b:2", "a:1,b", "a:1,b:70o1",
        "a:1,b:0", "a:1,a:1", "a:1,b:2,a:1"})
    EXPECT_FALSE(parse_host_port_list(bad, endpoints)) << bad;
}

TEST(NetListener, EphemeralPortAcceptsLoopbackConnections) {
  Listener listener(0);
  ASSERT_GT(listener.port(), 0);

  std::thread client([port = listener.port()] {
    Socket socket =
        Socket::connect("127.0.0.1", port, milliseconds(2000));
    socket.send_all("hello from client\nsecond line\n");
  });
  LineChannel channel(listener.accept());
  std::string line;
  ASSERT_TRUE(channel.read_line(line));
  EXPECT_EQ(line, "hello from client");
  ASSERT_TRUE(channel.read_line(line));
  EXPECT_EQ(line, "second line");
  EXPECT_FALSE(channel.read_line(line));  // clean EOF after the client exits
  client.join();
}

TEST(NetChannel, LargeFramesCrossInFullBothWays) {
  // A payload far beyond one send/recv syscall: the full-buffer send loop
  // and read_exact — the read every binary frame header and payload goes
  // through — are what the worker's serve exchanges (many KB of machine
  // text and partition frames) depend on.
  std::string frame(1 << 20, 'x');
  frame += "|tail";

  Listener listener(0);
  std::thread echo([&listener, size = frame.size()] {
    LineChannel channel(listener.accept());
    std::string got(size, '\0');
    ASSERT_TRUE(channel.read_exact(got.data(), got.size()));
    channel.send(got);  // echo the whole frame back
  });

  LineChannel channel(
      Socket::connect("127.0.0.1", listener.port(), milliseconds(2000)));
  channel.send(frame);
  std::string back(frame.size(), '\0');
  ASSERT_TRUE(channel.read_exact(back.data(), back.size()));
  EXPECT_EQ(back, frame);
  echo.join();
}

TEST(NetChannel, MidLineEofIsATornMessageNotACleanEnd) {
  Listener listener(0);
  std::thread client([port = listener.port()] {
    Socket socket =
        Socket::connect("127.0.0.1", port, milliseconds(2000));
    socket.send_all("complete line\nincomplete");  // no trailing newline
  });
  LineChannel channel(listener.accept());
  std::string line;
  ASSERT_TRUE(channel.read_line(line));
  EXPECT_EQ(line, "complete line");
  // The peer is gone with half a line buffered: that is a torn message.
  EXPECT_THROW((void)channel.read_line(line), NetError);
  client.join();
}

TEST(NetChannel, EofInsideAnExactReadIsATornMessage) {
  // A peer that closes after part of a binary frame: EOF before the first
  // byte is a clean end (false), EOF after it is a torn message.
  Listener listener(0);
  std::thread client([port = listener.port()] {
    Socket socket =
        Socket::connect("127.0.0.1", port, milliseconds(2000));
    socket.send_all("0123456789");  // 10 bytes of a 16-byte read
  });
  LineChannel channel(listener.accept());
  client.join();
  char bytes[16];
  EXPECT_THROW((void)channel.read_exact(bytes, sizeof(bytes)), NetError);
}

TEST(NetChannel, DeadlineReadFailsInBoundedTimeOnASilentPeer) {
  // A peer that sends half a line and then goes silent (still connected —
  // keepalive never fires) must fail a deadline read when the deadline
  // passes, not wedge the reader: the health prober and the worker's
  // frame reads depend on exactly this.
  Listener listener(0);
  Socket client =
      Socket::connect("127.0.0.1", listener.port(), milliseconds(2000));
  LineChannel channel(listener.accept());
  client.send_all("torn without a newline");

  const auto start = std::chrono::steady_clock::now();
  std::string line;
  EXPECT_THROW(
      (void)channel.read_line(line, start + milliseconds(100)), NetError);
  EXPECT_LT(std::chrono::steady_clock::now() - start, milliseconds(5000));

  // The connection survives a missed deadline; bytes that were already
  // buffered stay buffered, so completing the line later succeeds.
  client.send_all(" but finished later\n");
  ASSERT_TRUE(channel.read_line(
      line, std::chrono::steady_clock::now() + milliseconds(2000)));
  EXPECT_EQ(line, "torn without a newline but finished later");
}

TEST(NetChannel, DeadlineExactReadFailsInBoundedTimeOnASilentPeer) {
  // The worker's frame reads: once a frame has begun, the rest must
  // arrive by the deadline. A peer that sends part of one and goes silent
  // (still connected) fails the read when the deadline passes.
  Listener listener(0);
  Socket client =
      Socket::connect("127.0.0.1", listener.port(), milliseconds(2000));
  LineChannel channel(listener.accept());
  client.send_all("half");

  const auto start = std::chrono::steady_clock::now();
  char bytes[8];
  EXPECT_THROW((void)channel.read_exact(bytes, sizeof(bytes),
                                        start + milliseconds(100)),
               NetError);
  EXPECT_LT(std::chrono::steady_clock::now() - start, milliseconds(5000));
}

TEST(NetSocket, ConnectToClosedPortFailsWithNetError) {
  // Grab an ephemeral port, then close the listener: nothing is bound
  // there anymore, so loopback connect gets an immediate refusal.
  std::uint16_t dead_port = 0;
  {
    Listener listener(0);
    dead_port = listener.port();
  }
  EXPECT_THROW(
      (void)Socket::connect("127.0.0.1", dead_port, milliseconds(500)),
      NetError);
  EXPECT_THROW(
      (void)Socket::connect("no-such-host.invalid", 1, milliseconds(500)),
      NetError);
}

TEST(NetSocket, SendToDeadPeerThrowsInsteadOfKillingTheProcess) {
  Listener listener(0);
  Socket client =
      Socket::connect("127.0.0.1", listener.port(), milliseconds(2000));
  {
    Socket accepted = listener.accept();
  }  // peer closes immediately
  // The first send lands in the kernel buffer and triggers the reset; a
  // bounded number of follow-ups must surface NetError (EPIPE), not
  // SIGPIPE — no signal handler is installed in this test on purpose.
  const std::string chunk(64 * 1024, 'y');
  bool threw = false;
  for (int i = 0; i < 64 && !threw; ++i) {
    try {
      client.send_all(chunk);
    } catch (const NetError&) {
      threw = true;
    }
  }
  EXPECT_TRUE(threw);
}

TEST(NetChannel, BorrowedFdPairLeavesOwnershipWithTheCaller) {
  // The worker's stdio bridge: a channel over borrowed fds must not close
  // them. Use a socketpair-backed loopback via listener/connect.
  Listener listener(0);
  Socket client =
      Socket::connect("127.0.0.1", listener.port(), milliseconds(2000));
  Socket server = listener.accept();
  {
    LineChannel borrowed(server.fd(), server.fd());
    client.send_all("ping\n");
    std::string line;
    ASSERT_TRUE(borrowed.read_line(line));
    EXPECT_EQ(line, "ping");
  }  // borrowed channel destroyed; server fd must still be usable
  server.send_all("pong\n");
  LineChannel reader(std::move(client));
  std::string line;
  ASSERT_TRUE(reader.read_line(line));
  EXPECT_EQ(line, "pong");
}

}  // namespace
}  // namespace ffsm::net
