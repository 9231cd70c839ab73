// Control-channel protocol: framing, payload helpers, the STATUS
// protocol-state codec, and the client/server pair over a real loopback
// socket — including the duplicate-request replay that keeps retried
// commands idempotent — plus one real ssr_node daemon's OPS log.
#include "scenario/control.hpp"

#include <fcntl.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace ssr::scenario::ctl {
namespace {

TEST(ControlProtocol, ParsesRequests) {
  auto r = parse_request("42 BLOCK 1,2,3");
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->reqid, 42u);
  EXPECT_EQ(r->cmd, "BLOCK");
  ASSERT_EQ(r->args.size(), 1u);
  EXPECT_EQ(r->args[0], "1,2,3");

  EXPECT_TRUE(parse_request("7 STATUS").has_value());
  EXPECT_FALSE(parse_request("").has_value());
  EXPECT_FALSE(parse_request("STATUS").has_value());  // no reqid
  EXPECT_FALSE(parse_request("9").has_value());       // no command
}

TEST(ControlProtocol, IdListsRoundtrip) {
  EXPECT_EQ(format_ids({}), "-");
  EXPECT_EQ(format_ids({3, 1, 2}), "1,2,3");
  auto ids = parse_ids("1,2,3");
  ASSERT_TRUE(ids.has_value());
  EXPECT_EQ(*ids, (IdSet{1, 2, 3}));
  auto none = parse_ids("-");
  ASSERT_TRUE(none.has_value());
  EXPECT_TRUE(none->empty());
  EXPECT_FALSE(parse_ids("").has_value());
  EXPECT_FALSE(parse_ids("1,,2").has_value());
  EXPECT_FALSE(parse_ids("1,x").has_value());
}

TEST(ControlProtocol, KvAndHexRoundtrip) {
  const auto kv = parse_kv("a=1 b=xyz malformed c=2");
  EXPECT_EQ(kv.at("a"), "1");
  EXPECT_EQ(kv.at("b"), "xyz");
  EXPECT_EQ(kv.at("c"), "2");
  EXPECT_EQ(kv.count("malformed"), 0u);

  const wire::Bytes blob{0x00, 0x7F, 0xFF, 0x10};
  const std::string hex = hex_encode(blob);
  EXPECT_EQ(hex, "007fff10");
  auto back = hex_decode(hex);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, blob);
  EXPECT_FALSE(hex_decode("abc").has_value());   // odd length
  EXPECT_FALSE(hex_decode("zz").has_value());    // bad digit
}

node::Status sample_status(bool with_vs) {
  node::Status s;
  s.id = 7;
  s.noreco = true;
  s.participant = true;
  s.advised = true;
  s.config = reconf::ConfigValue::set({1, 2, 7});
  if (with_vs) {
    s.vs = node::Status::Vs{true, false, false, 2, 0xFEDCBA9876543210ULL};
  }
  return s;
}

TEST(ControlStatus, RoundTrips) {
  node::Status bottom;
  bottom.id = 3;
  bottom.config = reconf::ConfigValue::bottom();
  node::Status empty_set;
  empty_set.id = 4;
  empty_set.config = reconf::ConfigValue::set({});
  for (const node::Status& s :
       {sample_status(false), sample_status(true), node::Status{}, bottom,
        empty_set}) {
    const auto back = parse_status(parse_kv(format_status(s)));
    ASSERT_TRUE(back.has_value()) << format_status(s);
    EXPECT_EQ(*back, s) << format_status(s);
  }
  EXPECT_EQ(format_status(sample_status(true)),
            "id=7 noreco=1 part=1 advised=1 cfgtag=2 cfg=1,2,7 vsmc=1 "
            "vsnull=0 vsnocrd=0 vscrd=2 vsview=18364758544493064720");
}

TEST(ControlStatus, OtherKeysAreIgnored) {
  const auto s = parse_status(
      parse_kv(format_status(sample_status(false)) + " sent=9 trusted=1,2"));
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(*s, sample_status(false));
}

// A reply missing a protocol-state key, or carrying a malformed one, is a
// failed sample, never a status of zeros.
TEST(ControlStatus, MissingOrMalformedKeysFail) {
  const std::string good = format_status(sample_status(true));
  const auto without = [&](const std::string& key) {
    auto kv = parse_kv(good);
    kv.erase(key);
    return kv;
  };
  for (const char* key : {"id", "noreco", "part", "advised", "cfgtag", "cfg",
                          "vsmc", "vsnull", "vsnocrd", "vscrd", "vsview"}) {
    EXPECT_FALSE(parse_status(without(key)).has_value()) << key;
  }
  const std::pair<const char*, const char*> bad[] = {
      {"id", "-1"},          {"id", "4294967296"}, {"id", ""},
      {"noreco", "2"},       {"part", "yes"},      {"advised", "1x"},
      {"cfgtag", "3"},       {"cfg", "1,,2"},      {"cfg", ""},
      {"vsmc", "+1"},        {"vscrd", "99999999999"},
      {"vsview", "18446744073709551616"},
  };
  for (const auto& [key, value] : bad) {
    auto kv = parse_kv(good);
    kv[key] = value;
    EXPECT_FALSE(parse_status(kv).has_value()) << key << "=" << value;
  }
  // A non-set tag carries no member list.
  auto kv = parse_kv(good);
  kv["cfgtag"] = "1";
  EXPECT_FALSE(parse_status(kv).has_value());
  kv["cfg"] = "-";
  ASSERT_TRUE(parse_status(kv).has_value());
  EXPECT_TRUE(parse_status(kv)->config.is_bottom());
  EXPECT_FALSE(parse_status(parse_kv("")).has_value());
}

TEST(ControlEndpoints, RequestReplyOverLoopback) {
  ControlServer server;
  ControlClient client;
  ASSERT_NE(server.port(), 0);

  // The application counter is written by the server thread and read by the
  // test thread after join; the annotated mutex makes clang's thread-safety
  // analysis prove the discipline TSan checks at runtime.
  util::Mutex mu;
  int applications SSR_GUARDED_BY(mu) = 0;
  const auto handler = [&](const Request& req) -> std::string {
    if (req.cmd == "PING") {
      util::MutexLock lock(mu);
      return "OK pong=" + std::to_string(++applications);
    }
    return "ERR unknown command";
  };

  // The server is single-threaded by design (the daemon polls it between
  // transport laps); a helper thread stands in for that loop here.
  std::atomic<bool> stop{false};
  std::thread srv([&] {
    while (!stop.load()) {
      server.poll(handler);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  auto r1 = client.request(server.port(), "PING");
  auto r2 = client.request(server.port(), "PING");
  auto r3 = client.request(server.port(), "NOPE");
  stop.store(true);
  srv.join();

  ASSERT_TRUE(r1.has_value());
  EXPECT_EQ(*r1, "OK pong=1");
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(*r2, "OK pong=2");
  ASSERT_TRUE(r3.has_value());
  EXPECT_EQ(*r3, "ERR unknown command");
  util::MutexLock lock(mu);
  EXPECT_EQ(applications, 2);
}

TEST(ControlEndpoints, DuplicateReqidReplaysCachedReply) {
  ControlServer server;
  int applications = 0;
  const auto handler = [&](const Request&) -> std::string {
    return "OK n=" + std::to_string(++applications);
  };

  const int raw = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(raw, 0);
  sockaddr_in to{};
  to.sin_family = AF_INET;
  to.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  to.sin_port = htons(server.port());
  const std::string wire = "7 PING";
  // The same reqid twice — a client retransmit after a lost reply.
  for (int i = 0; i < 2; ++i) {
    ASSERT_EQ(::sendto(raw, wire.data(), wire.size(), 0,
                       reinterpret_cast<sockaddr*>(&to), sizeof(to)),
              static_cast<ssize_t>(wire.size()));
  }
  // Let both datagrams land, then drain them in one poll.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server.poll(handler);

  char buf[256];
  std::string first, second;
  for (int i = 0; i < 50 && second.empty(); ++i) {
    const ssize_t n = ::recv(raw, buf, sizeof(buf), MSG_DONTWAIT);
    if (n > 0) {
      (first.empty() ? first : second).assign(buf, static_cast<size_t>(n));
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  ::close(raw);
  EXPECT_EQ(first, "7 OK n=1");
  EXPECT_EQ(second, "7 OK n=1");  // replayed, not re-applied
  EXPECT_EQ(applications, 1);
}

#ifdef SSR_NODE_BIN
/// One ssr_node daemon, alone in its peer map (it converges to {1} by
/// itself), reaped on destruction.
class LoneDaemon {
 public:
  LoneDaemon() {
    std::string templ =
        (std::filesystem::temp_directory_path() / "ssr-ctl-XXXXXX").string();
    if (::mkdtemp(templ.data()) == nullptr) return;
    dir_ = templ;
    const std::string peers = dir_ + "/peers.txt";
    const std::string port_file = dir_ + "/port";
    const std::string log = dir_ + "/node.log";
    std::ofstream(peers) << "1 127.0.0.1 0\n";
    pid_ = ::fork();
    if (pid_ == 0) {
      const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT, 0644);
      if (fd >= 0) {
        ::dup2(fd, 1);
        ::dup2(fd, 2);
      }
      ::execl(SSR_NODE_BIN, SSR_NODE_BIN, "--id", "1", "--peers",
              peers.c_str(), "--port-file", port_file.c_str(), "--seconds",
              "60", "--tick-us", "2000", static_cast<char*>(nullptr));
      ::_exit(127);
    }
    for (int i = 0; i < 500 && ctl_port_ == 0; ++i) {
      std::ifstream in(port_file);
      unsigned data = 0, ctl = 0;
      if (in >> data >> ctl) ctl_port_ = static_cast<std::uint16_t>(ctl);
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  ~LoneDaemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
    if (!dir_.empty()) std::filesystem::remove_all(dir_);
  }
  LoneDaemon(const LoneDaemon&) = delete;
  LoneDaemon& operator=(const LoneDaemon&) = delete;

  std::uint16_t ctl_port() const { return ctl_port_; }

 private:
  std::string dir_;
  int pid_ = -1;
  std::uint16_t ctl_port_ = 0;
};

struct OpsReply {
  std::uint64_t total = 0;
  std::vector<std::string> ops;
};

std::optional<OpsReply> ops_from(ControlClient& client, std::uint16_t port,
                                 std::size_t from) {
  const auto reply = client.request(port, "OPS " + std::to_string(from));
  if (!reply || reply->rfind("OK", 0) != 0) return std::nullopt;
  OpsReply r;
  std::istringstream is(reply->substr(2));
  std::string tok;
  while (is >> tok) {
    if (tok.rfind("total=", 0) == 0) r.total = std::stoull(tok.substr(6));
    if (tok.rfind("op=", 0) == 0) r.ops.push_back(tok);
  }
  return r;
}

// OPS <from> acknowledges ops [0, from): the daemon frees them, keeps
// `total` absolute, and never returns a freed op again.
TEST(ControlDaemon, OpsAcknowledgementFreesOps) {
  LoneDaemon daemon;
  ASSERT_NE(daemon.ctl_port(), 0) << "daemon never reported its ports";
  ControlClient client;
  ASSERT_EQ(client.request(daemon.ctl_port(), "INC 3"), "OK");
  std::optional<OpsReply> all;
  for (int i = 0; i < 600; ++i) {
    all = ops_from(client, daemon.ctl_port(), 0);
    if (all && all->total == 3) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  ASSERT_TRUE(all.has_value());
  ASSERT_EQ(all->total, 3u);
  ASSERT_EQ(all->ops.size(), 3u);

  auto r = ops_from(client, daemon.ctl_port(), 2);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->total, 3u);
  EXPECT_EQ(r->ops, std::vector<std::string>{all->ops[2]});
  // Asking again from 0 cannot bring the freed ops back.
  r = ops_from(client, daemon.ctl_port(), 0);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->total, 3u);
  EXPECT_EQ(r->ops, std::vector<std::string>{all->ops[2]});
  r = ops_from(client, daemon.ctl_port(), 3);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->total, 3u);
  EXPECT_TRUE(r->ops.empty());
}
#endif

}  // namespace
}  // namespace ssr::scenario::ctl
