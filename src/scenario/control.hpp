#pragma once

// Control channel between a scenario process-backend runner and the
// ssr_node daemons it spawns (POSIX only, like the UDP transport).
//
// Transport: one UDP datagram per request and per reply on 127.0.0.1. The
// wire format is line-oriented text for debuggability (`nc -u` works):
//
//   request:  "<reqid> <CMD> [args...]"
//   reply:    "<reqid> OK [payload]"   |   "<reqid> ERR <message>"
//
// Loopback UDP can still drop under pressure, so the client retries a
// request with the *same* reqid until the matching reply arrives; the
// server caches its last reply and re-sends it on a duplicate reqid
// instead of re-applying the command. A single sequential client is
// assumed (the process runner), which makes one cache slot sufficient.

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "node/status.hpp"
#include "util/id_set.hpp"
#include "util/types.hpp"
#include "wire/wire.hpp"

namespace ssr::scenario::ctl {

struct Request {
  std::uint64_t reqid = 0;
  std::string cmd;
  std::vector<std::string> args;
};

/// Parses "<reqid> <CMD> [args...]"; nullopt on malformed input.
std::optional<Request> parse_request(const std::string& line);

// -- Payload helpers ---------------------------------------------------------

/// "1,2,3"; "-" for the empty set (an empty token is not a valid field).
std::string format_ids(const IdSet& ids);
std::optional<IdSet> parse_ids(const std::string& s);

/// Splits a reply payload of "k=v" tokens; tokens without '=' are skipped.
std::map<std::string, std::string> parse_kv(const std::string& payload);
/// The decimal value of `key`; nullopt when it is missing, not all digits,
/// or above `max`.
std::optional<std::uint64_t> parse_u64(
    const std::map<std::string, std::string>& kv, const std::string& key,
    std::uint64_t max = ~std::uint64_t{0});

std::string hex_encode(const wire::Bytes& b);
std::optional<wire::Bytes> hex_decode(const std::string& s);

/// The protocol-state keys of a STATUS reply, one node::Status:
///   id=<n> noreco=<0|1> part=<0|1> advised=<0|1>
///   cfgtag=<0 non-participant|1 bottom|2 set> cfg=<ids|->
/// and, only when the VS layer runs, all five of
///   vsmc=<0|1> vsnull=<0|1> vsnocrd=<0|1> vscrd=<n>
///   vsview=<vs::View::digest(), label included>
std::string format_status(const node::Status& s);
/// Reads format_status()'s keys out of a parsed reply (other keys are
/// ignored). nullopt when a key is missing or malformed, or when only some
/// of the VS keys are present: a failed sample, never zeros.
std::optional<node::Status> parse_status(
    const std::map<std::string, std::string>& kv);

/// ssr_node's control-socket command set (shared so the runner and the
/// daemon cannot drift apart):
///   STATUS                       format_status() of the node, then the
///                                daemon's transport and workload counters
///                                (cfgchanges, incq, sent, recv, ...)
///   BLOCK <ids|->                install the transport peer filter
///   PEER <id> <host> <port>      add/rebind one transport route
///   RELOAD                      re-read the peers file now
///   INC <n>                      queue n sequential counter increments
///   OPS <from>                   acknowledges (and frees) completed
///                                increments [0, from); replies total=<n>,
///                                the absolute count completed so far, and
///                                up to 200 ops from <from> on, each as
///                                op=<start>:<end>:<hex counter>
///   SHMEMW <reg> <salt>          queue one register write
///   SHMEMR <reg>                 queue one register read
///   FAULT <kind> <n>             one per-node state fault, named by its
///                                ActionKind (corrupt_recsa, corrupt_fd,
///                                plant_exhausted_counter, plant_recma_flags)
///                                with the action's n (inject_node_fault)
///   CONF <ids>                   plant a believed configuration

// -- Endpoints ---------------------------------------------------------------

/// Daemon side: a non-blocking UDP socket on 127.0.0.1, OS-picked port.
class ControlServer {
 public:
  /// Handler returns the reply body ("OK ..." / "ERR ..."); the server
  /// prepends the reqid and handles duplicate-request re-sends itself.
  using HandlerFn = std::function<std::string(const Request&)>;

  ControlServer();
  ~ControlServer();
  ControlServer(const ControlServer&) = delete;
  ControlServer& operator=(const ControlServer&) = delete;

  std::uint16_t port() const { return port_; }

  /// Drains every pending request (non-blocking); call from the daemon's
  /// main loop between transport polls.
  void poll(const HandlerFn& handler);

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
  std::uint64_t last_reqid_ = 0;
  std::string last_reply_;
  std::vector<char> buf_;
};

/// Runner side: one socket shared across every daemon (ports differ).
class ControlClient {
 public:
  ControlClient();
  ~ControlClient();
  ControlClient(const ControlClient&) = delete;
  ControlClient& operator=(const ControlClient&) = delete;

  /// Sends `cmd` to 127.0.0.1:`port` and waits for the matching reply,
  /// retrying with the same reqid. Returns the reply body ("OK ..." /
  /// "ERR ...") or nullopt when every attempt timed out (daemon dead).
  std::optional<std::string> request(std::uint16_t port,
                                     const std::string& cmd,
                                     int timeout_ms = 500, int attempts = 8);

 private:
  int fd_ = -1;
  std::uint64_t next_reqid_ = 1;
  std::vector<char> buf_;
};

}  // namespace ssr::scenario::ctl
