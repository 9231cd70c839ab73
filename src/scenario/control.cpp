#include "scenario/control.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <sstream>

#include "util/assert.hpp"

namespace ssr::scenario::ctl {
namespace {

int bind_loopback_udp(std::uint16_t* port_out) {
  const int fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK, 0);
  SSR_ASSERT(fd >= 0, "control socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  SSR_ASSERT(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0,
             "control bind failed");
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len);
  *port_out = ntohs(bound.sin_port);
  return fd;
}

sockaddr_in loopback_to(std::uint16_t port) {
  sockaddr_in to{};
  to.sin_family = AF_INET;
  to.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  to.sin_port = htons(port);
  return to;
}

constexpr std::size_t kMaxDatagram = 60 * 1024;

}  // namespace

std::optional<Request> parse_request(const std::string& line) {
  std::istringstream is(line);
  Request r;
  if (!(is >> r.reqid >> r.cmd)) return std::nullopt;
  std::string tok;
  while (is >> tok) r.args.push_back(tok);
  return r;
}

std::string format_ids(const IdSet& ids) {
  if (ids.empty()) return "-";
  std::ostringstream os;
  bool first = true;
  for (NodeId id : ids) {
    if (!first) os << ',';
    os << id;
    first = false;
  }
  return os.str();
}

std::optional<IdSet> parse_ids(const std::string& s) {
  IdSet out;
  if (s == "-") return out;
  std::istringstream is(s);
  std::string tok;
  while (std::getline(is, tok, ',')) {
    if (tok.empty()) return std::nullopt;
    char* end = nullptr;
    const unsigned long v = std::strtoul(tok.c_str(), &end, 10);
    if (end == tok.c_str() || *end != '\0') return std::nullopt;
    out.insert(static_cast<NodeId>(v));
  }
  if (out.empty()) return std::nullopt;  // "" and "," are malformed
  return out;
}

std::map<std::string, std::string> parse_kv(const std::string& payload) {
  std::map<std::string, std::string> out;
  std::istringstream is(payload);
  std::string tok;
  while (is >> tok) {
    const auto eq = tok.find('=');
    if (eq == std::string::npos || eq == 0) continue;
    out[tok.substr(0, eq)] = tok.substr(eq + 1);
  }
  return out;
}

std::optional<std::uint64_t> parse_u64(
    const std::map<std::string, std::string>& kv, const std::string& key,
    std::uint64_t max) {
  auto it = kv.find(key);
  if (it == kv.end()) return std::nullopt;
  const std::string& v = it->second;
  if (v.empty() || v.find_first_not_of("0123456789") != std::string::npos) {
    return std::nullopt;
  }
  errno = 0;
  const std::uint64_t n = std::strtoull(v.c_str(), nullptr, 10);
  if (errno == ERANGE || n > max) return std::nullopt;
  return n;
}

std::string format_status(const node::Status& s) {
  const reconf::ConfigValue& c = s.config;
  std::ostringstream os;
  os << "id=" << s.id << " noreco=" << s.noreco << " part=" << s.participant
     << " advised=" << s.advised << " cfgtag=" << static_cast<int>(c.tag())
     << " cfg=" << (c.is_set() ? format_ids(c.ids()) : "-");
  if (s.vs) {
    os << " vsmc=" << s.vs->multicast << " vsnull=" << s.vs->null_view
       << " vsnocrd=" << s.vs->no_coordinator
       << " vscrd=" << s.vs->coordinator << " vsview=" << s.vs->view;
  }
  return os.str();
}

std::optional<node::Status> parse_status(
    const std::map<std::string, std::string>& kv) {
  using Tag = reconf::ConfigValue::Tag;
  bool ok = true;
  const auto num = [&](const char* key, std::uint64_t max) {
    const auto v = parse_u64(kv, key, max);
    ok = ok && v.has_value();
    return v.value_or(0);
  };
  node::Status s;
  s.id = static_cast<NodeId>(num("id", ~NodeId{0}));
  s.noreco = num("noreco", 1) != 0;
  s.participant = num("part", 1) != 0;
  s.advised = num("advised", 1) != 0;
  const auto tag = static_cast<Tag>(num("cfgtag", 2));
  const auto cfg = kv.find("cfg");
  if (!ok || cfg == kv.end()) return std::nullopt;
  if (tag == Tag::kSet) {
    auto ids = parse_ids(cfg->second);
    if (!ids) return std::nullopt;
    s.config = reconf::ConfigValue::set(std::move(*ids));
  } else if (cfg->second != "-") {
    return std::nullopt;
  } else if (tag == Tag::kBottom) {
    s.config = reconf::ConfigValue::bottom();
  }
  // The VS keys come all together (the layer runs) or not at all.
  if (kv.count("vsmc") + kv.count("vsnull") + kv.count("vsnocrd") +
          kv.count("vscrd") + kv.count("vsview") == 0) {
    return s;
  }
  s.vs = node::Status::Vs{num("vsmc", 1) != 0, num("vsnull", 1) != 0,
                          num("vsnocrd", 1) != 0,
                          static_cast<NodeId>(num("vscrd", ~NodeId{0})),
                          num("vsview", ~std::uint64_t{0})};
  if (!ok) return std::nullopt;
  return s;
}

std::string hex_encode(const wire::Bytes& b) {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  out.reserve(b.size() * 2);
  for (std::uint8_t byte : b) {
    out.push_back(kDigits[byte >> 4]);
    out.push_back(kDigits[byte & 0xF]);
  }
  return out;
}

std::optional<wire::Bytes> hex_decode(const std::string& s) {
  if (s.size() % 2 != 0) return std::nullopt;
  auto nib = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    return -1;
  };
  wire::Bytes out;
  out.reserve(s.size() / 2);
  for (std::size_t i = 0; i < s.size(); i += 2) {
    const int hi = nib(s[i]), lo = nib(s[i + 1]);
    if (hi < 0 || lo < 0) return std::nullopt;
    out.push_back(static_cast<std::uint8_t>(hi << 4 | lo));
  }
  return out;
}

// -- ControlServer -----------------------------------------------------------

ControlServer::ControlServer() : buf_(kMaxDatagram) {
  fd_ = bind_loopback_udp(&port_);
}

ControlServer::~ControlServer() {
  if (fd_ >= 0) ::close(fd_);
}

void ControlServer::poll(const HandlerFn& handler) {
  for (;;) {
    sockaddr_in from{};
    socklen_t from_len = sizeof(from);
    const ssize_t n = ::recvfrom(fd_, buf_.data(), buf_.size(), 0,
                                 reinterpret_cast<sockaddr*>(&from), &from_len);
    if (n < 0) return;  // EAGAIN — drained
    auto req = parse_request(std::string(buf_.data(),
                                         static_cast<std::size_t>(n)));
    if (!req) continue;  // not ours; a reply needs a parseable reqid anyway
    std::string reply;
    if (req->reqid == last_reqid_ && !last_reply_.empty()) {
      // Duplicate of the last request (the client's retry): replay the
      // cached reply, do not re-apply the command.
      reply = last_reply_;
    } else {
      reply = std::to_string(req->reqid) + " " + handler(*req);
      last_reqid_ = req->reqid;
      last_reply_ = reply;
    }
    (void)::sendto(fd_, reply.data(), reply.size(), 0,
                   reinterpret_cast<sockaddr*>(&from), from_len);
  }
}

// -- ControlClient -----------------------------------------------------------

ControlClient::ControlClient() : buf_(kMaxDatagram) {
  std::uint16_t unused = 0;
  fd_ = bind_loopback_udp(&unused);
}

ControlClient::~ControlClient() {
  if (fd_ >= 0) ::close(fd_);
}

std::optional<std::string> ControlClient::request(std::uint16_t port,
                                                  const std::string& cmd,
                                                  int timeout_ms,
                                                  int attempts) {
  const std::uint64_t reqid = next_reqid_++;
  const std::string wire = std::to_string(reqid) + " " + cmd;
  const sockaddr_in to = loopback_to(port);
  for (int attempt = 0; attempt < attempts; ++attempt) {
    (void)::sendto(fd_, wire.data(), wire.size(), 0,
                   reinterpret_cast<const sockaddr*>(&to), sizeof(to));
    pollfd pfd{fd_, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc <= 0) continue;  // timeout — retransmit with the same reqid
    for (;;) {
      const ssize_t n = ::recvfrom(fd_, buf_.data(), buf_.size(), 0,
                                   nullptr, nullptr);
      if (n < 0) break;
      const std::string got(buf_.data(), static_cast<std::size_t>(n));
      std::istringstream is(got);
      std::uint64_t got_id = 0;
      if (!(is >> got_id) || got_id != reqid) continue;  // stale reply
      std::string rest;
      std::getline(is, rest);
      if (!rest.empty() && rest.front() == ' ') rest.erase(0, 1);
      return rest;
    }
  }
  return std::nullopt;
}

}  // namespace ssr::scenario::ctl
