#include "runtime/udp.hpp"

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cassert>
#include <cstring>
#include <future>
#include <stdexcept>

namespace adam2::runtime {
namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kHeaderBytes = 1 + 8 + 8;  // kind + from + token
constexpr std::size_t kMaxDatagram = 64 * 1024;

sockaddr_in loopback(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  return addr;
}

}  // namespace

UdpEndpoint::UdpEndpoint() {
  fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd_ < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr = loopback(0);
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd_);
    throw std::runtime_error("bind() failed");
  }
  socklen_t len = sizeof addr;
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd_);
    throw std::runtime_error("getsockname() failed");
  }
  port_ = ntohs(addr.sin_port);
}

UdpEndpoint::~UdpEndpoint() { shutdown(); }

void UdpEndpoint::shutdown() {
  if (fd_ >= 0) {
    ::shutdown(fd_, SHUT_RDWR);
    ::close(fd_);
    fd_ = -1;
  }
}

bool UdpEndpoint::send(std::uint16_t to_port, const Envelope& envelope) {
  if (fd_ < 0) return false;
  std::vector<std::byte> frame(kHeaderBytes + envelope.payload.size());
  frame[0] = static_cast<std::byte>(envelope.kind);
  std::memcpy(frame.data() + 1, &envelope.from, 8);
  std::memcpy(frame.data() + 9, &envelope.token, 8);
  if (!envelope.payload.empty()) {
    std::memcpy(frame.data() + kHeaderBytes, envelope.payload.data(),
                envelope.payload.size());
  }
  const sockaddr_in addr = loopback(to_port);
  const auto sent =
      ::sendto(fd_, frame.data(), frame.size(), 0,
               reinterpret_cast<const sockaddr*>(&addr), sizeof addr);
  return sent == static_cast<ssize_t>(frame.size());
}

std::optional<Envelope> UdpEndpoint::receive(
    std::chrono::microseconds timeout) {
  if (fd_ < 0) return std::nullopt;
  // A zero timeval means "block forever" to SO_RCVTIMEO. A caller's
  // sub-microsecond wait truncates to exactly that, which would wedge the
  // peer's receive loop (and its stop/join) until a stray datagram arrives.
  if (timeout <= std::chrono::microseconds::zero()) {
    timeout = std::chrono::microseconds{1};
  }
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout.count() / 1'000'000);
  tv.tv_usec = static_cast<suseconds_t>(timeout.count() % 1'000'000);
  if (::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv) != 0) {
    return std::nullopt;
  }
  std::byte buffer[kMaxDatagram];
  const auto received = ::recv(fd_, buffer, sizeof buffer, 0);
  if (received < 0) return std::nullopt;  // Timeout or socket closure.
  if (received < static_cast<ssize_t>(kHeaderBytes)) {
    // A datagram arrived but is too short to even frame an envelope: that is
    // wire truncation, not silence, and must show in the ledger.
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  const auto kind = static_cast<std::uint8_t>(buffer[0]);
  if (kind < static_cast<std::uint8_t>(EnvelopeKind::kGossipRequest) ||
      kind > static_cast<std::uint8_t>(EnvelopeKind::kGossipBusy)) {
    // Corrupted kind byte: the envelope cannot be dispatched safely.
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }

  Envelope envelope;
  envelope.kind = static_cast<EnvelopeKind>(kind);
  std::memcpy(&envelope.from, buffer + 1, 8);
  std::memcpy(&envelope.token, buffer + 9, 8);
  envelope.payload.assign(buffer + kHeaderBytes, buffer + received);
  return envelope;
}

UdpDirectory::UdpDirectory(std::vector<stats::Value> attributes,
                           std::vector<std::uint16_t> ports)
    : attributes_(std::move(attributes)), ports_(std::move(ports)) {
  assert(attributes_.size() == ports_.size());
  ids_.resize(attributes_.size());
  for (std::size_t i = 0; i < ids_.size(); ++i) {
    ids_[i] = static_cast<host::NodeId>(i);
  }
}

std::optional<host::NodeId> UdpDirectory::pick_gossip_target(
    host::NodeId id, rng::Rng& rng) const {
  if (ids_.size() < 2) return std::nullopt;
  for (;;) {
    const host::NodeId candidate = ids_[rng.below(ids_.size())];
    if (candidate != id) return candidate;
  }
}

std::vector<host::NodeId> UdpDirectory::neighbors(host::NodeId id) const {
  std::vector<host::NodeId> out;
  out.reserve(ids_.size() - 1);
  for (host::NodeId other : ids_) {
    if (other != id) out.push_back(other);
  }
  return out;
}

std::vector<stats::Value> UdpDirectory::known_attribute_values(
    host::NodeId id, const host::HostView& /*host*/) const {
  std::vector<stats::Value> values;
  values.reserve(attributes_.size() - 1);
  for (std::size_t i = 0; i < attributes_.size(); ++i) {
    if (static_cast<host::NodeId>(i) != id) values.push_back(attributes_[i]);
  }
  return values;
}

void UdpDirectory::record_traffic(host::NodeId, host::NodeId,
                                  host::Channel channel, std::size_t bytes) {
  ledger_.record_message(channel, bytes);
}

host::TrafficStats UdpDirectory::traffic() const { return ledger_.snapshot(); }

UdpPeer::UdpPeer(UdpPeerConfig config, host::NodeId id, UdpDirectory& directory,
                 UdpEndpoint& endpoint, std::unique_ptr<host::NodeAgent> agent)
    : config_(config),
      id_(id),
      directory_(directory),
      endpoint_(endpoint),
      agent_(std::move(agent)),
      rng_(config.seed ^ (id * 0x9e3779b97f4a7c15ULL)),
      conduit_(config.faults),
      fault_rng_(conduit_.faults().node_stream(id)),
      port_(conduit_, *this, fault_rng_, traffic_) {
  if (!agent_) throw std::invalid_argument("peer requires an agent");
}

UdpPeer::~UdpPeer() { stop(); }

void UdpPeer::start() {
  if (thread_.joinable()) return;
  stop_.store(false);
  thread_ = std::thread([this] { run(); });
}

void UdpPeer::stop() {
  if (!thread_.joinable()) return;
  stop_.store(true);
  thread_.join();
  // Surface this peer's reliability counters through the shared ledger:
  // fault-injected sends plus every datagram the endpoint rejected as
  // truncated or undecodable.
  const std::uint64_t rejected = endpoint_.rejected_datagrams();
  traffic_.rejected_messages = rejected - rejected_reported_;
  rejected_reported_ = rejected;
  directory_.merge_traffic(traffic_);
  traffic_ = host::TrafficStats{};
}

bool UdpPeer::send_request(host::NodeId to, std::uint64_t token,
                           std::span<const std::byte> payload) {
  return send_envelope(to, EnvelopeKind::kGossipRequest, token, payload);
}

bool UdpPeer::send_response(host::NodeId to, std::uint64_t token,
                            std::span<const std::byte> payload) {
  return send_envelope(to, EnvelopeKind::kGossipResponse, token, payload);
}

void UdpPeer::send_busy(host::NodeId to, std::uint64_t token) {
  endpoint_.send(directory_.port_of(to),
                 Envelope{EnvelopeKind::kGossipBusy, id_, token, {}});
}

void UdpPeer::record_gossip_sent(host::NodeId peer, std::size_t bytes) {
  directory_.record_traffic(id_, peer, host::Channel::kAggregation, bytes);
}

void UdpPeer::record_gossip_received(host::NodeId /*peer*/,
                                     std::size_t /*bytes*/) {
  // The shared ledger counts each recorded message as both sent and
  // received (the global view of a point-to-point transfer), so a separate
  // receive-side record would double-count.
}

bool UdpPeer::send_envelope(host::NodeId to, EnvelopeKind kind,
                            std::uint64_t token,
                            std::span<const std::byte> payload) {
  // The span aliases the agent's (or the conduit's corruption) scratch; the
  // envelope outlives the callback, so copy into an owned payload.
  return endpoint_.send(
      directory_.port_of(to),
      Envelope{kind, id_, token,
               std::vector<std::byte>(payload.begin(), payload.end())});
}

host::AgentContext UdpPeer::make_context() {
  return host::AgentContext{directory_, directory_, id_,
                           local_round_, 0,         directory_.attribute_of(id_),
                           rng_};
}

void UdpPeer::run_on_peer(
    const std::function<void(host::NodeAgent&, host::AgentContext&)>& fn) {
  if (!thread_.joinable()) {
    host::AgentContext ctx = make_context();
    fn(*agent_, ctx);
    return;
  }
  std::promise<void> done;
  auto future = done.get_future();
  {
    const std::lock_guard<std::mutex> lock(tasks_mutex_);
    tasks_.push_back([&fn, &done](host::NodeAgent& agent,
                                  host::AgentContext& ctx) {
      fn(agent, ctx);
      done.set_value();
    });
  }
  future.wait();  // The loop polls tasks at least once per receive timeout.
}

void UdpPeer::restart(const host::AgentFactory& factory) {
  const bool warm = config_.faults.warm_restart;
  // The swap itself must happen on the peer's thread (the only place agent_
  // may be touched while running); run_on_peer posts there and blocks. The
  // task's agent reference points at the old agent and is not used after the
  // replacement.
  run_on_peer([&](host::NodeAgent& /*agent*/, host::AgentContext& ctx) {
    host::restart_agent(agent_, warm, factory, [&ctx](bool) { return ctx; });
    port_.session().abandon();
    ++traffic_.crash_restarts;
  });
}

void UdpPeer::drain_tasks() {
  for (;;) {
    std::function<void(host::NodeAgent&, host::AgentContext&)> task;
    {
      const std::lock_guard<std::mutex> lock(tasks_mutex_);
      if (tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.erase(tasks_.begin());
    }
    host::AgentContext ctx = make_context();
    task(*agent_, ctx);
  }
}

void UdpPeer::run() {
  auto jittered = [this] {
    const double factor =
        rng_.uniform(1.0 - config_.period_jitter, 1.0 + config_.period_jitter);
    return std::chrono::duration_cast<Clock::duration>(config_.gossip_period *
                                                       factor);
  };
  Clock::time_point next_tick = Clock::now() + jittered();
  while (!stop_.load(std::memory_order_relaxed)) {
    drain_tasks();
    const auto now = Clock::now();
    if (now >= next_tick) {
      host::AgentContext ctx = make_context();
      tick(ctx);
      next_tick += jittered();
      continue;
    }
    const auto wait = std::min(
        std::chrono::duration_cast<std::chrono::microseconds>(next_tick - now),
        std::chrono::microseconds(2000));  // Bounded so tasks stay responsive.
    auto envelope = endpoint_.receive(wait);
    if (envelope) {
      host::AgentContext ctx = make_context();
      handle(ctx, std::move(*envelope));
    }
  }
  drain_tasks();
}

void UdpPeer::tick(host::AgentContext& ctx) {
  ++local_round_;
  agent_->on_round_start(ctx);
  // The directory always yields a target (static full membership), so a
  // failed initiation here is only the port declining (locked or silent) or
  // a socket-level send failure — nothing to count.
  (void)port_.initiate(
      *agent_, ctx, [this] { return directory_.pick_gossip_target(id_, rng_); },
      config_.response_timeout);
}

void UdpPeer::handle(host::AgentContext& ctx, Envelope&& envelope) {
  switch (envelope.kind) {
    case EnvelopeKind::kGossipRequest:
      port_.on_request(*agent_, ctx, envelope.from, envelope.token,
                       envelope.payload);
      return;
    case EnvelopeKind::kGossipResponse:
      port_.on_response(*agent_, ctx, envelope.from, envelope.token,
                        envelope.payload);
      return;
    case EnvelopeKind::kGossipBusy:
      port_.on_busy(envelope.token);
      return;
    case EnvelopeKind::kBootstrapRequest:
    case EnvelopeKind::kBootstrapResponse:
    case EnvelopeKind::kWakeup:
      return;  // Static membership: no join-time transfer needed.
  }
}

}  // namespace adam2::runtime
