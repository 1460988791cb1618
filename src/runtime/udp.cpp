#include "runtime/udp.hpp"

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "runtime/peer.hpp"

namespace adam2::runtime {
namespace {

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

UdpEndpoint::~UdpEndpoint() { ::close(fd_); }

void UdpEndpoint::connect(const Directory& directory,
                          std::vector<std::uint16_t> ports) {
  if (ports.size() != directory.size()) {
    throw std::invalid_argument("port table size differs from the directory");
  }
  ports_ = std::move(ports);
}

bool UdpEndpoint::send(host::NodeId to, Envelope envelope) {
  if (to >= ports_.size()) return false;
  std::vector<std::byte> frame(kHeaderBytes + envelope.payload.size());
  frame[0] = static_cast<std::byte>(envelope.kind);
  std::memcpy(frame.data() + 1, &envelope.from, 8);
  std::memcpy(frame.data() + 9, &envelope.token, 8);
  if (!envelope.payload.empty()) {
    std::memcpy(frame.data() + kHeaderBytes, envelope.payload.data(),
                envelope.payload.size());
  }
  const sockaddr_in addr = loopback(ports_[to]);
  const auto sent =
      ::sendto(fd_, frame.data(), frame.size(), 0,
               reinterpret_cast<const sockaddr*>(&addr), sizeof addr);
  return sent == static_cast<ssize_t>(frame.size());
}

std::optional<Envelope> UdpEndpoint::receive(Clock::time_point deadline) {
  std::byte buffer[kMaxDatagram];
  ssize_t received = -1;
  for (;;) {
    // A zero timeval means "block forever" to SO_RCVTIMEO. A deadline less
    // than a microsecond away truncates to exactly that, which would wedge
    // the peer's receive loop until a stray datagram arrives.
    const auto timeout = std::max(
        std::chrono::duration_cast<std::chrono::microseconds>(deadline -
                                                              Clock::now()),
        std::chrono::microseconds{1});
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(timeout.count() / 1'000'000);
    tv.tv_usec = static_cast<suseconds_t>(timeout.count() % 1'000'000);
    if (::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv) != 0) {
      return std::nullopt;
    }
    received = ::recv(fd_, buffer, sizeof buffer, 0);
    if (received >= 0) break;
    // A signal cut the wait short: wait out the rest of the deadline.
    if (errno == EINTR && Clock::now() < deadline) continue;
    return std::nullopt;  // Timeout.
  }
  if (received < static_cast<ssize_t>(kHeaderBytes)) {
    // A datagram arrived but is too short to even frame an envelope: that is
    // wire truncation, not silence, and must show in the ledger.
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  const auto kind = static_cast<std::uint8_t>(buffer[0]);
  if (kind < static_cast<std::uint8_t>(EnvelopeKind::kGossipRequest) ||
      kind > static_cast<std::uint8_t>(EnvelopeKind::kWakeup)) {
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

}  // namespace adam2::runtime
