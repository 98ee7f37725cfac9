#include "reference.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "ledger.h"

namespace perfbench {
namespace {

constexpr int kTries = 3;
constexpr int kRoundTrips = 16;
constexpr std::size_t kMessageBytes = 1024;
constexpr int kStrings = 128;
constexpr int kMapKeys = 512;

void NoDelay(int fd) {
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

std::unique_ptr<HostReference> HostReference::Create() {
  const int listener = socket(AF_INET, SOCK_STREAM, 0);
  if (listener < 0) return nullptr;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  int client = -1;
  int server = -1;
  if (bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
      listen(listener, 1) == 0 &&
      getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    client = socket(AF_INET, SOCK_STREAM, 0);
    // The kernel completes a loopback handshake inside connect(), so one
    // thread can hold both ends.
    if (client >= 0 &&
        connect(client, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      server = accept(listener, nullptr, nullptr);
    }
  }
  close(listener);
  if (server < 0) {
    if (client >= 0) close(client);
    return nullptr;
  }
  NoDelay(client);
  NoDelay(server);
  return std::unique_ptr<HostReference>(new HostReference(client, server));
}

HostReference::HostReference(int client_fd, int server_fd)
    : client_fd_(client_fd),
      server_fd_(server_fd),
      message_(kMessageBytes, 'r'),
      received_(kMessageBytes, '\0') {}

HostReference::~HostReference() {
  close(client_fd_);
  close(server_fd_);
}

// Sends the message from one end and reads it whole at the other; loopback
// delivers it before write() returns.
bool HostReference::RoundTrip(int from, int to) {
  if (write(from, message_.data(), message_.size()) !=
      static_cast<ssize_t>(message_.size())) {
    return false;
  }
  std::size_t got = 0;
  while (got < kMessageBytes) {
    const ssize_t n = read(to, received_.data() + got, kMessageBytes - got);
    if (n <= 0) return false;
    got += static_cast<std::size_t>(n);
  }
  return true;
}

void HostReference::RunTask() {
  for (int i = 0; i < kRoundTrips; ++i) {
    RoundTrip(client_fd_, server_fd_);
    RoundTrip(server_fd_, client_fd_);
  }
  for (int i = 0; i < kStrings; ++i) {
    strings_.emplace_back(64 + (i * 37) % 1985, static_cast<char>('a' + i % 26));
  }
  std::vector<std::string> copies = strings_;
  for (const std::string& s : copies) sink_ += s.size() + std::uint8_t(s[0]);
  strings_.clear();
  for (int i = 0; i < kMapKeys; ++i) {
    map_.emplace(static_cast<std::uint64_t>(i) * 0x9E3779B97F4A7C15ull, i);
  }
  for (int i = 0; i < kMapKeys; ++i) {
    const auto it = map_.find(static_cast<std::uint64_t>(i) * 0x9E3779B97F4A7C15ull);
    if (it != map_.end()) sink_ += it->second;
  }
  map_.clear();
}

double HostReference::TaskUs() {
  double best = 0;
  for (int t = 0; t < kTries; ++t) {
    const std::int64_t t0 = NowNs();
    RunTask();
    const double us = static_cast<double>(NowNs() - t0) / 1e3;
    if (t == 0 || us < best) best = us;
  }
  return best;
}

}  // namespace perfbench
