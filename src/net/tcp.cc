#include "net/tcp.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <span>
#include <string_view>

#include "common/log.h"
#include "net/frame.h"

namespace obiwan::net {
namespace {

// Absolute steady-clock deadline; negative = unbounded.
constexpr Nanos kNoDeadlineAt = -1;

// Read buffer of one inbound connection, or of one calling thread for
// replies. A frame that fits, header included, is read with one recv once
// the kernel holds all of it; a larger frame gets a one-off buffer.
constexpr std::size_t kReadBufferBytes = 64 * 1024;

// Pause after a failed accept while serving: descriptor exhaustion, a
// connection aborted in the backlog or a short memory squeeze clears up,
// and retrying at once would spin.
constexpr auto kAcceptBackoff = std::chrono::milliseconds(10);

Nanos SteadyNow() { return SystemClock::Instance().Now(); }

Status Errno(const std::string& what) {
  return InternalError(what + ": " + std::strerror(errno));
}

// Remaining budget until `deadline_at`: negative = unbounded, 0 = expired.
Nanos Remaining(Nanos deadline_at) {
  if (deadline_at < 0) return -1;
  const Nanos left = deadline_at - SteadyNow();
  return left > 0 ? left : 0;
}

// Wait until one of `fds` is ready or `deadline_at` passes; the number
// ready, 0 on timeout. A hangup or socket error counts as ready; the call
// that follows reports it.
Result<int> Poll(std::span<pollfd> fds, Nanos deadline_at) {
  for (;;) {
    const Nanos remaining = Remaining(deadline_at);
    if (remaining == 0) return 0;
    const timespec budget{static_cast<time_t>(remaining / kSecond),
                          static_cast<long>(remaining % kSecond)};
    const int rc = ::ppoll(fds.data(), fds.size(),
                           remaining < 0 ? nullptr : &budget, nullptr);
    if (rc >= 0) return rc;
    if (errno != EINTR) return Errno("poll");
  }
}

// Wait until `fd` is ready for `events` or `deadline_at` passes. Besides
// RequestAll's wait for the next reply, this is the only place a bounded
// exchange blocks: its send and recv calls never do. `what` names the step
// in the timeout error.
Status WaitReady(int fd, short events, Nanos deadline_at, std::string_view what) {
  pollfd pfd{fd, events, 0};
  OBIWAN_ASSIGN_OR_RETURN(const int ready, Poll({&pfd, 1}, deadline_at));
  if (ready == 0) return TimeoutError(std::string(what) + ": deadline exceeded");
  return Status::Ok();
}

// Bounded I/O runs with MSG_DONTWAIT and waits in WaitReady on the remaining
// budget; unbounded I/O (the server side) simply blocks.
int IoFlags(Nanos deadline_at) { return deadline_at < 0 ? 0 : MSG_DONTWAIT; }

// Write one frame, `u32 LE length | head | tail`, bounded by `deadline_at`,
// with one gather sendmsg when the socket buffer takes it all. The frame
// must be coalesced into one write: a separate header write would make every
// exchange a write-write-read pattern, which stalls ~40 ms per round trip on
// reused connections (Nagle holding the second segment for the peer's
// delayed ACK). The caller keeps head + tail within kMaxFrameBytes.
Status WriteFrame(int fd, Nanos deadline_at, BytesView head,
                  BytesView tail = {}) {
  const auto size = static_cast<std::uint32_t>(head.size() + tail.size());
  std::uint8_t header[4] = {
      static_cast<std::uint8_t>(size), static_cast<std::uint8_t>(size >> 8),
      static_cast<std::uint8_t>(size >> 16), static_cast<std::uint8_t>(size >> 24)};
  std::array<iovec, 3> parts{{{header, sizeof(header)},
                              {const_cast<std::uint8_t*>(head.data()), head.size()},
                              {const_cast<std::uint8_t*>(tail.data()), tail.size()}}};
  msghdr msg{};
  msg.msg_iov = parts.data();
  msg.msg_iovlen = parts.size();
  for (;;) {
    const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL | IoFlags(deadline_at));
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK) return Errno("send");
      OBIWAN_RETURN_IF_ERROR(WaitReady(fd, POLLOUT, deadline_at, "send"));
      continue;
    }
    // Skip what the kernel took; a partial write resumes mid-part.
    auto sent = static_cast<std::size_t>(n);
    while (msg.msg_iovlen > 0 && sent >= msg.msg_iov->iov_len) {
      sent -= msg.msg_iov->iov_len;
      ++msg.msg_iov;
      --msg.msg_iovlen;
    }
    if (msg.msg_iovlen == 0) return Status::Ok();
    msg.msg_iov->iov_base = static_cast<std::uint8_t*>(msg.msg_iov->iov_base) + sent;
    msg.msg_iov->iov_len -= sent;
  }
}

// Reads length-prefixed frames off one connection through a fixed buffer of
// kReadBufferBytes. A frame that fits arrives in as few recv calls as the
// kernel allows — one when it already holds the whole frame — and is handed
// out as a view into the buffer. A larger frame is read into a one-off
// allocation that the next read releases, so one big frame never pins its
// size for the rest of the connection's life.
class FrameReader {
 public:
  explicit FrameReader(std::uint8_t* buffer) : buffer_(buffer) {}

  // The next frame's payload, valid until the next call or the reader's
  // end, bounded by `deadline_at`. A clean close mid-frame is data loss.
  // `*progressed` (optional) is set once any byte has been consumed from
  // the stream.
  Result<BytesView> Next(int fd, Nanos deadline_at, bool* progressed = nullptr);

  // Whether bytes past the last frame have already been received.
  bool has_trailing_bytes() const { return end_ > begin_; }

 private:
  // One recv of at most `size` bytes into `out`.
  static Result<std::size_t> Receive(int fd, std::uint8_t* out, std::size_t size,
                                     Nanos deadline_at, bool* progressed);
  // Receive into the buffer until it holds at least `size` bytes.
  Status Fill(int fd, std::size_t size, Nanos deadline_at, bool* progressed);

  std::uint8_t* buffer_;
  std::size_t begin_ = 0;  // first byte not yet handed out
  std::size_t end_ = 0;    // one past the last byte received
  Bytes large_;            // the current frame, when it outgrew the buffer
};

Result<std::size_t> FrameReader::Receive(int fd, std::uint8_t* out,
                                         std::size_t size, Nanos deadline_at,
                                         bool* progressed) {
  // Bounded reads try first and wait only when nothing has arrived:
  // RequestAll reads a connection once its poll reports it ready.
  for (;;) {
    const ssize_t n = ::recv(fd, out, size, IoFlags(deadline_at));
    if (n > 0) {
      if (progressed != nullptr) *progressed = true;
      return static_cast<std::size_t>(n);
    }
    if (n == 0) return DataLossError("peer closed connection mid-frame");
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      OBIWAN_RETURN_IF_ERROR(WaitReady(fd, POLLIN, deadline_at, "recv"));
    } else if (errno != EINTR) {
      return Errno("recv");
    }
  }
}

Status FrameReader::Fill(int fd, std::size_t size, Nanos deadline_at,
                         bool* progressed) {
  while (end_ < size) {
    OBIWAN_ASSIGN_OR_RETURN(
        std::size_t n, Receive(fd, buffer_ + end_, kReadBufferBytes - end_,
                               deadline_at, progressed));
    end_ += n;
  }
  return Status::Ok();
}

Result<BytesView> FrameReader::Next(int fd, Nanos deadline_at, bool* progressed) {
  Bytes().swap(large_);
  if (begin_ > 0) {  // move the bytes of the next frame to the front
    std::memmove(buffer_, buffer_ + begin_, end_ - begin_);
    end_ -= begin_;
    begin_ = 0;
  }
  OBIWAN_RETURN_IF_ERROR(Fill(fd, 4, deadline_at, progressed));
  const std::uint32_t size =
      std::uint32_t{buffer_[0]} | std::uint32_t{buffer_[1]} << 8 |
      std::uint32_t{buffer_[2]} << 16 | std::uint32_t{buffer_[3]} << 24;
  if (size > kMaxFrameBytes) return DataLossError("oversized frame");
  const std::size_t frame_end = 4 + std::size_t{size};
  if (frame_end <= kReadBufferBytes) {
    OBIWAN_RETURN_IF_ERROR(Fill(fd, frame_end, deadline_at, progressed));
    begin_ = frame_end;
    return BytesView(buffer_ + 4, size);
  }
  // Too big for the buffer, so everything received so far is this frame's.
  large_.resize(size);
  std::size_t got = end_ - 4;
  std::memcpy(large_.data(), buffer_ + 4, got);
  begin_ = end_ = 0;
  while (got < size) {
    OBIWAN_ASSIGN_OR_RETURN(
        std::size_t n,
        Receive(fd, large_.data() + got, size - got, deadline_at, progressed));
    got += n;
  }
  return AsView(large_);
}

// The calling thread's reply buffer. An exchange copies its reply out before
// it returns, so one buffer per thread serves every connection it uses.
// Inbound connections keep their own: a handler reads its request in place
// while it makes requests of its own (a put's fanout) on the same thread.
std::uint8_t* ReplyBuffer() {
  thread_local const auto buffer =
      std::make_unique_for_overwrite<std::uint8_t[]>(kReadBufferBytes);
  return buffer.get();
}

// Send the handler's reply. An ok reply goes out as [len][0x01][payload]
// straight from the handler's buffer; only error replies are encoded, and
// copied. A reply over the frame cap is answered with an error frame, so
// the caller learns why and the connection stays usable.
Status WriteReply(int fd, const Result<Bytes>& reply) {
  if (reply.ok() && reply->size() < kMaxFrameBytes) {
    const std::uint8_t ok = kReplyOk;
    return WriteFrame(fd, kNoDeadlineAt, BytesView(&ok, 1), AsView(*reply));
  }
  const Bytes error = EncodeReplyFrame(
      reply.ok() ? InvalidArgumentError("reply of " + std::to_string(reply->size()) +
                                        " bytes exceeds the frame cap")
                 : reply.status());
  return WriteFrame(fd, kNoDeadlineAt, AsView(error));
}

Result<std::pair<std::string, std::uint16_t>> ParseAddress(const Address& addr) {
  auto colon = addr.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == addr.size()) {
    return InvalidArgumentError("expected host:port, got '" + addr + "'");
  }
  int port = 0;
  for (std::size_t i = colon + 1; i < addr.size(); ++i) {
    char c = addr[i];
    if (c < '0' || c > '9') return InvalidArgumentError("bad port in '" + addr + "'");
    port = port * 10 + (c - '0');
    if (port > 65535) return InvalidArgumentError("port out of range in '" + addr + "'");
  }
  return std::make_pair(addr.substr(0, colon), static_cast<std::uint16_t>(port));
}

class FdGuard {
 public:
  explicit FdGuard(int fd) : fd_(fd) {}
  ~FdGuard() {
    if (fd_ >= 0) ::close(fd_);
  }
  FdGuard(const FdGuard&) = delete;
  FdGuard& operator=(const FdGuard&) = delete;
  int get() const { return fd_; }
  int release() {
    int fd = fd_;
    fd_ = -1;
    return fd;
  }

 private:
  int fd_;
};

Status SetNonBlocking(int fd, bool non_blocking) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return Errno("fcntl(F_GETFL)");
  flags = non_blocking ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (::fcntl(fd, F_SETFL, flags) < 0) return Errno("fcntl(F_SETFL)");
  return Status::Ok();
}

// Connect within the deadline budget: non-blocking connect + poll, then back
// to blocking mode (bounded exchanges pass MSG_DONTWAIT per call instead).
Result<int> ConnectWithDeadline(const std::string& host, std::uint16_t port,
                                const Address& to, Nanos deadline_at) {
  FdGuard fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (fd.get() < 0) return Errno("socket");

  int one = 1;
  ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return InvalidArgumentError("bad IPv4 address: " + host);
  }

  OBIWAN_RETURN_IF_ERROR(SetNonBlocking(fd.get(), true));
  if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    if (errno != EINPROGRESS) {
      // Connection refused / unreachable is the TCP face of a disconnection.
      return DisconnectedError("connect to " + to + ": " + std::strerror(errno));
    }
    OBIWAN_RETURN_IF_ERROR(
        WaitReady(fd.get(), POLLOUT, deadline_at, "connect to " + to));
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd.get(), SOL_SOCKET, SO_ERROR, &err, &len) < 0) {
      return Errno("getsockopt(SO_ERROR)");
    }
    if (err != 0) {
      return DisconnectedError("connect to " + to + ": " + std::strerror(err));
    }
  }
  OBIWAN_RETURN_IF_ERROR(SetNonBlocking(fd.get(), false));
  return fd.release();
}

// Actual peer endpoint of a connected socket, for logs/spans/flight
// recorder; falls back to an opaque tag if the socket is already gone.
Address PeerAddress(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getpeername(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0 ||
      addr.sin_family != AF_INET) {
    return "tcp-peer";
  }
  char buf[INET_ADDRSTRLEN];
  if (::inet_ntop(AF_INET, &addr.sin_addr, buf, sizeof(buf)) == nullptr) {
    return "tcp-peer";
  }
  return std::string(buf) + ":" + std::to_string(ntohs(addr.sin_port));
}

}  // namespace

Result<std::unique_ptr<TcpTransport>> TcpTransport::Create(std::uint16_t port) {
  FdGuard fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (fd.get() < 0) return Errno("socket");

  int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    return Errno("bind");
  }
  if (::listen(fd.get(), 64) < 0) return Errno("listen");

  socklen_t len = sizeof(addr);
  if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    return Errno("getsockname");
  }
  return std::unique_ptr<TcpTransport>(
      new TcpTransport(fd.release(), ntohs(addr.sin_port)));
}

TcpTransport::TcpTransport(int listen_fd, std::uint16_t port)
    : listen_fd_(listen_fd), port_(port) {
  SetDefaultDeadline(kDefaultDeadline);
}

TcpTransport::~TcpTransport() {
  StopServing();
  CloseIdleConnections();
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

Address TcpTransport::LocalAddress() const {
  return "127.0.0.1:" + std::to_string(port_);
}

void TcpTransport::SetPoolCapacity(std::size_t capacity) {
  std::vector<int> evicted;
  {
    std::lock_guard lock(pool_mutex_);
    pool_capacity_ = capacity;
    while (pool_.size() > pool_capacity_) {
      evicted.push_back(pool_.back().second);
      pool_.pop_back();
    }
  }
  for (int fd : evicted) ::close(fd);
}

void TcpTransport::SetMaxConnections(std::size_t max_connections) {
  {
    std::lock_guard lock(conn_mutex_);
    max_connections_ = max_connections > 0 ? max_connections : 1;
  }
  conn_cv_.notify_all();
}

std::size_t TcpTransport::idle_pooled_connections() const {
  std::lock_guard lock(pool_mutex_);
  return pool_.size();
}

std::size_t TcpTransport::active_connections() const {
  std::lock_guard lock(conn_mutex_);
  return conn_threads_.size();
}

Status TcpTransport::Serve(MessageHandler* handler) {
  if (running_.load()) return FailedPreconditionError("already serving");
  handler_.store(handler);
  running_.store(true);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::Ok();
}

void TcpTransport::StopServing() {
  if (!running_.exchange(false)) return;
  // Unblock accept() by shutting the listening socket down; keep the fd so
  // LocalAddress stays valid until destruction.
  ::shutdown(listen_fd_, SHUT_RDWR);
  {
    // Under the lock, so the accept loop is either before its predicate
    // check or already waiting: the wakeup cannot fall between the two.
    std::lock_guard lock(conn_mutex_);
    conn_cv_.notify_all();
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  std::unique_lock lock(conn_mutex_);
  // Persistent connections idle in recv() until their peer speaks; shut them
  // down so every handler thread unblocks and retires itself.
  for (auto& [fd, thread] : conn_threads_) ::shutdown(fd, SHUT_RDWR);
  conn_cv_.wait(lock, [this] { return conn_threads_.empty(); });
  for (auto& thread : finished_threads_) thread.join();
  finished_threads_.clear();
  handler_.store(nullptr);
}

void TcpTransport::AcceptLoop() {
  while (running_.load()) {
    {
      std::unique_lock lock(conn_mutex_);
      // Reap finished connection threads so a long-lived server does not
      // accumulate one dead std::thread per connection ever accepted.
      for (auto& thread : finished_threads_) thread.join();
      finished_threads_.clear();
      // Bound concurrency: stop accepting (the kernel backlog queues) until
      // a handler slot frees up.
      conn_cv_.wait(lock, [this] {
        return !running_.load() || conn_threads_.size() < max_connections_;
      });
    }
    if (!running_.load()) break;
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      // StopServing's shutdown is the only failure that ends the loop.
      // Anything else while serving (EMFILE/ENFILE, ENOBUFS/ENOMEM,
      // ECONNABORTED) passes: back off, then accept again.
      if (errno != EINTR) {
        OBIWAN_LOG(kDebug) << "accept: " << std::strerror(errno);
        std::unique_lock lock(conn_mutex_);
        conn_cv_.wait_for(lock, kAcceptBackoff,
                          [this] { return !running_.load(); });
      }
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    std::lock_guard lock(conn_mutex_);
    if (!running_.load()) {
      ::close(fd);
      break;
    }
    // The handler thread's retire step locks conn_mutex_, so it cannot race
    // past this emplace even if the connection is closed immediately.
    conn_threads_.emplace(fd, std::thread([this, fd] {
                            HandleConnection(fd);
                            RetireConnection(fd);
                          }));
  }
}

void TcpTransport::RetireConnection(int fd) {
  std::lock_guard lock(conn_mutex_);
  ::close(fd);
  auto it = conn_threads_.find(fd);
  if (it != conn_threads_.end()) {
    finished_threads_.push_back(std::move(it->second));
    conn_threads_.erase(it);
  }
  conn_cv_.notify_all();
}

void TcpTransport::HandleConnection(int fd) {
  const Address peer = PeerAddress(fd);
  // The handler reads each request in place, out of this connection's own
  // buffer; it lives as long as the connection.
  const auto buffer =
      std::make_unique_for_overwrite<std::uint8_t[]>(kReadBufferBytes);
  FrameReader reader(buffer.get());
  // A connection carries any number of request/reply exchanges in sequence.
  while (running_.load()) {
    Result<BytesView> request = reader.Next(fd, kNoDeadlineAt);
    if (!request.ok()) return;  // peer closed or stream corrupt
    MessageHandler* handler = handler_.load();
    if (handler == nullptr) return;
    if (!WriteReply(fd, handler->HandleRequest(peer, *request)).ok()) return;
  }
}

int TcpTransport::CheckoutConnection(const Address& to) {
  std::lock_guard lock(pool_mutex_);
  for (auto it = pool_.begin(); it != pool_.end();) {
    if (it->first != to) {
      ++it;
      continue;
    }
    const int fd = it->second;
    it = pool_.erase(it);
    // Health check: a readable FIN (peer hung up) or stray bytes (protocol
    // desync) disqualify the connection for a fresh request/reply exchange.
    std::uint8_t probe;
    const ssize_t n = ::recv(fd, &probe, 1, MSG_PEEK | MSG_DONTWAIT);
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return fd;
    ::close(fd);
  }
  return -1;
}

void TcpTransport::CheckinConnection(const Address& to, int fd) {
  std::vector<int> evicted;
  {
    std::lock_guard lock(pool_mutex_);
    if (pool_capacity_ == 0) {
      evicted.push_back(fd);
    } else {
      pool_.emplace_front(to, fd);
      while (pool_.size() > pool_capacity_) {
        evicted.push_back(pool_.back().second);
        pool_.pop_back();
      }
    }
  }
  for (int evicted_fd : evicted) ::close(evicted_fd);
}

void TcpTransport::CloseIdleConnections() {
  std::lock_guard lock(pool_mutex_);
  for (auto& [address, fd] : pool_) ::close(fd);
  pool_.clear();
}

Result<Bytes> TcpTransport::Request(const Address& to, BytesView request,
                                    const CallOptions& options) {
  const Exchange exchange{to, request};
  return std::move(RequestAll({&exchange, 1}, 1, options, {}).front());
}

std::vector<Result<Bytes>> TcpTransport::RequestAll(
    std::span<const Exchange> exchanges, std::size_t width,
    const CallOptions& options, const ExchangeHooks& hooks) {
  const Nanos deadline = EffectiveDeadline(options);
  width = std::max<std::size_t>(width, 1);
  std::vector<Result<Bytes>> replies(exchanges.size(), Bytes{});
  std::vector<Call> calls;  // calls[i] is exchange i's, once sent
  calls.reserve(exchanges.size());
  auto finish = [&](std::size_t i, Result<Bytes> reply) {
    if (reply.ok()) {
      telemetry_.OnRequest(exchanges[i].request.size());
      telemetry_.OnReply(reply->size());
    } else {
      telemetry_.OnFailure(reply.status());
    }
    replies[i] = std::move(reply);
    hooks.done(i, replies[i]);
  };
  std::vector<std::size_t> open;  // sent, reply not yet read, in send order
  std::vector<pollfd> fds;
  while (calls.size() < exchanges.size() || !open.empty()) {
    // Top up to `width` outstanding, each timed from its own send.
    while (open.size() < width && calls.size() < exchanges.size()) {
      const std::size_t i = calls.size();
      hooks.sent(i);
      calls.push_back({exchanges[i].to, exchanges[i].request,
                       deadline < 0 ? kNoDeadlineAt : SteadyNow() + deadline});
      if (Status sent = Send(calls[i]); sent.ok()) {
        open.push_back(i);
      } else {
        finish(i, sent);
      }
    }
    if (open.empty()) continue;
    // Wait for the next reply or the nearest deadline (the oldest send's),
    // then read every connection that is ready or out of time. After a
    // failed poll every connection is read, and each read reports its own
    // failure.
    fds.clear();
    for (std::size_t i : open) fds.push_back({calls[i].fd, POLLIN, 0});
    const Result<int> polled = Poll(fds, calls[open.front()].deadline_at);
    for (std::size_t k = open.size(); k-- > 0;) {
      const std::size_t i = open[k];
      if (polled.ok() && fds[k].revents == 0 &&
          Remaining(calls[i].deadline_at) != 0) {
        continue;
      }
      finish(i, Receive(calls[i]));
      open.erase(open.begin() + static_cast<std::ptrdiff_t>(k));
    }
  }
  return replies;
}

Status TcpTransport::Send(Call& call, bool fresh) {
  // The server would drop a frame over the cap after reading its header,
  // and the stale-connection rule would then send it again: refuse it here.
  if (call.request.size() > kMaxFrameBytes) {
    return InvalidArgumentError("request of " +
                                std::to_string(call.request.size()) +
                                " bytes exceeds the frame cap");
  }
  call.fd = fresh ? -1 : CheckoutConnection(call.to);
  call.reused = call.fd >= 0;
  if (call.reused) {
    telemetry_.OnPoolHit();
  } else {
    OBIWAN_ASSIGN_OR_RETURN(auto host_port, ParseAddress(call.to));
    OBIWAN_ASSIGN_OR_RETURN(
        call.fd, ConnectWithDeadline(host_port.first, host_port.second,
                                     call.to, call.deadline_at));
    telemetry_.OnConnect();
  }
  Status sent = WriteFrame(call.fd, call.deadline_at, call.request);
  if (sent.ok()) return sent;
  ::close(call.fd);
  call.fd = -1;
  // The checkout health check can miss a peer that vanished between probe
  // and write: a reused connection that fails before any reply byte gets one
  // more try on a new connection. Timeouts are excluded: the peer may still
  // be executing the request, and re-sending is the retry decorator's
  // (at-least-once) decision.
  if (!call.reused || sent.code() == StatusCode::kTimeout) return sent;
  return Send(call, /*fresh=*/true);
}

Result<Bytes> TcpTransport::Receive(Call& call) {
  FrameReader reader(ReplyBuffer());
  bool reply_started = false;
  Result<BytesView> frame = reader.Next(call.fd, call.deadline_at, &reply_started);
  if (!frame.ok()) {
    ::close(call.fd);
    // Send's stale-connection rule, for a reused connection that died
    // before any reply byte arrived.
    if (!call.reused || reply_started ||
        frame.status().code() == StatusCode::kTimeout) {
      return frame.status();
    }
    OBIWAN_RETURN_IF_ERROR(Send(call, /*fresh=*/true));
    return Receive(call);  // a fresh connection, so no further retry
  }
  // Bytes past the reply mean the stream is out of step: never pool it.
  if (reader.has_trailing_bytes()) {
    ::close(call.fd);
  } else {
    CheckinConnection(call.to, call.fd);
  }
  return DecodeReplyFrame(*frame);
}

}  // namespace obiwan::net
