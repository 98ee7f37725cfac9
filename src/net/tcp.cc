#include "net/tcp.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>
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

// Wait until `fd` is ready for `events` or `deadline_at` passes. This is the
// only place a bounded exchange blocks: its send and recv calls never do. A
// hangup or socket error counts as ready; the call that follows reports it.
// `what` names the step in the timeout error.
Status WaitReady(int fd, short events, Nanos deadline_at, std::string_view what) {
  for (;;) {
    const Nanos remaining = Remaining(deadline_at);
    if (remaining == 0) {
      return TimeoutError(std::string(what) + ": deadline exceeded");
    }
    const timespec budget{static_cast<time_t>(remaining / kSecond),
                          static_cast<long>(remaining % kSecond)};
    pollfd pfd{fd, events, 0};
    const int rc = ::ppoll(&pfd, 1, remaining < 0 ? nullptr : &budget, nullptr);
    if (rc > 0) return Status::Ok();
    if (rc == 0) return TimeoutError(std::string(what) + ": deadline exceeded");
    if (errno != EINTR) return Errno("poll");
  }
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
  for (;;) {
    if (deadline_at >= 0) {
      OBIWAN_RETURN_IF_ERROR(WaitReady(fd, POLLIN, deadline_at, "recv"));
    }
    const ssize_t n = ::recv(fd, out, size, IoFlags(deadline_at));
    if (n > 0) {
      if (progressed != nullptr) *progressed = true;
      return static_cast<std::size_t>(n);
    }
    if (n == 0) return DataLossError("peer closed connection mid-frame");
    if (errno != EINTR && errno != EAGAIN && errno != EWOULDBLOCK) {
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

// One request/reply exchange on `fd`: the reply frame, read through
// `reader`. `*reply_started` is set once any reply byte has been read (after
// which a stale-connection retry would risk a duplicate execution and is not
// attempted).
Result<BytesView> RoundTrip(int fd, FrameReader& reader, BytesView request,
                            Nanos deadline_at, bool* reply_started) {
  OBIWAN_RETURN_IF_ERROR(WriteFrame(fd, deadline_at, request));
  return reader.Next(fd, deadline_at, reply_started);
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
  Result<Bytes> reply = RequestImpl(to, request, options);
  if (reply.ok()) {
    telemetry_.OnRequest(request.size());
    telemetry_.OnReply(reply->size());
  } else {
    telemetry_.OnFailure(reply.status());
  }
  return reply;
}

Result<Bytes> TcpTransport::RequestImpl(const Address& to, BytesView request,
                                        const CallOptions& options) {
  OBIWAN_ASSIGN_OR_RETURN(auto host_port, ParseAddress(to));
  // The server would drop a frame over the cap after reading its header,
  // and the stale-connection rule would then send it again: refuse it here.
  if (request.size() > kMaxFrameBytes) {
    return InvalidArgumentError("request of " + std::to_string(request.size()) +
                                " bytes exceeds the frame cap");
  }
  const Nanos deadline = EffectiveDeadline(options);
  const Nanos deadline_at =
      deadline < 0 ? kNoDeadlineAt : SteadyNow() + deadline;

  bool reused = false;
  int fd = CheckoutConnection(to);
  if (fd >= 0) {
    reused = true;
    telemetry_.OnPoolHit();
  } else {
    OBIWAN_ASSIGN_OR_RETURN(
        fd, ConnectWithDeadline(host_port.first, host_port.second, to,
                                deadline_at));
    telemetry_.OnConnect();
  }

  FrameReader reader(ReplyBuffer());
  bool reply_started = false;
  Result<BytesView> frame =
      RoundTrip(fd, reader, request, deadline_at, &reply_started);
  if (!frame.ok()) {
    ::close(fd);
    // The checkout health check can miss a peer that vanished between probe
    // and write. If the exchange died on a reused connection before any
    // reply byte arrived, run it once more on a fresh connection. Timeouts
    // are excluded: the peer may still be executing the request, and
    // re-sending is the retry decorator's (at-least-once) decision.
    const bool stale_retry = reused && !reply_started &&
                             frame.status().code() != StatusCode::kTimeout;
    if (!stale_retry) return frame.status();
    OBIWAN_ASSIGN_OR_RETURN(
        fd, ConnectWithDeadline(host_port.first, host_port.second, to,
                                deadline_at));
    telemetry_.OnConnect();
    frame = RoundTrip(fd, reader, request, deadline_at, &reply_started);
    if (!frame.ok()) {
      ::close(fd);
      return frame.status();
    }
  }
  // Bytes past the reply mean the stream is out of step: never pool it.
  if (reader.has_trailing_bytes()) {
    ::close(fd);
  } else {
    CheckinConnection(to, fd);
  }
  return DecodeReplyFrame(*frame);
}

}  // namespace obiwan::net
