// Real TCP transport.
//
// Deployment-grade counterpart to the in-process networks: length-prefixed
// frames over POSIX sockets, one handler thread per accepted connection. The
// simulated benchmarks never touch this; it exists so the same application
// code (sites, registry, replication) runs across real processes, and it is
// exercised by the cross-process integration tests.
//
// Two properties make it usable on the paper's "slow and unreliable
// connections":
//
//   Deadlines. Every request runs under an effective deadline (per-call
//   CallOptions or the transport default, kDefaultDeadline unless
//   configured), and it bounds the whole exchange, not each recv. Connect
//   is non-blocking with poll(); the request's send and the reply's recv
//   never block in the kernel call (MSG_DONTWAIT) and every wait in between
//   is a poll on the remaining budget, so a peer that accepts and then
//   stalls yields kTimeout instead of wedging the caller — which is what
//   makes RetryingTransport meaningful over real sockets. Server reads have
//   no deadline and simply block.
//
//   Connection pooling. Outbound connections are persistent and reused per
//   destination address instead of paying socket/connect/close per request.
//   Checkout health-checks the pooled socket (a peer FIN or stray bytes
//   disqualify it), a stale connection whose request fails before any reply
//   byte arrived is retried once on a fresh connection, a connection that
//   delivered bytes past its reply is closed instead of pooled, and the idle
//   pool is capped with LRU eviction.
//
// The exchange itself pays few system calls. A frame goes out in one gather
// sendmsg of [u32 length][payload] (an ok reply as [length][0x01][payload],
// so the reply is not copied) and comes in with one recv when it fits the
// connection's read buffer. A pooled exchange costs 4 calls on the client
// (health probe, sendmsg, poll, recv) and 2 on the server (recv, sendmsg).
// Both ends refuse frames over the 64 MiB cap (net/frame.h).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/contention.h"
#include "net/transport.h"

namespace obiwan::net {

class TcpTransport final : public Transport {
 public:
  using Transport::Request;

  // Default round-trip deadline on real sockets; override per call or with
  // SetDefaultDeadline (kNoDeadline restores unbounded waits).
  static constexpr Nanos kDefaultDeadline = 30 * kSecond;
  // Idle outbound connections kept across all destinations (LRU-evicted).
  static constexpr std::size_t kDefaultPoolCapacity = 8;
  // Concurrent inbound connections; the accept loop stops accepting (the
  // kernel backlog queues) until a slot frees up.
  static constexpr std::size_t kDefaultMaxConnections = 128;

  // Binds and listens immediately so the address (with the kernel-assigned
  // port when `port` is 0) is known before Serve is called.
  static Result<std::unique_ptr<TcpTransport>> Create(std::uint16_t port);

  ~TcpTransport() override;

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  Result<Bytes> Request(const Address& to, BytesView request,
                        const CallOptions& options) override;
  // Overlaps the exchanges on the calling thread: each goes out on its own
  // connection, at most `width` outstanding, and one ppoll over them waits
  // for the next reply or the nearest deadline. Connects and writes still
  // wait one exchange at a time. Request is a batch of one.
  std::vector<Result<Bytes>> RequestAll(std::span<const Exchange> exchanges,
                                        std::size_t width,
                                        const CallOptions& options,
                                        const ExchangeHooks& hooks) override;
  Status Serve(MessageHandler* handler) override;
  void StopServing() override;
  Address LocalAddress() const override;

  // Idle-connection cap; 0 disables pooling (one connect per request, the
  // pre-pool behaviour — benches use this to measure what pooling buys).
  void SetPoolCapacity(std::size_t capacity);
  // Server-side concurrent-connection bound (must be >= 1).
  void SetMaxConnections(std::size_t max_connections);

  // Outbound traffic issued through this transport (payload bytes, excluding
  // the 4-byte frame headers, to stay comparable with the in-process
  // networks), including its connects and pool hits.
  const TrafficTelemetry& telemetry() const { return telemetry_; }

  // Pooling introspection (tests, benches).
  std::size_t idle_pooled_connections() const;
  // Live server-side connection handler threads.
  std::size_t active_connections() const;

 private:
  TcpTransport(int listen_fd, std::uint16_t port);

  // One exchange from send to reply; `deadline_at` is on the steady clock
  // (negative = none).
  struct Call {
    const Address& to;
    BytesView request;
    Nanos deadline_at;
    int fd = -1;
    bool reused = false;  // the connection came from the pool
  };
  // Writes the request on a pooled connection, or on a new one when there is
  // none or `fresh` is set. Receive reads the reply and pools or closes the
  // connection.
  Status Send(Call& call, bool fresh = false);
  Result<Bytes> Receive(Call& call);

  // Client-side pool: health-checked checkout (or -1), MRU check-in with LRU
  // eviction beyond the cap.
  int CheckoutConnection(const Address& to);
  void CheckinConnection(const Address& to, int fd);
  void CloseIdleConnections();

  void AcceptLoop();
  void HandleConnection(int fd);
  // Runs on the connection thread as its last action: closes the fd and
  // moves the thread handle to the finished list for joining.
  void RetireConnection(int fd);

  int listen_fd_;
  std::uint16_t port_;
  std::atomic<MessageHandler*> handler_{nullptr};
  std::atomic<bool> running_{false};
  std::thread accept_thread_;

  // Server-side connection bookkeeping: live handler threads keyed by their
  // connection fd (so StopServing can shut the sockets down), finished
  // threads awaiting a join (reaped by the accept loop and StopServing).
  mutable std::mutex conn_mutex_;
  std::condition_variable conn_cv_;
  std::unordered_map<int, std::thread> conn_threads_;
  std::vector<std::thread> finished_threads_;
  std::size_t max_connections_ = kDefaultMaxConnections;

  // Client-side idle pool, most recently used at the front. Tracked: every
  // outbound request checks out / checks in through this lock, so its wait
  // histogram shows when the pool serializes concurrent callers.
  mutable TrackedMutex pool_mutex_{"tcp_pool"};
  std::list<std::pair<Address, int>> pool_;
  std::size_t pool_capacity_ = kDefaultPoolCapacity;

  TrafficTelemetry telemetry_{"tcp"};
};

}  // namespace obiwan::net
