// RetryingTransport — a decorator that retries failed round trips.
//
// The paper's setting is "slow and unreliable connections" (§1): on wireless
// links, individual messages drop. Retrying gives *at-least-once* semantics:
// when the lost message was the reply, the operation already executed and
// will run again. OBIWAN's own protocol tolerates that — Get re-sends the
// same batch, Put re-applies the same state, Bind of an identical record is
// idempotent at the registry — so retries never corrupt platform state. The
// one caveat is application RMI: a retried call to a non-idempotent method
// (counters, appends) may execute more than once; make such methods
// idempotent, or invoke them over an unretried transport.
//
// Retries fire on kTimeout (lost message) and, optionally, on kDisconnected
// (a link that flaps faster than the retry budget). All other errors are
// definitive and propagate immediately. Backoff is charged to the provided
// clock, so simulations account the waiting time virtually.
#pragma once

#include <algorithm>
#include <atomic>
#include <memory>
#include <numeric>
#include <vector>

#include "common/clock.h"
#include "net/transport.h"

namespace obiwan::net {

struct RetryPolicy {
  int max_attempts = 3;             // total tries, including the first
  Nanos initial_backoff = 10 * kMilli;
  double backoff_multiplier = 2.0;
  // Backoff ceiling: the multiplier is applied in double and clamped here,
  // so a large max_attempts can neither overflow Nanos nor produce
  // multi-minute sleeps.
  Nanos max_backoff = 10 * kSecond;
  bool retry_disconnected = false;  // also retry kDisconnected
};

class RetryingTransport final : public Transport {
 public:
  using Transport::Request;

  // Decorates `inner`; the clock paces the backoff (virtual in simulations).
  RetryingTransport(std::unique_ptr<Transport> inner, RetryPolicy policy,
                    Clock& clock = SystemClock::Instance())
      : inner_(std::move(inner)), policy_(policy), clock_(clock) {}

  Result<Bytes> Request(const Address& to, BytesView request,
                        const CallOptions& options) override {
    const Exchange exchange{to, request};
    return std::move(RequestAll({&exchange, 1}, 1, options, {}).front());
  }

  // Forwards the batch, then sends the exchanges that failed retryably as
  // one further round after each backoff. Each try gets the full deadline;
  // the backoff is charged to the clock on top. `hooks.sent` fires at an
  // exchange's first send and `hooks.done` at its final outcome.
  std::vector<Result<Bytes>> RequestAll(std::span<const Exchange> exchanges,
                                        std::size_t width,
                                        const CallOptions& options,
                                        const ExchangeHooks& hooks) override {
    std::vector<Result<Bytes>> replies(
        exchanges.size(), InternalError("retry loop did not run"));
    std::vector<std::size_t> round(exchanges.size());  // indices this attempt
    std::iota(round.begin(), round.end(), 0);
    Nanos backoff = std::min(policy_.initial_backoff, policy_.max_backoff);
    for (int attempt = 1; attempt <= policy_.max_attempts && !round.empty();
         ++attempt) {
      if (attempt > 1) {
        clock_.Sleep(backoff);
        backoff = NextBackoff(backoff);
      }
      std::vector<Exchange> batch;
      for (std::size_t i : round) batch.push_back(exchanges[i]);
      std::vector<std::size_t> again;
      auto done = [&](std::size_t k, const Result<Bytes>& reply) {
        if (!reply.ok() && ShouldRetry(reply.status())) {
          retries_.fetch_add(1, std::memory_order_relaxed);
          if (attempt < policy_.max_attempts) {
            again.push_back(round[k]);
            return;
          }
        }
        hooks.done(round[k], reply);
      };
      std::vector<Result<Bytes>> round_replies = inner_->RequestAll(
          batch, width, options,
          {attempt == 1 ? hooks.sent : [](std::size_t) {}, done});
      for (std::size_t k = 0; k < round.size(); ++k) {
        replies[round[k]] = std::move(round_replies[k]);
      }
      round = std::move(again);
    }
    return replies;
  }

  Status Serve(MessageHandler* handler) override { return inner_->Serve(handler); }
  void StopServing() override { inner_->StopServing(); }
  Address LocalAddress() const override { return inner_->LocalAddress(); }

  // Deadlines are enforced by the decorated transport.
  void SetDefaultDeadline(Nanos deadline) override {
    inner_->SetDefaultDeadline(deadline);
  }
  Nanos default_deadline() const override { return inner_->default_deadline(); }

  // Number of retry attempts performed (not counting first tries).
  std::uint64_t retries() const {
    return retries_.load(std::memory_order_relaxed);
  }

 private:
  bool ShouldRetry(const Status& status) const {
    return status.code() == StatusCode::kTimeout ||
           (policy_.retry_disconnected &&
            status.code() == StatusCode::kDisconnected);
  }

  Nanos NextBackoff(Nanos backoff) const {
    const double next =
        static_cast<double>(backoff) * policy_.backoff_multiplier;
    const double cap = static_cast<double>(policy_.max_backoff);
    // !(next < cap) also catches overflow to +inf.
    if (!(next < cap)) return policy_.max_backoff;
    return static_cast<Nanos>(next);
  }

  std::unique_ptr<Transport> inner_;
  RetryPolicy policy_;
  Clock& clock_;
  // Request is issued from many client threads concurrently.
  std::atomic<std::uint64_t> retries_{0};
};

}  // namespace obiwan::net
