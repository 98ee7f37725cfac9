// Bounded parallel fanout for holder notifications.
//
// When a put (or MarkMasterUpdated) must notify N holders, running the
// notifications sequentially means one unreachable PDA stalls the writer for
// a full deadline *per holder*. FanoutPool runs a batch of independent tasks
// with bounded parallelism so the batch costs roughly the makespan of the
// slowest task, not the sum.
//
// Determinism: simulations drive a VirtualClock shared by every site, and
// that clock is not thread-safe — real threads would race on it and destroy
// reproducibility. When the clock is Jumpable() the pool instead *models*
// bounded-width parallelism on the calling thread: it keeps one availability
// instant per virtual worker, runs each task sequentially starting at its
// worker's free instant (greedy earliest-free scheduling, the same policy a
// real pool's task queue yields), and finally jumps the clock to the overall
// makespan. Against a real clock (TCP deployments) the caller's thread works
// through the batch beside up to width - 1 helper threads. A helper is
// created the first time a batch needs it, parks between batches, and is
// woken only when a batch has work for it, so a put pays a wakeup, not a
// thread spawn and join. The destructor joins the helpers.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/contention.h"
#include "common/status.h"

namespace obiwan::core {

class FanoutPool {
 public:
  using Task = std::function<Status()>;

  static constexpr std::size_t kDefaultWidth = 8;

  explicit FanoutPool(Clock& clock, std::size_t width = kDefaultWidth);
  ~FanoutPool();

  FanoutPool(const FanoutPool&) = delete;
  FanoutPool& operator=(const FanoutPool&) = delete;

  // Maximum number of tasks in flight at once; 0 is clamped to 1.
  void set_width(std::size_t width);
  std::size_t width() const { return width_.load(std::memory_order_relaxed); }

  // Runs every task and returns their statuses in task order. Blocks until
  // the whole batch is done. Tasks must be independently executable: they
  // may run on other threads (real clocks) and must not assume any ordering
  // between each other. Every task runs under the caller's trace id and
  // open span, whichever thread runs it, so its spans join the caller's
  // flow.
  //
  // Multi-task batches serialize on one tracked "fanout" mutex, which makes
  // the width bound pool-wide instead of per-batch (two concurrent puts
  // never run 2 x width tasks) — and makes the time writers queue behind
  // each other's fanouts a measured contention site. Single-task batches
  // bypass the queue: a lone notification never waits for a batch.
  std::vector<Status> RunAll(std::vector<Task> tasks);

  // Tasks executing right now, across all batches (queue-depth sampling).
  std::size_t in_flight() const {
    return in_flight_.load(std::memory_order_relaxed);
  }

 private:
  struct Batch;

  // Claims and runs the batch's tasks until none is left.
  void Drain(Batch& batch);
  void HelperLoop();

  Clock& clock_;
  std::atomic<std::size_t> width_;
  std::atomic<std::size_t> in_flight_{0};
  TrackedMutex batch_mutex_{"fanout"};

  // Helper handoff. The batch being run, how many more helpers it may take
  // (each woken helper claims one slot) and how many are still running its
  // tasks; the caller waits for that count to reach zero before returning.
  std::mutex helper_mutex_;
  std::condition_variable helper_wake_;
  std::condition_variable helpers_done_;
  Batch* batch_ = nullptr;
  std::size_t open_slots_ = 0;
  std::size_t busy_helpers_ = 0;
  bool stopping_ = false;
  // Grown only by RunAll under batch_mutex_; joined by the destructor.
  std::vector<std::thread> helpers_;
};

}  // namespace obiwan::core
