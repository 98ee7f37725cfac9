#include "core/fanout.h"

#include <algorithm>

#include "common/trace.h"

namespace obiwan::core {

struct FanoutPool::Batch {
  std::vector<Task>& tasks;
  std::vector<Status>& results;
  // The caller's flow, re-installed on every helper that joins.
  TraceId trace;
  std::uint64_t span;
  std::atomic<std::size_t> next{0};
};

FanoutPool::FanoutPool(Clock& clock, std::size_t width)
    : clock_(clock), width_(width == 0 ? 1 : width) {}

FanoutPool::~FanoutPool() {
  {
    std::lock_guard lock(helper_mutex_);
    stopping_ = true;
  }
  helper_wake_.notify_all();
  for (auto& helper : helpers_) helper.join();
}

void FanoutPool::set_width(std::size_t width) {
  width_.store(width == 0 ? 1 : width, std::memory_order_relaxed);
}

void FanoutPool::Drain(Batch& batch) {
  for (;;) {
    const std::size_t i = batch.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= batch.tasks.size()) return;
    in_flight_.fetch_add(1, std::memory_order_relaxed);
    batch.results[i] = batch.tasks[i]();
    in_flight_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void FanoutPool::HelperLoop() {
  std::unique_lock lock(helper_mutex_);
  for (;;) {
    helper_wake_.wait(lock, [this] { return stopping_ || open_slots_ > 0; });
    if (stopping_) return;
    --open_slots_;
    ++busy_helpers_;
    Batch& batch = *batch_;
    lock.unlock();
    {
      TraceContext::Scope trace(batch.trace);
      SpanContext::Scope span(batch.span);
      Drain(batch);
    }
    lock.lock();
    if (--busy_helpers_ == 0) helpers_done_.notify_one();
  }
}

std::vector<Status> FanoutPool::RunAll(std::vector<Task> tasks) {
  std::vector<Status> results(tasks.size());
  if (tasks.empty()) return results;

  const std::size_t width = this->width();
  if (tasks.size() == 1 || width == 1) {
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      in_flight_.fetch_add(1, std::memory_order_relaxed);
      results[i] = tasks[i]();
      in_flight_.fetch_sub(1, std::memory_order_relaxed);
    }
    return results;
  }

  // Genuine batch: serialize on the tracked mutex so the width bound holds
  // pool-wide and writer-vs-writer fanout queueing shows up in the lock's
  // wait histogram.
  std::lock_guard batch_lock(batch_mutex_);

  if (clock_.Jumpable()) {
    // Modeled parallelism: one availability instant per virtual worker.
    // Each task starts at the earliest-free worker's instant and pushes
    // that worker's availability to its own finish time; the batch as a
    // whole ends at the latest finish (the makespan).
    const Nanos start = clock_.Now();
    std::vector<Nanos> avail(std::min(width, tasks.size()), start);
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      auto it = std::min_element(avail.begin(), avail.end());
      clock_.JumpTo(*it);
      in_flight_.fetch_add(1, std::memory_order_relaxed);
      results[i] = tasks[i]();
      in_flight_.fetch_sub(1, std::memory_order_relaxed);
      *it = clock_.Now();
    }
    clock_.JumpTo(*std::max_element(avail.begin(), avail.end()));
    return results;
  }

  // Real clock: the caller plus up to width - 1 parked helpers.
  Batch batch{tasks, results, TraceContext::Current(), SpanContext::Current()};
  const std::size_t helpers = std::min(width, tasks.size()) - 1;
  while (helpers_.size() < helpers) {
    helpers_.emplace_back([this] { HelperLoop(); });
  }
  {
    std::lock_guard lock(helper_mutex_);
    batch_ = &batch;
    open_slots_ = helpers;
  }
  for (std::size_t i = 0; i < helpers; ++i) helper_wake_.notify_one();
  Drain(batch);

  // Every task is claimed. Close the slots no helper took (a late waker
  // finds nothing to run anyway) and wait out the tasks helpers still run.
  std::unique_lock lock(helper_mutex_);
  open_slots_ = 0;
  helpers_done_.wait(lock, [this] { return busy_helpers_ == 0; });
  batch_ = nullptr;
  return results;
}

}  // namespace obiwan::core
