// Clock abstraction.
//
// The benchmark harness reproduces the paper's figures on a *simulated*
// network (see DESIGN.md, substitution 2). The simulated transport charges
// latency and transfer time against a VirtualClock instead of sleeping, which
// makes every experiment deterministic and fast while preserving the cost
// model. Production code paths take a Clock&, so the same code runs against
// SystemClock in real deployments.
#pragma once

#include <chrono>
#include <cstdint>
#include <thread>

namespace obiwan {

// Nanoseconds since an arbitrary epoch.
using Nanos = std::int64_t;

class Clock {
 public:
  virtual ~Clock() = default;
  virtual Nanos Now() const = 0;
  // Advance time by `d` (virtual clocks) or block for `d` (real clocks).
  virtual void Sleep(Nanos d) = 0;
};

class SystemClock final : public Clock {
 public:
  static SystemClock& Instance() {
    static SystemClock clock;
    return clock;
  }

  Nanos Now() const override {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  void Sleep(Nanos d) override {
    if (d > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(d));
  }
};

// Deterministic clock advanced explicitly by the simulation.
class VirtualClock final : public Clock {
 public:
  Nanos Now() const override { return now_; }
  void Sleep(Nanos d) override {
    if (d > 0) now_ += d;
  }
  // Sets the time, also backwards: SimNetwork runs overlapping exchanges
  // one at a time, each from its own start instant.
  void Set(Nanos t) { now_ = t; }
  void Reset() { now_ = 0; }

 private:
  Nanos now_ = 0;
};

inline constexpr Nanos kMicro = 1'000;
inline constexpr Nanos kMilli = 1'000'000;
inline constexpr Nanos kSecond = 1'000'000'000;

}  // namespace obiwan
