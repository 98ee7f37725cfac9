// Host-speed reference. This VM shares its host with other guests, and for
// seconds to minutes at a time the same code runs up to 1.6x slower on it
// (the slowdown follows neighbour load, not steal, and moves every workload
// alike). The benchmark therefore times a fixed task between short slices
// of each measured phase and scales the slice's elapsed times by
// kNominalTaskUs / (task time now): every time it reports is the time the
// program would have taken on the host at its nominal speed. The raw,
// unscaled figures are printed alongside.
//
// The task does the kinds of work the workloads spend their time on, but
// none of it is OBIWAN code, so no change to the program can move it: small
// writes and reads over a TCP connection on 127.0.0.1 (served in the same
// thread), heap allocation and copies of 64 B..2 KiB strings, and hash-map
// inserts and lookups.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

// What the task takes, in microseconds, when the host runs this vCPU at full
// speed (Release build on the 4-vCPU Xeon VM the benchmark was tuned on).
inline constexpr double kNominalTaskUs = 130.0;

class HostReference {
 public:
  // Null when the loopback connection cannot be set up.
  static std::unique_ptr<HostReference> Create();
  ~HostReference();

  HostReference(const HostReference&) = delete;
  HostReference& operator=(const HostReference&) = delete;

  // Microseconds the task takes now: the fastest of a few tries, so a
  // preemption in one try does not count.
  double TaskUs();

  // kNominalTaskUs / TaskUs(): multiply a time measured now by this to get
  // the time at nominal host speed.
  double Scale() { return kNominalTaskUs / TaskUs(); }

 private:
  HostReference(int client_fd, int server_fd);
  bool RoundTrip(int from, int to);
  void RunTask();

  const int client_fd_;
  const int server_fd_;
  std::string message_;
  std::string received_;
  std::vector<std::string> strings_;
  std::unordered_map<std::uint64_t, std::uint64_t> map_;
  std::uint64_t sink_ = 0;
};

}  // namespace perfbench
