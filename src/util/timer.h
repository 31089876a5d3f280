// Monotonic wall-clock timer used by benches and the compute-overhead
// measurement (§V-C of the paper).
#pragma once

#include <chrono>

namespace cmfl::util {

class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  void reset() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or last reset().
  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double micros() const { return seconds() * 1e6; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace cmfl::util
