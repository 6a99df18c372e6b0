// Wall-clock timing helpers.
#pragma once

#include <chrono>

namespace fj {

/// Measures elapsed wall time since construction.
class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace fj
