// Steady-clock wall timing shared by the session, the service and the
// benches.

#pragma once

#include <chrono>

namespace stubby {

/// Wall-clock seconds since `t0`.
inline double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace stubby
