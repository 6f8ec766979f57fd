// Environment knobs read by the CLI and the benches.

#pragma once

#include <cstdlib>
#include <cstring>

namespace stubby {

/// Boolean flag `name` from the environment: `fallback` when unset, false
/// for "0", true for any other value. STUBBY_REOPT and STUBBY_BLOOM seed
/// StubbyOptions::reoptimize and ::bloom_transfer through this.
inline bool EnvFlag(const char* name, bool fallback = false) {
  const char* env = std::getenv(name);
  if (env == nullptr) return fallback;
  return std::strcmp(env, "0") != 0;
}

}  // namespace stubby
