// Process-wide heap allocation counter for the end-to-end benchmark.
#pragma once

#include <cstdint>

namespace aa::bench_e2e {

/// Number of global operator new calls since process start.  Counted by
/// the replacement operators in alloc_counter.cpp, which only binaries
/// linking that file get; the library itself is untouched.
std::uint64_t allocations();

}  // namespace aa::bench_e2e
