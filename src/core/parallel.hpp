// Dependency-free parallel execution layer.
//
// A deterministic parallel_for over one process-wide pool of std::threads —
// the substrate for the analysis hot paths (row-parallel matmul, the rank
// sweep, batch diagnosis, batch simulation). Design rules:
//
//  * Determinism: parallel_for partitions [begin, end) into fixed chunks
//    and every index is visited exactly once; callers that write only to
//    index-owned slots (output row i, sweep slot k, ...) produce results
//    bit-identical to the serial loop, at any thread count.
//  * `set_num_threads(1)` (or a single-core machine) reproduces today's
//    serial behaviour exactly: parallel_for degenerates to a plain loop on
//    the calling thread and no worker thread is ever started.
//  * One region at a time: the pool runs one fork-join region, and the
//    thread that issues it runs chunks too. A region issued while the pool
//    is busy — from inside any task of the running region, or from a second
//    thread — runs serially inline on the thread that issued it. So the
//    matmuls inside a parallelized rank sweep neither oversubscribe the
//    pool nor wait on it, and no region can deadlock another.
//  * Exception safety: the first exception thrown by any task is captured
//    and rethrown on the calling thread once every thread has left the
//    region; the pool itself stays usable.
//
// This header lives in core/ but deliberately depends on nothing else in
// VN2 (it is its own little library, vn2_parallel), so the lower layers
// (linalg, nmf) can use it without a dependency cycle.
#pragma once

#include <cstddef>
#include <functional>

namespace vn2::core {

/// Sets the global thread budget for all VN2 parallel regions. `n` counts
/// total threads of execution (1 = fully serial); 0 resets to
/// `std::thread::hardware_concurrency()`. A region already running keeps its
/// threads; the next one uses the new budget (the CLI sets it once at
/// startup from `--threads`).
void set_num_threads(std::size_t n);

/// Current global thread budget (≥ 1).
[[nodiscard]] std::size_t num_threads() noexcept;

/// Calls `fn(i)` for every i in [begin, end) exactly once. Work is split
/// into chunks of `grain` consecutive indices (grain 0 is treated as 1) and
/// the chunks are executed on the global pool. Runs serially inline when
/// the budget is 1, when the range fits in a single chunk, or when the pool
/// is busy with another region. Exceptions from `fn` propagate to the
/// caller.
void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                  const std::function<void(std::size_t)>& fn);

}  // namespace vn2::core
