// Fork/join over independent tasks: the one parallel primitive behind
// every sweep (runCells, runCacheLockstepBatch, the bench drivers).
// Each task writes only its own pre-sized result slot; runAll() returns
// once every task has finished, so the caller reads the slots after it.
#pragma once

#include <functional>
#include <vector>

namespace pscd {

/// Number of threads to use for `requested` (0 = one per hardware
/// thread, with a floor of 1 when the runtime reports nothing).
unsigned resolveJobs(unsigned requested);

/// Runs every task and returns when all have finished. Starts
/// min(resolveJobs(jobs), tasks.size()) threads, which claim tasks in
/// index order; when that is at most one, the tasks run inline and in
/// order on the calling thread. A failing task never stops the others:
/// after the join the exception of the lowest-index failing task is
/// rethrown, so a failing batch reports the same error at every `jobs`.
/// A thread that fails to start is rethrown once the threads already
/// started have drained the batch and joined.
void runAll(unsigned jobs, std::vector<std::function<void()>> tasks);

}  // namespace pscd
