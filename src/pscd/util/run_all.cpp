#include "pscd/util/run_all.h"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <thread>

namespace pscd {

unsigned resolveJobs(unsigned requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

void runAll(unsigned jobs, std::vector<std::function<void()>> tasks) {
  // One error slot per task, so which failure is rethrown does not
  // depend on which thread ran it or when.
  std::vector<std::exception_ptr> errors(tasks.size());
  std::atomic<std::size_t> next{0};
  const auto drain = [&] {
    for (std::size_t i = next++; i < tasks.size(); i = next++) {
      try {
        tasks[i]();
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  const std::size_t threads =
      std::min<std::size_t>(resolveJobs(jobs), tasks.size());
  if (threads <= 1) {
    drain();
  } else {
    std::exception_ptr startError;
    std::vector<std::thread> workers;
    try {
      workers.reserve(threads);
      while (workers.size() < threads) workers.emplace_back(drain);
    } catch (...) {
      startError = std::current_exception();
    }
    for (std::thread& worker : workers) worker.join();
    if (startError) std::rethrow_exception(startError);
  }
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace pscd
