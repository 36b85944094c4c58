#include "pscd/util/run_all.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace pscd {
namespace {

/// The `Threads:` line of /proc/self/status: every live thread of this
/// process, the calling one included.
int liveThreads() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "Threads:") {
      int threads = 0;
      status >> threads;
      return threads;
    }
  }
  return -1;
}

TEST(ResolveJobsTest, ZeroMeansHardwareConcurrency) {
  const unsigned resolved = resolveJobs(0);
  EXPECT_GE(resolved, 1u);
}

TEST(ResolveJobsTest, ExplicitValuePassesThrough) {
  EXPECT_EQ(resolveJobs(1), 1u);
  EXPECT_EQ(resolveJobs(4), 4u);
  EXPECT_EQ(resolveJobs(17), 17u);
}

TEST(RunAllTest, InlineWhenPoolIsNull) {
  // One job = serial path: tasks run in order on the calling thread.
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> order;
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 5; ++i) {
    tasks.push_back([&order, caller, i] {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      order.push_back(i);
    });
  }
  runAll(1, std::move(tasks));
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(RunAllTest, EmptyBatchIsNoOp) {
  runAll(1, {});
  runAll(2, {});
}

TEST(RunAllTest, AllTasksCompleteOnPool) {
  std::vector<int> slots(1000, 0);
  std::vector<std::function<void()>> tasks;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    tasks.push_back([&slots, i] { slots[i] = static_cast<int>(i) + 1; });
  }
  runAll(8, std::move(tasks));
  for (std::size_t i = 0; i < slots.size(); ++i) {
    EXPECT_EQ(slots[i], static_cast<int>(i) + 1);
  }
}

TEST(RunAllTest, ExceptionRethrownAfterBatchDrains) {
  std::atomic<int> completed{0};
  std::vector<std::function<void()>> tasks;
  tasks.push_back([] { throw std::runtime_error("early failure"); });
  for (int i = 0; i < 50; ++i) {
    tasks.push_back([&completed] { ++completed; });
  }
  EXPECT_THROW(runAll(4, std::move(tasks)), std::runtime_error);
  // Every other task still ran: a failure never abandons the batch.
  EXPECT_EQ(completed.load(), 50);
}

TEST(RunAllTest, SerialPathPropagatesException) {
  std::vector<std::function<void()>> tasks;
  tasks.push_back([] { throw std::logic_error("serial failure"); });
  EXPECT_THROW(runAll(1, std::move(tasks)), std::logic_error);
}

TEST(RunAllTest, SerialPathDrainsBatchBeforeRethrow) {
  // A failing task never abandons the rest of the batch, and the
  // lowest-index error wins.
  int completed = 0;
  std::vector<std::function<void()>> tasks;
  tasks.push_back([] { throw std::runtime_error("first failure"); });
  tasks.push_back([&completed] { ++completed; });
  tasks.push_back([] { throw std::logic_error("second failure"); });
  tasks.push_back([&completed] { ++completed; });
  EXPECT_THROW(runAll(1, std::move(tasks)), std::runtime_error);
  EXPECT_EQ(completed, 2);
}

TEST(RunAllTest, ParallelFailureRethrowsLowestIndex) {
  // Task 1 fails first in time; task 0 fails only once task 1 has
  // thrown (plus a margin for its error to be recorded). The rethrown
  // error is still task 0's, as on the serial path.
  std::atomic<bool> task1Threw{false};
  std::vector<std::function<void()>> tasks;
  tasks.push_back([&task1Threw] {
    while (!task1Threw.load()) std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    throw std::logic_error("task 0");
  });
  tasks.push_back([&task1Threw] {
    task1Threw.store(true);
    throw std::runtime_error("task 1");
  });
  try {
    runAll(2, std::move(tasks));
    FAIL() << "expected an exception";
  } catch (const std::logic_error& e) {
    EXPECT_STREQ(e.what(), "task 0");
  } catch (const std::exception& e) {
    FAIL() << "rethrew " << e.what() << " instead of task 0's error";
  }
}

TEST(RunAllTest, StartsNoMoreThreadsThanTasks) {
  // 64 jobs over 3 tasks: only 3 threads start, so no task can see
  // more than those plus the caller.
  std::vector<int> seen(3, 0);
  std::vector<std::function<void()>> tasks;
  for (std::size_t i = 0; i < seen.size(); ++i) {
    tasks.push_back([&seen, i] { seen[i] = liveThreads(); });
  }
  runAll(64, std::move(tasks));
  for (const int threads : seen) {
    EXPECT_GE(threads, 1);
    EXPECT_LE(threads, 4);
  }
}

}  // namespace
}  // namespace pscd
