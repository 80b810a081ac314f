#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/stopwatch.h"
#include "utils/check.h"
#include "utils/flags.h"
#include "utils/logging.h"
#include "utils/string_utils.h"
#include "utils/table_printer.h"
#include "utils/parallel.h"

namespace hire {
namespace {

TEST(CheckTest, PassingConditionDoesNothing) {
  EXPECT_NO_THROW(HIRE_CHECK(1 + 1 == 2));
}

TEST(CheckTest, FailingConditionThrowsWithLocation) {
  try {
    HIRE_CHECK(false) << "extra context " << 42;
    FAIL() << "expected CheckError";
  } catch (const CheckError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("utils_test.cc"), std::string::npos);
    EXPECT_NE(what.find("extra context 42"), std::string::npos);
  }
}

TEST(CheckTest, ComparisonMacrosIncludeOperands) {
  try {
    const int x = 3;
    HIRE_CHECK_EQ(x, 5);
    FAIL() << "expected CheckError";
  } catch (const CheckError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("lhs=3"), std::string::npos);
    EXPECT_NE(what.find("rhs=5"), std::string::npos);
  }
}

TEST(CheckTest, AllComparisonVariants) {
  EXPECT_NO_THROW(HIRE_CHECK_NE(1, 2));
  EXPECT_NO_THROW(HIRE_CHECK_LT(1, 2));
  EXPECT_NO_THROW(HIRE_CHECK_LE(2, 2));
  EXPECT_NO_THROW(HIRE_CHECK_GT(3, 2));
  EXPECT_NO_THROW(HIRE_CHECK_GE(2, 2));
  EXPECT_THROW(HIRE_CHECK_NE(2, 2), CheckError);
  EXPECT_THROW(HIRE_CHECK_LT(2, 2), CheckError);
  EXPECT_THROW(HIRE_CHECK_GT(2, 2), CheckError);
}

TEST(StringTest, SplitKeepsEmptyFields) {
  const std::vector<std::string> fields = Split("a,,b,", ',');
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[1], "");
  EXPECT_EQ(fields[2], "b");
  EXPECT_EQ(fields[3], "");
}

TEST(StringTest, SplitSingleField) {
  const std::vector<std::string> fields = Split("abc", ',');
  ASSERT_EQ(fields.size(), 1u);
  EXPECT_EQ(fields[0], "abc");
}

TEST(StringTest, TrimRemovesWhitespace) {
  EXPECT_EQ(Trim("  hi \t\n"), "hi");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("a b"), "a b");
}

TEST(StringTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
}

TEST(StringTest, StartsWith) {
  EXPECT_TRUE(StartsWith("hello", "he"));
  EXPECT_TRUE(StartsWith("hello", ""));
  EXPECT_FALSE(StartsWith("he", "hello"));
}

TEST(StringTest, ParseInt64) {
  EXPECT_EQ(ParseInt64("42"), 42);
  EXPECT_EQ(ParseInt64("-7"), -7);
  EXPECT_THROW(ParseInt64("4x"), CheckError);
  EXPECT_THROW(ParseInt64(""), CheckError);
}

TEST(StringTest, ParseDouble) {
  EXPECT_DOUBLE_EQ(ParseDouble("2.5"), 2.5);
  EXPECT_DOUBLE_EQ(ParseDouble("-1e-3"), -1e-3);
  EXPECT_THROW(ParseDouble("abc"), CheckError);
  EXPECT_THROW(ParseDouble("1.2.3"), CheckError);
}

TEST(StringTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(0.123456, 4), "0.1235");
  EXPECT_EQ(FormatDouble(2.0, 2), "2.00");
}

TEST(TablePrinterTest, RendersAlignedTable) {
  TablePrinter table({"Method", "P@5"});
  table.AddRow({"HIRE", "0.6999"});
  table.AddSeparator();
  table.AddRow({"NeuMF", "0.47"});
  const std::string rendered = table.ToString();
  EXPECT_NE(rendered.find("| Method |"), std::string::npos);
  EXPECT_NE(rendered.find("| HIRE   |"), std::string::npos);
  EXPECT_NE(rendered.find("0.6999"), std::string::npos);
}

TEST(TablePrinterTest, RejectsRaggedRows) {
  TablePrinter table({"A", "B"});
  EXPECT_THROW(table.AddRow({"only one"}), CheckError);
}

TEST(TablePrinterTest, RejectsEmptyHeader) {
  EXPECT_THROW(TablePrinter({}), CheckError);
}

TEST(ParallelForTest, CoversRangeExactlyOnce) {
  std::vector<std::atomic<int>> hits(100);
  ParallelFor(0, 100, [&hits](int64_t i) {
    hits[static_cast<size_t>(i)].fetch_add(1);
  });
  for (const auto& hit : hits) {
    EXPECT_EQ(hit.load(), 1);
  }
}

TEST(ParallelForTest, EmptyRangeIsNoop) {
  bool ran = false;
  ParallelFor(5, 5, [&ran](int64_t) { ran = true; });
  EXPECT_FALSE(ran);
  ParallelFor(7, 5, [&ran](int64_t) { ran = true; });  // inverted range
  EXPECT_FALSE(ran);
  ParallelForRange(3, 3, 8, [&ran](int64_t, int64_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ParallelForTest, RangeSmallerThanGrainRunsInlineAsOneChunk) {
  SetGlobalThreads(4);
  const std::thread::id caller = std::this_thread::get_id();
  int calls = 0;
  ParallelForRange(10, 15, 100, [&](int64_t lo, int64_t hi) {
    EXPECT_EQ(lo, 10);
    EXPECT_EQ(hi, 15);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
  SetGlobalThreads(0);
}

TEST(ParallelForTest, RangeChunksCoverExactlyOnce) {
  SetGlobalThreads(4);
  std::vector<std::atomic<int>> hits(1000);
  ParallelForRange(0, 1000, 64, [&hits](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      hits[static_cast<size_t>(i)].fetch_add(1);
    }
  });
  for (const auto& hit : hits) {
    EXPECT_EQ(hit.load(), 1);
  }
  SetGlobalThreads(0);
}

TEST(ParallelForTest, WorkerExceptionPropagatesToCaller) {
  SetGlobalThreads(4);
  EXPECT_THROW(
      ParallelFor(0, 1000, 1,
                  [](int64_t i) {
                    if (i == 493) throw std::runtime_error("worker failure");
                  }),
      std::runtime_error);
  // The pool must still be usable afterwards.
  std::atomic<int> count{0};
  ParallelFor(0, 100, 1, [&count](int64_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 100);
  SetGlobalThreads(0);
}

TEST(ParallelForTest, NestedCallsRunInline) {
  SetGlobalThreads(4);
  std::atomic<int> total{0};
  ParallelFor(0, 8, 1, [&total](int64_t) {
    EXPECT_TRUE(InParallelRegion());
    ParallelFor(0, 8, 1, [&total](int64_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 64);
  EXPECT_FALSE(InParallelRegion());
  SetGlobalThreads(0);
}

TEST(ParallelForTest, ManySmallChunksAreStolenAndCovered) {
  // 512 one-element chunks through the work-stealing deques: every index
  // must be executed exactly once no matter which lane ran it.
  SetGlobalThreads(7);
  std::vector<std::atomic<int>> hits(512);
  ParallelForRange(0, 512, 1, [&hits](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      hits[static_cast<size_t>(i)].fetch_add(1);
    }
  });
  for (const auto& hit : hits) {
    EXPECT_EQ(hit.load(), 1);
  }
  SetGlobalThreads(0);
}

TEST(ParallelForTest, ConcurrentTopLevelLoopsFromManyThreads) {
  // Several external threads race to publish top-level loops (the serve
  // request-handler pattern). CAS losers run inline; totals must be exact.
  SetGlobalThreads(4);
  constexpr int kCallers = 6;
  constexpr int kIters = 20;
  std::atomic<int64_t> total{0};
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&total] {
      for (int rep = 0; rep < kIters; ++rep) {
        ParallelForRange(0, 256, 16, [&total](int64_t lo, int64_t hi) {
          total.fetch_add(hi - lo, std::memory_order_relaxed);
        });
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(total.load(), int64_t{kCallers} * kIters * 256);
  SetGlobalThreads(0);
}

TEST(ParallelForTest, NestedStressKeepsExactTotals) {
  // Outer loop wide enough to occupy every worker, each chunk spawning a
  // nested loop (which must run inline) over a shared accumulator.
  SetGlobalThreads(4);
  std::atomic<int64_t> total{0};
  for (int rep = 0; rep < 10; ++rep) {
    ParallelForRange(0, 64, 1, [&total](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) {
        EXPECT_TRUE(InParallelRegion());
        ParallelForRange(0, 32, 4, [&total](int64_t nlo, int64_t nhi) {
          total.fetch_add(nhi - nlo, std::memory_order_relaxed);
        });
      }
    });
  }
  EXPECT_EQ(total.load(), int64_t{10} * 64 * 32);
  EXPECT_FALSE(InParallelRegion());
  SetGlobalThreads(0);
}

TEST(ParallelForTest, DispatchOverheadWithinBudget) {
  // Guard against per-chunk heap allocation or lock contention creeping back
  // into the dispatch path: an empty-body fan-out must stay cheap. The
  // budget is deliberately loose (CI boxes are noisy and often 1-core); a
  // std::function-per-chunk + mutex queue implementation blows through it.
  SetGlobalThreads(4);
  constexpr int64_t kChunks = 256;
  constexpr int kRuns = 9;
  double best_ns = 1e18;
  for (int run = 0; run < kRuns; ++run) {
    Stopwatch stopwatch;
    ParallelForRange(0, kChunks, 1, [](int64_t, int64_t) {});
    best_ns = std::min(best_ns, stopwatch.ElapsedSeconds() * 1e9);
  }
  const double ns_per_chunk = best_ns / kChunks;
  constexpr double kBudgetNsPerChunk = 4000.0;
  EXPECT_LE(ns_per_chunk, kBudgetNsPerChunk)
      << "empty-body dispatch cost " << ns_per_chunk
      << " ns/chunk exceeds budget";
  SetGlobalThreads(0);
}

TEST(GlobalThreadsTest, SetAndResolve) {
  SetGlobalThreads(3);
  EXPECT_EQ(GlobalThreads(), 3);
  SetGlobalThreads(1);
  EXPECT_EQ(GlobalThreads(), 1);
  SetGlobalThreads(0);  // back to automatic
  EXPECT_GE(GlobalThreads(), 1);
}

TEST(GlobalThreadsTest, EffectiveThreadsClampedToHardware) {
  const unsigned hw = std::thread::hardware_concurrency();
  const int cores = hw == 0 ? 1 : static_cast<int>(hw);
  SetGlobalThreads(1);
  EXPECT_EQ(GlobalEffectiveThreads(), 1);
  SetGlobalThreads(cores + 5);
  EXPECT_EQ(GlobalThreads(), cores + 5);
  EXPECT_EQ(GlobalEffectiveThreads(), cores);
  SetGlobalThreads(0);
  EXPECT_LE(GlobalEffectiveThreads(), GlobalThreads());
}

TEST(GlobalThreadsDeathTest, AbortsWhenRegionsInFlight) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        SetGlobalThreads(2);
        ParallelForRange(0, 4, 1, [](int64_t, int64_t) {
          SetGlobalThreads(3);  // resize mid-region: must abort
        });
      },
      "in flight");
}

TEST(FlagsTest, UnreadNamesListsSetFlagsNoGetterAsked) {
  const char* argv[] = {"prog", "serve", "--port=0", "--retired-flag=2000",
                        "--verbose", "--max-batch-users=4", "--typo=1"};
  const Flags flags = Flags::Parse(7, argv);
  EXPECT_EQ(flags.UnreadNames(),
            (std::vector<std::string>{"max-batch-users", "port",
                                      "retired-flag", "typo", "verbose"}));
  EXPECT_EQ(flags.GetInt("port", 8080), 0);
  EXPECT_EQ(flags.GetInt("max-batch-users", 8), 4);
  EXPECT_TRUE(flags.GetBool("verbose", false));
  // Asking for a flag that was never set marks nothing unread.
  EXPECT_EQ(flags.GetString("model", "none"), "none");
  EXPECT_EQ(flags.UnreadNames(),
            (std::vector<std::string>{"retired-flag", "typo"}));
  // A malformed value still counts as read: the error names it already.
  const char* bad[] = {"prog", "--shards=two"};
  const Flags bad_flags = Flags::Parse(2, bad);
  EXPECT_THROW(bad_flags.GetInt("shards", 1), CheckError);
  EXPECT_TRUE(bad_flags.UnreadNames().empty());
  EXPECT_EQ(flags.positional(), (std::vector<std::string>{"serve"}));
}

TEST(StopwatchTest, MeasuresElapsedTime) {
  Stopwatch stopwatch;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GE(stopwatch.ElapsedSeconds(), 0.0);
  EXPECT_GE(stopwatch.ElapsedMillis(), stopwatch.ElapsedSeconds());
}

TEST(LoggingTest, LevelFiltering) {
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  HIRE_LOG(Info) << "should be suppressed";
  SetLogLevel(LogLevel::kInfo);
  EXPECT_EQ(GetLogLevel(), LogLevel::kInfo);
}

}  // namespace
}  // namespace hire
