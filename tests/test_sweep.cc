/**
 * @file
 * Tests for the figure harnesses' parallel sweep runner
 * (bench/sweep.hh): index-ordered results over several workers,
 * exception propagation only after every worker has joined,
 * TENOC_THREADS validation, and closed-loop chip runs that must come
 * out identical through sweep workers and serially — each worker
 * makes and deletes its packets on its own thread.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "accel/chip_config.hh"
#include "accel/experiments.hh"
#include "bench/sweep.hh"
#include "common/log.hh"

namespace tenoc
{
namespace
{

/** Sets TENOC_THREADS for one scope and restores the previous value. */
class ThreadsEnv
{
  public:
    explicit ThreadsEnv(const char *value)
    {
        if (const char *old = std::getenv("TENOC_THREADS")) {
            had_ = true;
            saved_ = old;
        }
        ::setenv("TENOC_THREADS", value, 1);
    }

    ~ThreadsEnv()
    {
        if (had_)
            ::setenv("TENOC_THREADS", saved_.c_str(), 1);
        else
            ::unsetenv("TENOC_THREADS");
    }

  private:
    bool had_ = false;
    std::string saved_;
};

unsigned
hardwareWorkers()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

TEST(Sweep, ResultsComeBackInIndexOrder)
{
    ThreadsEnv env("4");
    ASSERT_EQ(bench::sweepThreads(), 4u);
    std::mutex mu;
    std::set<std::thread::id> ids;
    const auto out = bench::sweepMap(64, [&](std::size_t i) {
        {
            std::lock_guard<std::mutex> lock(mu);
            ids.insert(std::this_thread::get_id());
        }
        // Uneven point costs so workers finish out of index order.
        std::this_thread::sleep_for(
            std::chrono::microseconds((i * 37) % 200));
        return i * i;
    });
    ASSERT_EQ(out.size(), 64u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], i * i) << i;
    EXPECT_LE(ids.size(), 4u);
}

TEST(Sweep, RethrowsExceptionAfterEveryWorkerJoins)
{
    ThreadsEnv env("4");
    std::atomic<bool> thrown{false};
    std::atomic<int> running{0};
    try {
        bench::sweepMap(16, [&](std::size_t i) -> int {
            if (i == 0) {
                thrown = true;
                throw std::runtime_error("point 0");
            }
            // Points other workers already claimed are still running
            // when point 0 fails; sweepMap must wait for them.
            ++running;
            while (!thrown)
                std::this_thread::yield();
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            --running;
            return 0;
        });
        FAIL() << "sweepMap swallowed the exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "point 0");
        EXPECT_EQ(running.load(), 0) << "rethrown before workers joined";
    }
}

TEST(Sweep, RejectsInvalidThreadCounts)
{
    for (const char *bad : {"0", "4x", "", "4294967297", "1025"}) {
        SCOPED_TRACE(std::string("TENOC_THREADS='") + bad + "'");
        ThreadsEnv env(bad);
        const auto warned = warnCount();
        EXPECT_EQ(bench::sweepThreads(), hardwareWorkers());
        EXPECT_EQ(warnCount(), warned + 1);
    }
    ThreadsEnv env("1024");
    EXPECT_EQ(bench::sweepThreads(), 1024u);
}

TEST(Sweep, ClosedLoopRunsMatchSerial)
{
    struct Point
    {
        ConfigId config;
        const char *workload;
    };
    const std::vector<Point> points = {
        {ConfigId::BASELINE_TB_DOR, "MM"},
        {ConfigId::BASELINE_TB_DOR, "BFS"},
        {ConfigId::CP_CR_DOUBLE, "MM"},
        {ConfigId::CP_CR_DOUBLE, "BFS"},
    };
    const auto run = [&](std::size_t i) {
        return runWorkload(
            makeConfig(points[i].config),
            scaleWorkload(findWorkload(points[i].workload), 0.01));
    };
    std::vector<ChipResult> swept;
    {
        ThreadsEnv env("4");
        swept = bench::sweepMap(points.size(), run);
    }
    for (std::size_t i = 0; i < points.size(); ++i) {
        SCOPED_TRACE(std::string(configName(points[i].config)) + " " +
                     points[i].workload);
        const ChipResult serial = run(i);
        const ChipResult &par = swept[i];
        EXPECT_FALSE(serial.timedOut);
        EXPECT_EQ(serial.ipc, par.ipc);
        EXPECT_EQ(serial.scalarInsts, par.scalarInsts);
        EXPECT_EQ(serial.coreCycles, par.coreCycles);
        EXPECT_EQ(serial.icntCycles, par.icntCycles);
        EXPECT_EQ(serial.memCycles, par.memCycles);
        EXPECT_EQ(serial.avgNetLatency, par.avgNetLatency);
        EXPECT_EQ(serial.avgTotalLatency, par.avgTotalLatency);
        EXPECT_EQ(serial.packetsEjected, par.packetsEjected);
        EXPECT_EQ(serial.dramEfficiency, par.dramEfficiency);
    }
}

} // namespace
} // namespace tenoc
