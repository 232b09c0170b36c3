/**
 * @file
 * Layer spans of the traced chip benchmark.
 *
 * spans.cc defines GNU ld `--wrap` interposers for the non-virtual
 * entry points of the cores, MCs, DRAM channels and the clock set, so
 * the traced driver times them without any change to the simulator.
 * Each wrapper adds its call's duration, in time-stamp-counter ticks,
 * to one accumulator here; the MSHR wrappers only count.  Nothing is
 * written while the chip runs: the driver reads and clears the totals
 * around each Chip::run.
 */

#ifndef CHIPBENCH_SPANS_HH
#define CHIPBENCH_SPANS_HH

#include <chrono>
#include <cstdint>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace chipbench
{

/** Span totals since the last reset. */
struct Spans
{
    std::uint64_t coreTicks = 0;     ///< SimtCore::cycle
    std::uint64_t coreCalls = 0;
    std::uint64_t replyTicks = 0;    ///< SimtCore::onReadReply
    std::uint64_t replyCalls = 0;
    std::uint64_t mcIcntTicks = 0;   ///< McNode::icntCycle
    std::uint64_t mcIcntCalls = 0;
    std::uint64_t mcMemTicks = 0;    ///< McNode::memCycle (DRAM inside)
    std::uint64_t mcMemCalls = 0;
    std::uint64_t dramTicks = 0;     ///< DramChannel::cycle
    std::uint64_t dramCalls = 0;
    std::uint64_t clockTicks = 0;    ///< ClockDomainSet::advance
    std::uint64_t clockCalls = 0;
    std::uint64_t mshrProbes = 0;    ///< MshrTable::canAllocate calls
    std::uint64_t mshrProbeFails = 0;///< ... that returned false
    std::uint64_t mshrAllocs = 0;    ///< MshrTable::allocate calls
    std::uint64_t mshrMerges = 0;    ///< ... that merged (returned false)
};

/** The process-wide totals the wrappers add to (single-threaded). */
extern Spans spans;

/**
 * Span clock: the time-stamp counter on x86-64 (a few ns per read,
 * against ~20 for steady_clock, which matters at millions of spans per
 * run), else steady_clock nanoseconds.  The driver converts ticks to
 * seconds by timing each Chip::run on both clocks.
 */
inline std::uint64_t
spanTicks()
{
#if defined(__x86_64__)
    return __rdtsc();
#else
    return static_cast<std::uint64_t>(
        std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

} // namespace chipbench

#endif // CHIPBENCH_SPANS_HH
