/**
 * @file
 * Link-time layer spans for the traced chip benchmark.
 *
 * CMakeLists.txt links chipbench_traced with `--wrap=<symbol>` for each
 * entry point below, so every call from another translation unit lands
 * in the matching __wrap_ function, which times (or counts) the call
 * and forwards it to the __real_ definition.  A call the compiler
 * inlined, or one made from the symbol's own translation unit, is not
 * redirected: its time stays in the caller's span, and the driver
 * reports any span it never saw called.
 */

#include "spans.hh"

#include <vector>

#include "accel/mc_node.hh"
#include "cache/mshr.hh"
#include "common/clock.hh"
#include "dram/dram_channel.hh"
#include "gpu/simt_core.hh"

namespace chipbench
{

Spans spans;

} // namespace chipbench

namespace
{

using chipbench::spans;

/** Adds the enclosing scope's duration to a tick total. */
class Span
{
  public:
    Span(std::uint64_t &ticks, std::uint64_t &calls)
        : ticks_(ticks), t0_(chipbench::spanTicks())
    {
        ++calls;
    }
    ~Span() { ticks_ += chipbench::spanTicks() - t0_; }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    std::uint64_t &ticks_;
    std::uint64_t t0_;
};

} // namespace

using tenoc::Addr;
using tenoc::ClockDomainSet;
using tenoc::Cycle;
using tenoc::DramChannel;
using tenoc::McNode;
using tenoc::MshrTable;
using tenoc::SimtCore;

// Member functions take `this` as their first argument under the
// Itanium C++ ABI, so each mangled symbol is declared as a free
// function of that shape.
extern "C" {

void __real__ZN5tenoc8SimtCore5cycleEm(SimtCore *, Cycle);
void __real__ZN5tenoc8SimtCore11onReadReplyEm(SimtCore *, Addr);
void __real__ZN5tenoc6McNode9icntCycleEm(McNode *, Cycle);
void __real__ZN5tenoc6McNode8memCycleEm(McNode *, Cycle);
void __real__ZN5tenoc11DramChannel5cycleEm(DramChannel *, Cycle);
const std::vector<bool> &
__real__ZN5tenoc14ClockDomainSet7advanceEv(ClockDomainSet *);
bool __real__ZNK5tenoc9MshrTable11canAllocateEm(const MshrTable *, Addr);
bool __real__ZN5tenoc9MshrTable8allocateEmm(MshrTable *, Addr,
                                             std::uint64_t);

void
__wrap__ZN5tenoc8SimtCore5cycleEm(SimtCore *core, Cycle now)
{
    Span s(spans.coreTicks, spans.coreCalls);
    __real__ZN5tenoc8SimtCore5cycleEm(core, now);
}

void
__wrap__ZN5tenoc8SimtCore11onReadReplyEm(SimtCore *core, Addr line)
{
    Span s(spans.replyTicks, spans.replyCalls);
    __real__ZN5tenoc8SimtCore11onReadReplyEm(core, line);
}

void
__wrap__ZN5tenoc6McNode9icntCycleEm(McNode *mc, Cycle now)
{
    Span s(spans.mcIcntTicks, spans.mcIcntCalls);
    __real__ZN5tenoc6McNode9icntCycleEm(mc, now);
}

void
__wrap__ZN5tenoc6McNode8memCycleEm(McNode *mc, Cycle now)
{
    Span s(spans.mcMemTicks, spans.mcMemCalls);
    __real__ZN5tenoc6McNode8memCycleEm(mc, now);
}

void
__wrap__ZN5tenoc11DramChannel5cycleEm(DramChannel *ch, Cycle now)
{
    Span s(spans.dramTicks, spans.dramCalls);
    __real__ZN5tenoc11DramChannel5cycleEm(ch, now);
}

const std::vector<bool> &
__wrap__ZN5tenoc14ClockDomainSet7advanceEv(ClockDomainSet *clocks)
{
    Span s(spans.clockTicks, spans.clockCalls);
    return __real__ZN5tenoc14ClockDomainSet7advanceEv(clocks);
}

bool
__wrap__ZNK5tenoc9MshrTable11canAllocateEm(const MshrTable *t, Addr line)
{
    const bool ok = __real__ZNK5tenoc9MshrTable11canAllocateEm(t, line);
    ++spans.mshrProbes;
    spans.mshrProbeFails += !ok;
    return ok;
}

bool
__wrap__ZN5tenoc9MshrTable8allocateEmm(MshrTable *t, Addr line,
                                       std::uint64_t waiter)
{
    const bool fresh =
        __real__ZN5tenoc9MshrTable8allocateEmm(t, line, waiter);
    ++spans.mshrAllocs;
    spans.mshrMerges += !fresh;
    return fresh;
}

} // extern "C"
