/**
 * @file
 * Multi-clock-domain scheduler.
 *
 * The paper's closed-loop simulations (Table II) run three clock
 * domains: compute cores at 1296 MHz, interconnect + L2 at 602 MHz, and
 * the DRAM command clock at 1107 MHz.  ClockDomainSet advances a global
 * picosecond wall clock to the next edge among all domains and reports
 * which domains tick at that instant, exactly like GPGPU-Sim's
 * multi-clock main loop.
 */

#ifndef TENOC_COMMON_CLOCK_HH
#define TENOC_COMMON_CLOCK_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace tenoc
{

/** One clock domain: a name, a frequency, and a cycle counter. */
class ClockDomain
{
  public:
    /**
     * @param name domain name for reporting
     * @param freq_mhz frequency in MHz (> 0)
     */
    ClockDomain(std::string name, double freq_mhz);

    const std::string &name() const { return name_; }
    double freqMhz() const { return freq_mhz_; }

    /** Period in picoseconds (rounded to nearest ps). */
    Picoseconds periodPs() const { return period_ps_; }

    /** Cycles elapsed in this domain. */
    Cycle cycles() const { return cycles_; }

    /** Absolute time of the next edge, in ps. */
    Picoseconds nextEdgePs() const { return next_edge_ps_; }

    /** Advances past one edge (internal use by ClockDomainSet). */
    void tick();

    /** Resets the cycle counter and edge schedule. */
    void reset();

  private:
    std::string name_;
    double freq_mhz_;
    Picoseconds period_ps_;
    Cycle cycles_ = 0;
    Picoseconds next_edge_ps_;
};

/**
 * A set of clock domains sharing one picosecond wall clock.
 *
 * Usage:
 * @code
 *   ClockDomainSet clocks;
 *   auto core = clocks.addDomain("core", 1296.0);
 *   auto icnt = clocks.addDomain("icnt", 602.0);
 *   while (...) {
 *       auto ticked = clocks.advance();
 *       if (ticked[icnt]) network.cycle();
 *       if (ticked[core]) for (auto &c : cores) c.cycle();
 *   }
 * @endcode
 *
 * When several domains share an edge instant their tick flags are all
 * set in the same advance() call; callers choose the intra-instant
 * order by the order they inspect the flags.
 */
class ClockDomainSet
{
  public:
    using DomainId = std::size_t;

    /** Adds a domain; @return its id. */
    DomainId addDomain(const std::string &name, double freq_mhz);

    /** Number of domains. */
    std::size_t size() const { return domains_.size(); }

    /**
     * Advances wall time to the earliest pending edge and ticks every
     * domain whose edge falls at that instant.
     * @return per-domain flags: true if that domain ticked.
     */
    const std::vector<bool> &advance();

    /** Current wall time (time of the most recent edge). */
    Picoseconds nowPs() const { return now_ps_; }

    const ClockDomain &domain(DomainId id) const { return domains_[id]; }

    /** Resets all domains and wall time. */
    void reset();

  private:
    std::vector<ClockDomain> domains_;
    std::vector<bool> ticked_;
    Picoseconds now_ps_ = 0;
};

} // namespace tenoc

#endif // TENOC_COMMON_CLOCK_HH
