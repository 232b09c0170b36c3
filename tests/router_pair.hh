/**
 * @file
 * Two standalone routers joined by one link, for router and link unit
 * tests: A at (0, 0) and B at (1, 0) view one slab, and A's east
 * output feeds B's west input through a link wheel the test fires.
 */

#ifndef TENOC_TESTS_ROUTER_PAIR_HH
#define TENOC_TESTS_ROUTER_PAIR_HH

#include "noc/link.hh"
#include "noc/router.hh"

namespace tenoc
{

struct RouterPair
{
    /** Both routers take `rp`; the link takes `latency` cycles. */
    explicit RouterPair(const Router::Params &rp, Cycle latency = 1)
        : topo(TopologyParams{}), xy(topo, "xy"),
          slab(pairSlab(rp)),
          a(topo.nodeAt(0, 0), topo, xy, rp, slab, 0, 0),
          b(topo.nodeAt(1, 0), topo, xy, rp, slab, vcsPerRouter(rp, true),
            vcsPerRouter(rp, false))
    {
        a.setActivity(&active, 0);
        b.setActivity(&active, 1);
        wheel.configure(latency, &slab);
        link = a.connect(DIR_EAST, b, wheel);
    }

    /** Input (or output) VCs one router with `rp` takes. */
    static std::size_t
    vcsPerRouter(const Router::Params &rp, bool inputs)
    {
        const unsigned ports =
            NUM_DIRS + (inputs ? rp.numInjPorts : rp.numEjPorts);
        return std::size_t{ports} * rp.vcMap.numVcs();
    }

    static VcSlabs
    pairSlab(const Router::Params &rp)
    {
        VcSlabs s;
        s.configure(2 * vcsPerRouter(rp, true),
                    2 * vcsPerRouter(rp, false), rp.vcDepth);
        return s;
    }

    Topology topo;
    Routing xy;
    VcSlabs slab;
    Router a;
    Router b;
    ActiveSet active{2};
    LinkWheel wheel;
    unsigned link = 0;
};

} // namespace tenoc

#endif // TENOC_TESTS_ROUTER_PAIR_HH
