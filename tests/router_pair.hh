/**
 * @file
 * Routers built outside a MeshNetwork, for router and link unit tests.
 * Each fixture owns what a network gives its routers: the VC arena
 * they view, the active set they mark and the running counters they
 * keep.
 *
 *   - OneRouter: one router on its own arena; the test injects flits
 *     and runs its stages.
 *   - RouterPair: A at (0, 0) and B at (1, 0) view one arena, and A's
 *     east output feeds B's west input through a link stage the test
 *     fires.
 */

#ifndef TENOC_TESTS_ROUTER_PAIR_HH
#define TENOC_TESTS_ROUTER_PAIR_HH

#include "noc/link.hh"
#include "noc/router.hh"

namespace tenoc
{

/** Input (or output) VCs one router with `rp` takes. */
inline std::size_t
routerVcs(const Router::Params &rp, bool inputs)
{
    const unsigned ports =
        NUM_DIRS + (inputs ? rp.numInjPorts : rp.numEjPorts);
    return std::size_t{ports} * rp.vcMap.numVcs();
}

/** An arena for `routers` routers that each take `rp`. */
inline VcSlabs
routerSlab(const Router::Params &rp, unsigned routers)
{
    VcSlabs s;
    s.configure(routers * routerVcs(rp, true),
                routers * routerVcs(rp, false), rp.vcDepth);
    return s;
}

struct OneRouter
{
    /** The router at (`x`, `y`) of the `tp` mesh takes `rp`. */
    OneRouter(const Router::Params &rp, unsigned x, unsigned y,
              const TopologyParams &tp = {})
        : topo(tp), route(topo), slab(routerSlab(rp, 1)),
          active(topo.numNodes()),
          r(topo.nodeAt(x, y), topo, route, rp, slab, 0, 0, active,
            counters)
    {}

    Topology topo;
    Routing route;
    VcSlabs slab;
    ActiveSet active;
    NetCounters counters;
    Router r;
};

struct RouterPair
{
    /** Both routers take `rp`. */
    explicit RouterPair(const Router::Params &rp)
        : topo(TopologyParams{}), xy(topo),
          slab(routerSlab(rp, 2)), active(topo.numNodes()),
          a(topo.nodeAt(0, 0), topo, xy, rp, slab, 0, 0, active,
            counters),
          b(topo.nodeAt(1, 0), topo, xy, rp, slab, routerVcs(rp, true),
            routerVcs(rp, false), active, counters)
    {
        wheel.configure(&slab);
        link = a.connect(DIR_EAST, b, wheel);
    }

    Topology topo;
    Routing xy;
    VcSlabs slab;
    ActiveSet active;
    NetCounters counters;
    Router a;
    Router b;
    LinkWheel wheel;
    unsigned link = 0;
};

} // namespace tenoc

#endif // TENOC_TESTS_ROUTER_PAIR_HH
