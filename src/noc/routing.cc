/**
 * @file
 * Routing algorithm implementations.
 */

#include "noc/routing.hh"

#include <algorithm>

#include "common/log.hh"

namespace tenoc
{

unsigned
RoutingAlgorithm::dorStep(NodeId cur, NodeId target, bool x_first) const
{
    const unsigned cx = topo_.xOf(cur);
    const unsigned cy = topo_.yOf(cur);
    const unsigned tx = topo_.xOf(target);
    const unsigned ty = topo_.yOf(target);

    if (cx == tx && cy == ty)
        return PORT_EJECT;

    if (x_first) {
        if (cx != tx)
            return cx < tx ? DIR_EAST : DIR_WEST;
        return cy < ty ? DIR_SOUTH : DIR_NORTH;
    }
    if (cy != ty)
        return cy < ty ? DIR_SOUTH : DIR_NORTH;
    return cx < tx ? DIR_EAST : DIR_WEST;
}

void
DorRouting::initPacket(Packet &pkt, Rng &rng) const
{
    (void)rng;
    pkt.mode = x_first_ ? RouteMode::XY : RouteMode::YX;
    pkt.intermediate = INVALID_NODE;
    pkt.phase2 = false;
}

unsigned
DorRouting::route(NodeId cur, Packet &pkt) const
{
    return dorStep(cur, pkt.dst, x_first_);
}

CheckerboardRouting::CheckerboardRouting(const Topology &topo)
    : RoutingAlgorithm(topo)
{
    tenoc_assert(topo.params().checkerboardRouters,
                 "checkerboard routing requires a checkerboard mesh");
}

std::vector<NodeId>
CheckerboardRouting::twoPhaseCandidates(NodeId src, NodeId dst) const
{
    const unsigned sx = topo_.xOf(src);
    const unsigned sy = topo_.yOf(src);
    const unsigned dx = topo_.xOf(dst);
    const unsigned dy = topo_.yOf(dst);

    const unsigned x_lo = std::min(sx, dx);
    const unsigned x_hi = std::max(sx, dx);
    const unsigned y_lo = std::min(sy, dy);
    const unsigned y_hi = std::max(sy, dy);

    std::vector<NodeId> out;
    for (unsigned iy = y_lo; iy <= y_hi; ++iy) {
        if (iy == sy)
            continue; // waypoint must not share the source row
        for (unsigned ix = x_lo; ix <= x_hi; ++ix) {
            // Even number of columns from the source (Sec. IV-B):
            // together with full-router parity this puts the YX turn
            // at (sx, iy) on a full router.
            if ((ix > sx ? ix - sx : sx - ix) % 2 != 0)
                continue;
            const NodeId cand = topo_.nodeAt(ix, iy);
            if (topo_.isHalfRouter(cand))
                continue;
            // The XY leg turns at (dx, iy) whenever both of its
            // dimensions are non-degenerate; that node must be a full
            // router too.  Parity only guarantees it for half-router
            // sources — a full-router source whose minimal quadrant
            // offers only half-router XY turn columns (e.g. rows
            // hugging a mesh edge) would otherwise be handed a
            // waypoint whose second leg turns illegally.
            if (ix != dx && iy != dy &&
                topo_.isHalfRouter(topo_.nodeAt(dx, iy)))
                continue;
            out.push_back(cand);
        }
    }
    return out;
}

void
CheckerboardRouting::initPacket(Packet &pkt, Rng &rng) const
{
    pkt.intermediate = INVALID_NODE;
    pkt.phase2 = false;

    const unsigned sx = topo_.xOf(pkt.src);
    const unsigned sy = topo_.yOf(pkt.src);
    const unsigned dx = topo_.xOf(pkt.dst);
    const unsigned dy = topo_.yOf(pkt.dst);

    // Straight routes never turn; XY covers both.
    if (sx == dx || sy == dy) {
        pkt.mode = RouteMode::XY;
        return;
    }

    // XY turns at (dx, sy); YX turns at (sx, dy).
    if (canTurnAt(topo_.nodeAt(dx, sy))) {
        pkt.mode = RouteMode::XY;
        return;
    }
    if (canTurnAt(topo_.nodeAt(sx, dy))) {
        // Case 1: the single header bit selects YX (Sec. IV-B).
        pkt.mode = RouteMode::YX;
        return;
    }

    // Case 2: both DOR turn nodes are half-routers; route via a random
    // intermediate full router (YX then XY).
    auto candidates = twoPhaseCandidates(pkt.src, pkt.dst);
    if (candidates.empty()) {
        tenoc_panic("no feasible checkerboard route from node ",
                    pkt.src, " (", sx, ",", sy, ") to node ", pkt.dst,
                    " (", dx, ",", dy,
                    "); full-to-full odd-distance pairs are not "
                    "routable on a checkerboard mesh");
    }
    pkt.mode = RouteMode::TWO_PHASE;
    pkt.intermediate = candidates[rng.nextRange(candidates.size())];
}

unsigned
CheckerboardRouting::route(NodeId cur, Packet &pkt) const
{
    if (pkt.mode == RouteMode::TWO_PHASE && !pkt.phase2 &&
        cur == pkt.intermediate) {
        // Waypoint reached: switch to the XY leg.  Unlike Valiant
        // routing the packet is not ejected here; it turns in place at
        // a full router (Sec. IV-B, footnote 5).
        pkt.phase2 = true;
    }

    NodeId target = pkt.dst;
    bool x_first = true;
    switch (pkt.mode) {
      case RouteMode::XY:
        x_first = true;
        break;
      case RouteMode::YX:
        x_first = false;
        break;
      case RouteMode::TWO_PHASE:
        if (pkt.phase2) {
            x_first = true;
        } else {
            target = pkt.intermediate;
            x_first = false;
        }
        break;
    }

    unsigned port = dorStep(cur, target, x_first);
    tenoc_assert(!(port == PORT_EJECT && target != pkt.dst),
                 "two-phase packet ejected at waypoint");
    return port;
}

namespace
{

/** Full-router-only algorithms cannot run on checkerboard meshes. */
void
requireFullRouters(const Topology &topo, const char *algo)
{
    if (topo.params().checkerboardRouters) {
        tenoc_fatal(algo, " routing may turn at any router and "
                    "cannot run on a checkerboard (half-router) mesh; "
                    "use checkerboard routing instead");
    }
}

} // namespace

O1TurnRouting::O1TurnRouting(const Topology &topo)
    : RoutingAlgorithm(topo)
{
    requireFullRouters(topo, "O1TURN");
}

void
O1TurnRouting::initPacket(Packet &pkt, Rng &rng) const
{
    pkt.intermediate = INVALID_NODE;
    pkt.phase2 = false;
    pkt.mode = rng.nextBool(0.5) ? RouteMode::XY : RouteMode::YX;
}

unsigned
O1TurnRouting::route(NodeId cur, Packet &pkt) const
{
    return dorStep(cur, pkt.dst, pkt.mode == RouteMode::XY);
}

RommRouting::RommRouting(const Topology &topo) : RoutingAlgorithm(topo)
{
    requireFullRouters(topo, "ROMM");
}

void
RommRouting::initPacket(Packet &pkt, Rng &rng) const
{
    pkt.mode = RouteMode::TWO_PHASE;
    pkt.phase2 = false;
    const unsigned sx = topo_.xOf(pkt.src);
    const unsigned sy = topo_.yOf(pkt.src);
    const unsigned dx = topo_.xOf(pkt.dst);
    const unsigned dy = topo_.yOf(pkt.dst);
    const unsigned x_lo = std::min(sx, dx);
    const unsigned x_hi = std::max(sx, dx);
    const unsigned y_lo = std::min(sy, dy);
    const unsigned y_hi = std::max(sy, dy);
    const unsigned ix = x_lo +
        static_cast<unsigned>(rng.nextRange(x_hi - x_lo + 1));
    const unsigned iy = y_lo +
        static_cast<unsigned>(rng.nextRange(y_hi - y_lo + 1));
    pkt.intermediate = topo_.nodeAt(ix, iy);
    if (pkt.intermediate == pkt.src)
        pkt.phase2 = true; // degenerate: straight to phase 2
}

unsigned
RommRouting::route(NodeId cur, Packet &pkt) const
{
    if (!pkt.phase2 && cur == pkt.intermediate)
        pkt.phase2 = true;
    const NodeId target = pkt.phase2 ? pkt.dst : pkt.intermediate;
    const unsigned port = dorStep(cur, target, true);
    tenoc_assert(!(port == PORT_EJECT && target != pkt.dst),
                 "ROMM packet ejected at waypoint");
    return port;
}

ValiantRouting::ValiantRouting(const Topology &topo)
    : RoutingAlgorithm(topo)
{
    requireFullRouters(topo, "VALIANT");
}

void
ValiantRouting::initPacket(Packet &pkt, Rng &rng) const
{
    pkt.mode = RouteMode::TWO_PHASE;
    pkt.phase2 = false;
    pkt.intermediate =
        static_cast<NodeId>(rng.nextRange(topo_.numNodes()));
    if (pkt.intermediate == pkt.src)
        pkt.phase2 = true;
}

unsigned
ValiantRouting::route(NodeId cur, Packet &pkt) const
{
    if (!pkt.phase2 && cur == pkt.intermediate)
        pkt.phase2 = true;
    const NodeId target = pkt.phase2 ? pkt.dst : pkt.intermediate;
    const unsigned port = dorStep(cur, target, true);
    tenoc_assert(!(port == PORT_EJECT && target != pkt.dst),
                 "Valiant packet ejected at waypoint");
    return port;
}

std::unique_ptr<RoutingAlgorithm>
makeRouting(const std::string &name, const Topology &topo)
{
    if (name == "xy" || name == "dor")
        return std::make_unique<DorRouting>(topo, true);
    if (name == "yx")
        return std::make_unique<DorRouting>(topo, false);
    if (name == "cr" || name == "checkerboard")
        return std::make_unique<CheckerboardRouting>(topo);
    if (name == "o1turn")
        return std::make_unique<O1TurnRouting>(topo);
    if (name == "romm")
        return std::make_unique<RommRouting>(topo);
    if (name == "valiant")
        return std::make_unique<ValiantRouting>(topo);
    tenoc_fatal("unknown routing algorithm '", name, "'");
}

unsigned
routeClassesOf(const std::string &name)
{
    if (name == "xy" || name == "dor" || name == "yx")
        return 1;
    if (name == "cr" || name == "checkerboard" || name == "o1turn" ||
        name == "romm" || name == "valiant")
        return 2;
    return 0;
}

} // namespace tenoc
