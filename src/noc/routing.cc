/**
 * @file
 * Routing implementation: the injection-time mode choice.
 */

#include "noc/routing.hh"

#include <algorithm>

#include "common/log.hh"

namespace tenoc
{

void
Routing::initPacket(Packet &pkt, Rng &rng) const
{
    pkt.intermediate = INVALID_NODE;
    pkt.phase2 = false;
    if (topo_->params().checkerboardRouters)
        initCheckerboard(pkt, rng);
    else
        pkt.mode = RouteMode::XY;
}

std::vector<NodeId>
Routing::twoPhaseCandidates(NodeId src, NodeId dst) const
{
    const Topology &topo = *topo_;
    const unsigned sx = topo.xOf(src);
    const unsigned sy = topo.yOf(src);
    const unsigned dx = topo.xOf(dst);
    const unsigned dy = topo.yOf(dst);

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
            const NodeId cand = topo.nodeAt(ix, iy);
            if (topo.isHalfRouter(cand))
                continue;
            // The XY leg turns at (dx, iy) whenever both of its
            // dimensions are non-degenerate; that node must be a full
            // router too.  Parity only guarantees it for half-router
            // sources — a full-router source whose minimal quadrant
            // offers only half-router XY turn columns (e.g. rows
            // hugging a mesh edge) would otherwise be handed a
            // waypoint whose second leg turns illegally.
            if (ix != dx && iy != dy &&
                topo.isHalfRouter(topo.nodeAt(dx, iy)))
                continue;
            out.push_back(cand);
        }
    }
    return out;
}

void
Routing::initCheckerboard(Packet &pkt, Rng &rng) const
{
    const Topology &topo = *topo_;
    const unsigned sx = topo.xOf(pkt.src);
    const unsigned sy = topo.yOf(pkt.src);
    const unsigned dx = topo.xOf(pkt.dst);
    const unsigned dy = topo.yOf(pkt.dst);

    // Straight routes never turn; XY covers both.  Otherwise XY turns
    // at (dx, sy) and YX at (sx, dy); a turn needs a full router.
    if (sx == dx || sy == dy || !topo.isHalfRouter(topo.nodeAt(dx, sy))) {
        pkt.mode = RouteMode::XY;
        return;
    }
    if (!topo.isHalfRouter(topo.nodeAt(sx, dy))) {
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

} // namespace tenoc
