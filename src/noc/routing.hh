/**
 * @file
 * Oblivious routing, decided by the router kind: dimension-order XY
 * on a mesh of full routers (the Table III baseline), and the paper's
 * checkerboard routing (CR, Sec. IV-B) on a checkerboard of full and
 * half routers, the two setups the paper evaluates.
 *
 * CR selects, per packet at injection time:
 *  - XY when the XY turn node is a full router,
 *  - else YX when the YX turn node is a full router (one header bit),
 *  - else a two-phase route: YX to a random intermediate *full* router
 *    inside the minimal quadrant (not in the source row, an even number
 *    of columns from the source), then XY to the destination.  The
 *    checkerboard parity guarantees both phases turn only at full
 *    routers.
 *
 * Each leg class (XY vs YX) uses its own virtual-channel class, which
 * together with the YX->XY phase ordering keeps CR deadlock-free.
 *
 * The algorithm only decides the packet header at injection; the
 * per-hop step reads nothing but that header, so one route() serves
 * XY packets, CR's YX packets and both legs of a two-phase route.
 */

#ifndef TENOC_NOC_ROUTING_HH
#define TENOC_NOC_ROUTING_HH

#include <vector>

#include "common/rng.hh"
#include "noc/flit.hh"
#include "noc/topology.hh"

namespace tenoc
{

/**
 * @return the routing VC classes a mesh with `topo` needs: 1 for XY
 * on full routers, 2 for CR on a half-router checkerboard (one per
 * leg class).  Lets config checks size routers without building a
 * topology.
 */
inline unsigned
routeClassesOf(const TopologyParams &topo)
{
    return topo.checkerboardRouters ? 2 : 1;
}

/** The routing a network runs: XY, or CR on a checkerboard mesh. */
class Routing
{
  public:
    /** @param topo topology (must outlive the routing); CR exactly
     *  when it has half-routers */
    explicit Routing(const Topology &topo) : topo_(&topo) {}

    /** Number of routing VC classes required (1 for XY, 2 for CR). */
    unsigned
    numRouteClasses() const
    {
        return routeClassesOf(topo_->params());
    }

    /**
     * Chooses the packet's route mode (and waypoint, for CR) at
     * injection time.  Must be called exactly once per packet.
     */
    void initPacket(Packet &pkt, Rng &rng) const;

    /**
     * Computes the output direction at node `cur` for the head flit of
     * `pkt`.  Returns a Direction, or PORT_EJECT on arrival.  For
     * two-phase packets this sets pkt.phase2 when the waypoint is
     * reached.
     */
    unsigned route(NodeId cur, Packet &pkt) const;

    /**
     * Enumerates the legal intermediate full routers for a two-phase
     * CR route (exposed for tests and the routing-sweep oracle).
     */
    std::vector<NodeId> twoPhaseCandidates(NodeId src, NodeId dst) const;

  private:
    /** CR's choice of mode and waypoint. */
    void initCheckerboard(Packet &pkt, Rng &rng) const;

    const Topology *topo_;
};

inline unsigned
Routing::route(NodeId cur, Packet &pkt) const
{
    NodeId target = pkt.dst;
    bool x_first = pkt.mode != RouteMode::YX;
    if (pkt.mode == RouteMode::TWO_PHASE && !pkt.phase2) {
        if (cur == pkt.intermediate) {
            // Waypoint reached: switch to the XY leg.  The packet is
            // not ejected here; it turns in place at a full router
            // (Sec. IV-B, footnote 5).
            pkt.phase2 = true;
        } else {
            target = pkt.intermediate;
            x_first = false;
        }
    }

    const unsigned cx = topo_->xOf(cur);
    const unsigned cy = topo_->yOf(cur);
    const unsigned tx = topo_->xOf(target);
    const unsigned ty = topo_->yOf(target);
    if (cx == tx && cy == ty)
        return PORT_EJECT;
    // XY moves along X until the column matches; YX only once the row
    // matches.
    if (x_first ? cx != tx : cy == ty)
        return cx < tx ? DIR_EAST : DIR_WEST;
    return cy < ty ? DIR_SOUTH : DIR_NORTH;
}

} // namespace tenoc

#endif // TENOC_NOC_ROUTING_HH
