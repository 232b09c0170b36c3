/**
 * @file
 * Oblivious routing: dimension-order (XY / YX, the Table III baseline)
 * and the paper's checkerboard routing (CR, Sec. IV-B).
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
 * every algorithm.
 */

#ifndef TENOC_NOC_ROUTING_HH
#define TENOC_NOC_ROUTING_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "noc/flit.hh"
#include "noc/topology.hh"

namespace tenoc
{

/** The routing algorithm a network runs: "xy", "yx" or "cr". */
class Routing
{
  public:
    /**
     * @param topo topology (must outlive the routing)
     * @param name "xy", "yx" or "cr"; any other name is fatal, and
     *        "cr" requires a checkerboard (half-router) mesh
     */
    Routing(const Topology &topo, const std::string &name);

    /** Number of routing VC classes required (1 for DOR, 2 for CR). */
    unsigned numRouteClasses() const { return algo_ == Algo::CR ? 2 : 1; }

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
    enum class Algo : std::uint8_t { XY, YX, CR };

    /** CR's choice of mode and waypoint. */
    void initCheckerboard(Packet &pkt, Rng &rng) const;

    const Topology *topo_;
    Algo algo_;
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

/**
 * @return the routing VC classes of the algorithm `name` names (the
 * numRouteClasses() of Routing(topo, name)), or 0 if `name` names
 * none.  Lets config checks size routers without building a topology.
 */
unsigned routeClassesOf(const std::string &name);

/** The routing names Routing accepts, for error messages. */
inline constexpr const char *ROUTING_NAMES = "xy, yx or cr";

} // namespace tenoc

#endif // TENOC_NOC_ROUTING_HH
