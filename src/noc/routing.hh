/**
 * @file
 * Oblivious routing algorithms: dimension-order (XY / YX) and the
 * paper's checkerboard routing (CR, Sec. IV-B).
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
 * Each leg class (XY vs YX) uses its own virtual-channel class, as in
 * O1Turn, which together with the YX->XY phase ordering keeps the
 * algorithm deadlock-free.
 */

#ifndef TENOC_NOC_ROUTING_HH
#define TENOC_NOC_ROUTING_HH

#include <memory>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "noc/flit.hh"
#include "noc/topology.hh"

namespace tenoc
{

/** Abstract per-hop routing function. */
class RoutingAlgorithm
{
  public:
    explicit RoutingAlgorithm(const Topology &topo) : topo_(topo) {}
    virtual ~RoutingAlgorithm() = default;

    virtual const char *name() const = 0;

    /** Number of routing VC classes required (1 for DOR, 2 for CR). */
    virtual unsigned numRouteClasses() const = 0;

    /**
     * Chooses the packet's route mode (and waypoint, for CR) at
     * injection time.  Must be called exactly once per packet.
     */
    virtual void initPacket(Packet &pkt, Rng &rng) const = 0;

    /**
     * Computes the output direction at node `cur` for the head flit of
     * `pkt`.  Returns a Direction, or PORT_EJECT on arrival.  For
     * two-phase packets this advances pkt.phase2 when the waypoint is
     * reached.
     */
    virtual unsigned route(NodeId cur, Packet &pkt) const = 0;

    const Topology &topology() const { return topo_; }

  protected:
    /** Dimension-order step toward `target` (x_first selects XY/YX). */
    unsigned dorStep(NodeId cur, NodeId target, bool x_first) const;

    const Topology &topo_;
};

/** Plain dimension-order routing (Table III baseline, "DOR"). */
class DorRouting : public RoutingAlgorithm
{
  public:
    /**
     * @param topo topology
     * @param x_first true for XY order, false for YX
     */
    DorRouting(const Topology &topo, bool x_first = true)
        : RoutingAlgorithm(topo), x_first_(x_first)
    {}

    const char *name() const override { return x_first_ ? "XY" : "YX"; }
    unsigned numRouteClasses() const override { return 1; }
    void initPacket(Packet &pkt, Rng &rng) const override;
    unsigned route(NodeId cur, Packet &pkt) const override;

  private:
    bool x_first_;
};

/** Checkerboard routing (Sec. IV-B). */
class CheckerboardRouting : public RoutingAlgorithm
{
  public:
    explicit CheckerboardRouting(const Topology &topo);

    const char *name() const override { return "CR"; }
    unsigned numRouteClasses() const override { return 2; }
    void initPacket(Packet &pkt, Rng &rng) const override;
    unsigned route(NodeId cur, Packet &pkt) const override;

    /**
     * Enumerates the legal intermediate full routers for a two-phase
     * route (exposed for tests).
     */
    std::vector<NodeId> twoPhaseCandidates(NodeId src, NodeId dst) const;

    /** @return true if a turn is possible at `n` (i.e. full router). */
    bool canTurnAt(NodeId n) const { return !topo_.isHalfRouter(n); }
};

/**
 * O1Turn routing (Seo et al., cited as [42]): each packet picks XY or
 * YX uniformly at random, using one VC class per orientation.  Near-
 * optimal worst-case throughput on meshes; requires full routers
 * everywhere (packets may turn anywhere).
 */
class O1TurnRouting : public RoutingAlgorithm
{
  public:
    explicit O1TurnRouting(const Topology &topo);

    const char *name() const override { return "O1TURN"; }
    unsigned numRouteClasses() const override { return 2; }
    void initPacket(Packet &pkt, Rng &rng) const override;
    unsigned route(NodeId cur, Packet &pkt) const override;
};

/**
 * Two-phase ROMM (Nesson & Johnsson, cited as [34]): route XY to a
 * uniformly random intermediate node inside the minimal quadrant,
 * then XY to the destination.  Minimal; the phase index provides the
 * two VC classes.  Checkerboard routing is the paper's half-router-
 * aware refinement of this scheme (Sec. VI).
 */
class RommRouting : public RoutingAlgorithm
{
  public:
    explicit RommRouting(const Topology &topo);

    const char *name() const override { return "ROMM"; }
    unsigned numRouteClasses() const override { return 2; }
    void initPacket(Packet &pkt, Rng &rng) const override;
    unsigned route(NodeId cur, Packet &pkt) const override;
};

/**
 * Valiant routing (cited as [45]): route XY to a uniformly random
 * intermediate node anywhere in the mesh, then XY to the destination.
 * Non-minimal; trades locality for worst-case load balance.  Unlike
 * the paper's footnote-5 strawman, packets turn at the intermediate
 * router without being ejected and reinjected.
 */
class ValiantRouting : public RoutingAlgorithm
{
  public:
    explicit ValiantRouting(const Topology &topo);

    const char *name() const override { return "VALIANT"; }
    unsigned numRouteClasses() const override { return 2; }
    void initPacket(Packet &pkt, Rng &rng) const override;
    unsigned route(NodeId cur, Packet &pkt) const override;
};

/**
 * Creates a routing algorithm by name: "xy", "yx", "cr"
 * (checkerboard), "o1turn", "romm", or "valiant".
 */
std::unique_ptr<RoutingAlgorithm> makeRouting(const std::string &name,
                                              const Topology &topo);

} // namespace tenoc

#endif // TENOC_NOC_ROUTING_HH
