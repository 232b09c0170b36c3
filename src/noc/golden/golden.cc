/**
 * @file
 * Golden reference model implementation.
 */

#include "noc/golden/golden.hh"

#include <algorithm>
#include <sstream>

#include "common/log.hh"

namespace tenoc
{

GoldenModel::GoldenModel(const Topology &topo,
                         const MeshNetworkParams &params)
    : topo_(topo), params_(params)
{}

void
GoldenModel::appendDorLeg(NodeId from, NodeId to, bool x_first,
                          std::vector<NodeId> &out) const
{
    unsigned cx = topo_.xOf(from);
    unsigned cy = topo_.yOf(from);
    const unsigned tx = topo_.xOf(to);
    const unsigned ty = topo_.yOf(to);

    if (x_first) {
        while (cx != tx) {
            cx = cx < tx ? cx + 1 : cx - 1;
            out.push_back(topo_.nodeAt(cx, cy));
        }
        while (cy != ty) {
            cy = cy < ty ? cy + 1 : cy - 1;
            out.push_back(topo_.nodeAt(cx, cy));
        }
    } else {
        while (cy != ty) {
            cy = cy < ty ? cy + 1 : cy - 1;
            out.push_back(topo_.nodeAt(cx, cy));
        }
        while (cx != tx) {
            cx = cx < tx ? cx + 1 : cx - 1;
            out.push_back(topo_.nodeAt(cx, cy));
        }
    }
}

void
GoldenModel::reconstructRoute(const Packet &pkt,
                              std::vector<NodeId> &out) const
{
    out.clear();
    out.push_back(pkt.src);
    switch (pkt.mode) {
      case RouteMode::XY:
        appendDorLeg(pkt.src, pkt.dst, true, out);
        break;
      case RouteMode::YX:
        appendDorLeg(pkt.src, pkt.dst, false, out);
        break;
      case RouteMode::TWO_PHASE: {
        // Checkerboard routing runs YX to the waypoint so the first
        // turn lands on a full router; ROMM and Valiant are XY-XY.
        const bool cr_leg = params_.routing == "cr" ||
                            params_.routing == "checkerboard";
        appendDorLeg(pkt.src, pkt.intermediate, !cr_leg, out);
        appendDorLeg(pkt.intermediate, pkt.dst, true, out);
        break;
      }
    }
}

Cycle
GoldenModel::zeroLoadLatency(const std::vector<NodeId> &route,
                             unsigned size_flits) const
{
    tenoc_assert(!route.empty(), "empty route");
    tenoc_assert(size_flits >= 1, "packet must have flits");
    Cycle lat = 0;
    for (NodeId n : route) {
        lat += topo_.isHalfRouter(n) ? params_.halfPipelineDepth
                                     : params_.pipelineDepth;
    }
    lat += static_cast<Cycle>(route.size() - 1) * params_.channelLatency;
    lat += size_flits - 1; // tail serialization behind the head
    return lat;
}

void
GoldenModel::checkRoute(const Packet &pkt,
                        const std::vector<NodeId> &route,
                        std::vector<std::string> &violations) const
{
    auto fail = [&](const std::string &what) {
        std::ostringstream os;
        os << "route check: packet " << pkt.id << " (" << pkt.src
           << " -> " << pkt.dst << "): " << what;
        violations.push_back(os.str());
    };

    if (route.empty() || route.front() != pkt.src ||
        route.back() != pkt.dst) {
        fail("route endpoints do not match the packet header");
        return;
    }

    for (std::size_t i = 1; i < route.size(); ++i) {
        if (topo_.hopDistance(route[i - 1], route[i]) != 1) {
            fail("hop " + std::to_string(i) + " is not mesh-adjacent");
            return;
        }
    }

    // A direction change at an interior node is a turn; half-routers
    // only pass straight-through traffic (Sec. IV-A).
    for (std::size_t i = 1; i + 1 < route.size(); ++i) {
        const bool in_horizontal =
            topo_.yOf(route[i]) == topo_.yOf(route[i - 1]);
        const bool out_horizontal =
            topo_.yOf(route[i + 1]) == topo_.yOf(route[i]);
        if (in_horizontal != out_horizontal &&
            topo_.isHalfRouter(route[i])) {
            fail("turn at half-router node " +
                 std::to_string(route[i]));
        }
    }

    // Per-leg minimality: every algorithm here routes each leg
    // minimally, so total hops must equal the leg hop distances.
    unsigned expect_hops;
    if (pkt.mode == RouteMode::TWO_PHASE) {
        expect_hops = topo_.hopDistance(pkt.src, pkt.intermediate) +
                      topo_.hopDistance(pkt.intermediate, pkt.dst);
    } else {
        expect_hops = topo_.hopDistance(pkt.src, pkt.dst);
    }
    if (route.size() - 1 != expect_hops) {
        fail("route has " + std::to_string(route.size() - 1) +
             " hops, expected " + std::to_string(expect_hops));
    }
}

GoldenShadow::GoldenShadow(const GoldenModel &model, const Topology &topo)
    : model_(model), topo_(topo),
      node_in_flits_(topo.numNodes(), 0),
      node_out_flits_(topo.numNodes(), 0),
      node_in_bytes_(topo.numNodes(), 0),
      node_out_bytes_(topo.numNodes(), 0)
{}

void
GoldenShadow::check(bool ok, std::string what)
{
    if (!ok)
        violations_.push_back(std::move(what));
}

void
GoldenShadow::onInject(const Packet &pkt, Cycle now)
{
    model_.reconstructRoute(pkt, route_scratch_);
    model_.checkRoute(pkt, route_scratch_, violations_);

    Expected e;
    e.dst = pkt.dst;
    e.sizeFlits = pkt.sizeFlits;
    e.sizeBytes = pkt.sizeBytes;
    e.created = pkt.createdCycle != INVALID_CYCLE ? pkt.createdCycle
                                                  : now;
    e.zeroLoad = model_.zeroLoadLatency(route_scratch_, pkt.sizeFlits);
    check(inflight_.emplace(pkt.id, e).second,
          "duplicate packet id " + std::to_string(pkt.id) +
              " injected");

    ++packets_in_;
    flits_in_ += pkt.sizeFlits;
    node_in_flits_[pkt.src] += pkt.sizeFlits;
    node_in_bytes_[pkt.src] += pkt.sizeBytes;
}

void
GoldenShadow::onDeliver(const Packet &pkt, NodeId at, Cycle now)
{
    auto it = inflight_.find(pkt.id);
    if (it == inflight_.end()) {
        check(false, "packet " + std::to_string(pkt.id) +
                         " delivered but never injected (or "
                         "delivered twice)");
        return;
    }
    const Expected &e = it->second;
    check(at == e.dst, "packet " + std::to_string(pkt.id) +
                           " delivered at node " + std::to_string(at) +
                           ", addressed to " + std::to_string(e.dst));

    const Cycle lat = now - e.created;
    if (expect_zero_load_) {
        check(lat == e.zeroLoad,
              "packet " + std::to_string(pkt.id) + " latency " +
                  std::to_string(lat) + " != zero-load latency " +
                  std::to_string(e.zeroLoad));
    } else {
        check(lat >= e.zeroLoad,
              "packet " + std::to_string(pkt.id) + " latency " +
                  std::to_string(lat) +
                  " beats the zero-load lower bound " +
                  std::to_string(e.zeroLoad));
    }

    ++packets_out_;
    flits_out_ += e.sizeFlits;
    node_out_flits_[e.dst] += e.sizeFlits;
    node_out_bytes_[e.dst] += e.sizeBytes;
    const auto dlat = static_cast<double>(lat);
    if (lat_count_ == 0) {
        lat_min_ = lat_max_ = dlat;
    } else {
        lat_min_ = std::min(lat_min_, dlat);
        lat_max_ = std::max(lat_max_, dlat);
    }
    ++lat_count_;
    lat_sum_ += dlat;
    inflight_.erase(it);
}

void
GoldenShadow::finalCheck(const NetStats &stats, bool drained)
{
    auto eq_u64 = [&](std::uint64_t got, std::uint64_t want,
                      const char *what) {
        if (got != want) {
            std::ostringstream os;
            os << what << ": network reports " << got << ", shadow "
               << want;
            violations_.push_back(os.str());
        }
    };
    auto eq_dbl = [&](double got, double want, const char *what) {
        if (got != want) {
            std::ostringstream os;
            os.precision(17);
            os << what << ": network reports " << got << ", shadow "
               << want;
            violations_.push_back(os.str());
        }
    };

    if (drained) {
        check(inflight_.empty(),
              std::to_string(inflight_.size()) +
                  " packets injected but never delivered on a "
                  "drained network");
    }

    eq_u64(stats.packetsInjected, packets_in_, "packetsInjected");
    eq_u64(stats.packetsEjected, packets_out_, "packetsEjected");
    eq_u64(stats.flitsInjected, flits_in_, "flitsInjected");
    eq_u64(stats.flitsEjected, flits_out_, "flitsEjected");

    for (NodeId n = 0; n < topo_.numNodes(); ++n) {
        eq_u64(stats.nodeInjectedFlits[n], node_in_flits_[n],
               "nodeInjectedFlits");
        eq_u64(stats.nodeEjectedFlits[n], node_out_flits_[n],
               "nodeEjectedFlits");
        eq_u64(stats.nodeInjectedBytes[n], node_in_bytes_[n],
               "nodeInjectedBytes");
        eq_u64(stats.nodeEjectedBytes[n], node_out_bytes_[n],
               "nodeEjectedBytes");
    }

    eq_u64(stats.totalLatency.count(), lat_count_,
           "totalLatency.count");
    eq_u64(stats.totalLatencyHist.count(), lat_count_,
           "totalLatencyHist.count");
    eq_dbl(stats.totalLatency.sum(), lat_sum_, "totalLatency.sum");
    if (lat_count_ > 0) {
        eq_dbl(stats.totalLatency.min(), lat_min_, "totalLatency.min");
        eq_dbl(stats.totalLatency.max(), lat_max_, "totalLatency.max");
    }
}

} // namespace tenoc
