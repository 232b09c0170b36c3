/**
 * @file
 * Topology implementation.
 */

#include "noc/topology.hh"

#include <cctype>
#include <cmath>

#include "common/log.hh"
#include "noc/mesh_network.hh"

namespace tenoc
{

const char *
dirName(unsigned d)
{
    switch (d) {
      case DIR_WEST: return "W";
      case DIR_EAST: return "E";
      case DIR_NORTH: return "N";
      case DIR_SOUTH: return "S";
      case PORT_EJECT: return "EJ";
    }
    // Indices above PORT_EJECT are side-dependent local ports; naming
    // them here would mislabel (input 4 is an injection port, output 4
    // an ejection port).  Same masking pattern as the old opposite().
    tenoc_panic("dirName() of non-direction port index ", d,
                "; use inputPortName()/outputPortName()");
}

std::string
inputPortName(unsigned in)
{
    if (in < NUM_DIRS)
        return dirName(in);
    return "INJ" + std::to_string(in - NUM_DIRS);
}

std::string
outputPortName(unsigned out)
{
    if (out < NUM_DIRS)
        return dirName(out);
    return "EJ" + std::to_string(out - NUM_DIRS);
}

std::vector<std::pair<unsigned, unsigned>>
defaultCheckerboardMcs6x6()
{
    // Two diagonals ("X" shape), all cells odd parity.
    return {{1, 0}, {2, 1}, {4, 3}, {5, 4}, {4, 1}, {3, 2}, {1, 4},
            {0, 5}};
}

const char *
placementName(McPlacement placement)
{
    switch (placement) {
      case McPlacement::TOP_BOTTOM: return "top-bottom";
      case McPlacement::CHECKERBOARD: return "checkerboard";
      case McPlacement::CUSTOM: break;
    }
    tenoc_panic("custom MC placement has no noc.placement name");
}

std::vector<std::pair<unsigned, unsigned>>
mcCoordinates(const TopologyParams &params)
{
    std::vector<std::pair<unsigned, unsigned>> coords;
    switch (params.placement) {
      case McPlacement::TOP_BOTTOM: {
        // Half the MCs on the top row, half on the bottom, packed into
        // the central columns (Fig. 3).
        const unsigned per_row = params.numMcs / 2;
        const unsigned top = per_row + params.numMcs % 2;
        for (unsigned i = 0; i < top; ++i)
            coords.emplace_back((params.cols - top) / 2 + i, 0);
        for (unsigned i = 0; i < per_row; ++i)
            coords.emplace_back((params.cols - per_row) / 2 + i,
                                params.rows - 1);
        break;
      }
      case McPlacement::CHECKERBOARD: {
        if (params.rows == 6 && params.cols == 6 && params.numMcs == 8)
            return defaultCheckerboardMcs6x6();
        // Generic staggered placement: take every k-th odd-parity cell
        // in row-major order.  Each pair of rows holds `cols` of them,
        // cols / 2 on the even row (odd x), the rest on the odd row.
        const std::uint64_t cells =
            std::uint64_t{params.rows} * params.cols / 2;
        const double stride =
            static_cast<double>(cells) / params.numMcs;
        const unsigned half = params.cols / 2;
        for (unsigned i = 0; i < params.numMcs; ++i) {
            const auto k = static_cast<std::uint64_t>(i * stride);
            const auto pair = static_cast<unsigned>(k / params.cols);
            const auto r = static_cast<unsigned>(k % params.cols);
            if (r < half)
                coords.emplace_back(2 * r + 1, 2 * pair);
            else
                coords.emplace_back(2 * (r - half), 2 * pair + 1);
        }
        break;
      }
      case McPlacement::CUSTOM:
        return params.customMcs;
    }
    return coords;
}

Topology::Topology(const TopologyParams &params) : params_(params)
{
    MeshNetworkParams mesh;
    mesh.topo = params;
    if (const std::string why = meshParamsError(mesh, false); !why.empty())
        tenoc_fatal("invalid topology: ", why);

    const unsigned n = numNodes();
    is_mc_.assign(n, false);
    is_half_.assign(n, false);
    if (params_.checkerboardRouters) {
        for (unsigned y = 0; y < params_.rows; ++y)
            for (unsigned x = 0; x < params_.cols; ++x)
                if (parity(x, y) == 1)
                    is_half_[nodeAt(x, y)] = true;
    }
    for (auto [x, y] : mcCoordinates(params_))
        is_mc_[nodeAt(x, y)] = true;

    for (NodeId i = 0; i < n; ++i) {
        if (is_mc_[i])
            mc_nodes_.push_back(i);
        else
            compute_nodes_.push_back(i);
    }
}

NodeId
Topology::nodeAt(unsigned x, unsigned y) const
{
    tenoc_assert(x < params_.cols && y < params_.rows,
                 "coordinates out of range: (", x, ",", y, ")");
    return y * params_.cols + x;
}

NodeId
Topology::neighbor(NodeId n, Direction d) const
{
    const unsigned x = xOf(n);
    const unsigned y = yOf(n);
    switch (d) {
      case DIR_WEST:
        return x == 0 ? INVALID_NODE : nodeAt(x - 1, y);
      case DIR_EAST:
        return x == params_.cols - 1 ? INVALID_NODE : nodeAt(x + 1, y);
      case DIR_NORTH:
        return y == 0 ? INVALID_NODE : nodeAt(x, y - 1);
      case DIR_SOUTH:
        return y == params_.rows - 1 ? INVALID_NODE : nodeAt(x, y + 1);
      default:
        return INVALID_NODE;
    }
}

std::string
renderTopology(const Topology &topo)
{
    std::string out;
    for (unsigned y = 0; y < topo.rows(); ++y) {
        for (unsigned x = 0; x < topo.cols(); ++x) {
            const NodeId n = topo.nodeAt(x, y);
            char c = topo.isMc(n) ? 'M' : 'C';
            if (topo.isHalfRouter(n))
                c = static_cast<char>(std::tolower(c));
            out += c;
            if (x + 1 < topo.cols())
                out += "--";
        }
        out += '\n';
        if (y + 1 < topo.rows()) {
            for (unsigned x = 0; x < topo.cols(); ++x) {
                out += '|';
                if (x + 1 < topo.cols())
                    out += "  ";
            }
            out += '\n';
        }
    }
    return out;
}

unsigned
Topology::hopDistance(NodeId a, NodeId b) const
{
    const unsigned dx = static_cast<unsigned>(std::abs(
        static_cast<int>(xOf(a)) - static_cast<int>(xOf(b))));
    const unsigned dy = static_cast<unsigned>(std::abs(
        static_cast<int>(yOf(a)) - static_cast<int>(yOf(b))));
    return dx + dy;
}

} // namespace tenoc
