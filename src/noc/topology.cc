/**
 * @file
 * Topology implementation.
 */

#include "noc/topology.hh"

#include <cctype>
#include <cmath>

#include "common/log.hh"

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

Topology::Topology(const TopologyParams &params) : params_(params)
{
    if (params_.rows < 2 || params_.cols < 2) {
        tenoc_fatal("invalid topology: a mesh needs at least 2x2 nodes"
                    " (got ", params_.rows, "x", params_.cols,
                    "); set rows/cols >= 2");
    }
    const unsigned n = numNodes();
    if (params_.numMcs >= n) {
        tenoc_fatal("invalid topology: numMcs=", params_.numMcs,
                    " must leave at least one compute node on a ",
                    params_.rows, "x", params_.cols, " mesh (", n,
                    " nodes total)");
    }
    is_mc_.assign(n, false);
    is_half_.assign(n, false);

    if (params_.checkerboardRouters) {
        for (unsigned y = 0; y < params_.rows; ++y)
            for (unsigned x = 0; x < params_.cols; ++x)
                if (parity(x, y) == 1)
                    is_half_[nodeAt(x, y)] = true;
    }

    placeMcs();

    for (NodeId i = 0; i < n; ++i) {
        if (is_mc_[i])
            mc_nodes_.push_back(i);
        else
            compute_nodes_.push_back(i);
    }
    validate();
}

NodeId
Topology::nodeAt(unsigned x, unsigned y) const
{
    tenoc_assert(x < params_.cols && y < params_.rows,
                 "coordinates out of range: (", x, ",", y, ")");
    return y * params_.cols + x;
}

void
Topology::placeMcs()
{
    auto mark = [&](unsigned x, unsigned y) {
        if (x >= params_.cols || y >= params_.rows) {
            tenoc_fatal("invalid topology: MC placement (", x, ",", y,
                        ") is off the ", params_.cols, "x",
                        params_.rows,
                        " mesh; coordinates must satisfy x < cols and"
                        " y < rows");
        }
        NodeId id = nodeAt(x, y);
        if (is_mc_[id]) {
            tenoc_fatal("invalid topology: duplicate MC placement at (",
                        x, ",", y, "); every MC needs a distinct node");
        }
        is_mc_[id] = true;
    };

    switch (params_.placement) {
      case McPlacement::TOP_BOTTOM: {
        // Half the MCs on the top row, half on the bottom, packed into
        // the central columns (Fig. 3).
        const unsigned per_row = params_.numMcs / 2;
        const unsigned rem = params_.numMcs % 2;
        if (per_row + rem > params_.cols) {
            tenoc_fatal("invalid topology: top/bottom placement fits at"
                        " most ", 2 * params_.cols, " MCs on a ",
                        params_.cols, "-column mesh (requested ",
                        params_.numMcs, ")");
        }
        const unsigned start_top = (params_.cols - (per_row + rem)) / 2;
        for (unsigned i = 0; i < per_row + rem; ++i)
            mark(start_top + i, 0);
        const unsigned start_bot = (params_.cols - per_row) / 2;
        for (unsigned i = 0; i < per_row; ++i)
            mark(start_bot + i, params_.rows - 1);
        break;
      }
      case McPlacement::CHECKERBOARD: {
        std::vector<std::pair<unsigned, unsigned>> coords;
        if (params_.rows == 6 && params_.cols == 6 &&
            params_.numMcs == 8) {
            coords = defaultCheckerboardMcs6x6();
        } else {
            // Generic staggered placement: walk odd-parity cells in a
            // diagonal-major order and take every k-th.
            std::vector<std::pair<unsigned, unsigned>> odd_cells;
            for (unsigned y = 0; y < params_.rows; ++y)
                for (unsigned x = 0; x < params_.cols; ++x)
                    if (parity(x, y) == 1)
                        odd_cells.emplace_back(x, y);
            if (params_.numMcs > odd_cells.size()) {
                tenoc_fatal("invalid topology: checkerboard placement"
                            " has only ", odd_cells.size(),
                            " half-router cells for ", params_.numMcs,
                            " MCs; reduce numMcs or grow the mesh");
            }
            const double stride =
                static_cast<double>(odd_cells.size()) / params_.numMcs;
            for (unsigned i = 0; i < params_.numMcs; ++i)
                coords.push_back(
                    odd_cells[static_cast<std::size_t>(i * stride)]);
        }
        for (auto [x, y] : coords)
            mark(x, y);
        break;
      }
      case McPlacement::CUSTOM: {
        if (params_.customMcs.size() != params_.numMcs) {
            tenoc_fatal("invalid topology: custom placement lists ",
                        params_.customMcs.size(),
                        " MC coordinates but numMcs=", params_.numMcs,
                        "; the two must match");
        }
        for (auto [x, y] : params_.customMcs)
            mark(x, y);
        break;
      }
    }
}

void
Topology::validate() const
{
    tenoc_assert(mc_nodes_.size() == params_.numMcs,
                 "MC placement produced wrong count");
    if (params_.checkerboardRouters) {
        // Sec. IV-A: MC (and L2 bank) nodes must sit at half-routers so
        // that no full-to-full route is ever required.
        for (NodeId mc : mc_nodes_) {
            if (!is_half_[mc]) {
                tenoc_fatal("MC node ", mc, " at (", xOf(mc), ",",
                            yOf(mc),
                            ") is not on a half-router cell; "
                            "checkerboard routing would be infeasible");
            }
        }
    }
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
