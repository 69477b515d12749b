#include "topology/mesh.hh"

#include <cmath>
#include <cstdlib>

#include "common/logging.hh"

namespace moentwine {

MeshTopology::MeshTopology(const MeshSpec &spec)
    : spec_(spec),
      rows_(spec.meshRows * spec.waferGridRows),
      cols_(spec.meshCols * spec.waferGridCols)
{
    MOE_ASSERT(spec.meshRows > 0 && spec.meshCols > 0,
               "mesh dimensions must be positive");
    MOE_ASSERT(spec.waferGridRows > 0 && spec.waferGridCols > 0,
               "wafer grid dimensions must be positive");

    // A link crosses a wafer boundary when the two endpoints fall in
    // different wafer tiles.
    auto crossesWafer = [&](int r0, int c0, int r1, int c1) {
        return (r0 / spec.meshRows != r1 / spec.meshRows) ||
               (c0 / spec.meshCols != c1 / spec.meshCols);
    };

    // Links (r0, c0) → (r1, c1) as direction @p there and the reverse
    // link as direction @p back.
    dirLinks_.assign(static_cast<std::size_t>(rows_ * cols_),
                     {-1, -1, -1, -1});
    auto connect = [&](int r0, int c0, int r1, int c1, Dir there,
                       Dir back) {
        const bool cross = crossesWafer(r0, c0, r1, c1);
        const double bw = cross ? spec.crossBandwidth : spec.linkBandwidth;
        const double lat = cross ? spec.crossLatency : spec.linkLatency;
        const DeviceId a = deviceAt(r0, c0);
        const DeviceId b = deviceAt(r1, c1);
        dirLinks_[static_cast<std::size_t>(a)][there] =
            addLink(a, b, bw, lat);
        dirLinks_[static_cast<std::size_t>(b)][back] =
            addLink(b, a, bw, lat);
    };

    for (int r = 0; r < rows_; ++r) {
        for (int c = 0; c < cols_; ++c) {
            if (c + 1 < cols_)
                connect(r, c, r, c + 1, kEast, kWest);
            if (r + 1 < rows_)
                connect(r, c, r + 1, c, kSouth, kNorth);
        }
    }
}

MeshTopology
MeshTopology::singleWafer(int n)
{
    MeshSpec spec;
    spec.meshRows = n;
    spec.meshCols = n;
    return MeshTopology(spec);
}

MeshTopology
MeshTopology::waferRow(int wafers, int n)
{
    MeshSpec spec;
    spec.meshRows = n;
    spec.meshCols = n;
    spec.waferGridRows = 1;
    spec.waferGridCols = wafers;
    return MeshTopology(spec);
}

LinkId
MeshTopology::nextHop(NodeId node, DeviceId dst) const
{
    // X first (move along the row, changing the column), then Y.
    const int col = node % cols_;
    const int goalCol = dst % cols_;
    Dir dir;
    if (col != goalCol) {
        dir = goalCol > col ? kEast : kWest;
    } else {
        const int row = node / cols_;
        const int goalRow = dst / cols_;
        if (row == goalRow)
            return -1;
        dir = goalRow > row ? kSouth : kNorth;
    }
    return dirLinks_[static_cast<std::size_t>(node)][dir];
}

std::string
MeshTopology::name() const
{
    std::string out;
    if (numWafers() > 1) {
        out += std::to_string(numWafers()) + "x(";
    }
    out += std::to_string(spec_.meshRows) + "x" +
           std::to_string(spec_.meshCols);
    if (numWafers() > 1)
        out += ")";
    out += " WSC";
    return out;
}

Coord
MeshTopology::coordOf(DeviceId d) const
{
    MOE_ASSERT(d >= 0 && d < numDevices(), "coordOf: bad device");
    return Coord{d / cols_, d % cols_};
}

DeviceId
MeshTopology::deviceAt(int row, int col) const
{
    MOE_ASSERT(row >= 0 && row < rows_ && col >= 0 && col < cols_,
               "deviceAt: coordinate out of mesh");
    return row * cols_ + col;
}

int
MeshTopology::waferOf(DeviceId d) const
{
    const Coord c = coordOf(d);
    const int wr = c.row / spec_.meshRows;
    const int wc = c.col / spec_.meshCols;
    return wr * spec_.waferGridCols + wc;
}

std::vector<DeviceId>
MeshTopology::waferDevices(int wafer) const
{
    MOE_ASSERT(wafer >= 0 && wafer < numWafers(), "bad wafer index");
    const int wr = wafer / spec_.waferGridCols;
    const int wc = wafer % spec_.waferGridCols;
    std::vector<DeviceId> out;
    out.reserve(static_cast<std::size_t>(devicesPerWafer()));
    for (int r = 0; r < spec_.meshRows; ++r)
        for (int c = 0; c < spec_.meshCols; ++c)
            out.push_back(deviceAt(wr * spec_.meshRows + r,
                                   wc * spec_.meshCols + c));
    return out;
}

int
MeshTopology::manhattan(DeviceId a, DeviceId b) const
{
    const Coord ca = coordOf(a);
    const Coord cb = coordOf(b);
    return std::abs(ca.row - cb.row) + std::abs(ca.col - cb.col);
}

bool
MeshTopology::isCrossWafer(LinkId l) const
{
    MOE_ASSERT(l >= 0 && static_cast<std::size_t>(l) < links_.size(),
               "bad link id");
    const Link &link = links_[static_cast<std::size_t>(l)];
    return waferOf(link.src) != waferOf(link.dst);
}

} // namespace moentwine
