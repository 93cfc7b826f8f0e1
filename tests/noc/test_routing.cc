/**
 * @file
 * Routing-algorithm properties: X-Y minimality and determinism, torus
 * shortest-direction and dateline classes, flattened-butterfly two-hop
 * paths, and table routing's big-router bias and escape layer.
 */

#include <gtest/gtest.h>

#include "heteronoc/layout.hh"
#include "noc/routing.hh"

namespace hnoc
{
namespace
{

struct RoutingFixture
{
    explicit RoutingFixture(NetworkConfig cfg_in)
        : cfg(std::move(cfg_in)), topo(Topology::create(cfg)),
          routing(RoutingAlgorithm::create(cfg, *topo))
    {}

    NetworkConfig cfg;
    std::unique_ptr<Topology> topo;
    std::unique_ptr<RoutingAlgorithm> routing;
};

TEST(XYRouting, PathsAreMinimalAndXFirst)
{
    RoutingFixture f{makeLayoutConfig(LayoutKind::Baseline)};
    for (NodeId src : {0, 7, 27, 56, 63}) {
        for (NodeId dst : {0, 7, 36, 56, 63}) {
            if (src == dst)
                continue;
            auto path = f.routing->path(src, dst);
            Coord cs = f.topo->routerCoord(src);
            Coord cd = f.topo->routerCoord(dst);
            EXPECT_EQ(static_cast<int>(path.size()),
                      manhattan(cs, cd) + 1)
                << src << "->" << dst;
            // X phase first: y must not change until x matches dst.
            for (const RouterId r : path) {
                Coord c = f.topo->routerCoord(r);
                if (c.x != cd.x) {
                    EXPECT_EQ(c.y, cs.y);
                }
            }
            EXPECT_EQ(path.front(), f.topo->routerOfNode(src));
            EXPECT_EQ(path.back(), f.topo->routerOfNode(dst));
        }
    }
}

TEST(XYRouting, AtDestinationReturnsLocalPort)
{
    RoutingFixture f{makeLayoutConfig(LayoutKind::Baseline)};
    Packet pkt;
    pkt.src = 5;
    pkt.dst = 42;
    EXPECT_EQ(f.routing->outputPort(42, pkt),
              f.topo->localPortOfNode(42));
}

TEST(TorusRouting, UsesWrapForShortcuts)
{
    NetworkConfig cfg = makeLayoutConfig(LayoutKind::Baseline);
    cfg.topology = TopologyType::Torus;
    RoutingFixture f{cfg};
    // 0 -> 7 on a torus: one hop west over the wrap, not 7 hops east.
    auto path = f.routing->path(0, 7);
    EXPECT_EQ(path.size(), 2u);
    EXPECT_EQ(path[1], 7);
}

TEST(TorusRouting, DatelineClassesPartitionVcs)
{
    NetworkConfig cfg = makeLayoutConfig(LayoutKind::Baseline);
    cfg.topology = TopologyType::Torus;
    RoutingFixture f{cfg};
    Packet pkt;
    pkt.src = 5;  // (5,0)
    pkt.dst = 1;  // (1,0): shortest is +x over the wrap (4 hops east)
    VcId lo;
    VcId hi;
    // Before the wrap (at x=6): lower class.
    f.routing->vcBounds(6, mesh_ports::EAST, pkt, 3, lo, hi);
    EXPECT_EQ(lo, 0);
    EXPECT_EQ(hi, 1);
    // After the wrap (at x=0): upper class.
    f.routing->vcBounds(0, mesh_ports::EAST, pkt, 3, lo, hi);
    EXPECT_EQ(lo, 2);
    EXPECT_EQ(hi, 2);
}

TEST(TorusRouting, PathNeverExceedsHalfRadix)
{
    NetworkConfig cfg = makeLayoutConfig(LayoutKind::Baseline);
    cfg.topology = TopologyType::Torus;
    RoutingFixture f{cfg};
    for (NodeId src = 0; src < 64; src += 7) {
        for (NodeId dst = 0; dst < 64; dst += 5) {
            if (src == dst)
                continue;
            auto path = f.routing->path(src, dst);
            EXPECT_LE(path.size(), 1u + 4 + 4) << src << "->" << dst;
        }
    }
}

TEST(FlatFlyRouting, AtMostTwoHops)
{
    NetworkConfig cfg;
    cfg.topology = TopologyType::FlattenedButterfly;
    cfg.radixX = 4;
    cfg.radixY = 4;
    cfg.concentration = 4;
    RoutingFixture f{cfg};
    for (NodeId src = 0; src < 64; src += 3) {
        for (NodeId dst = 0; dst < 64; dst += 5) {
            if (src == dst)
                continue;
            auto path = f.routing->path(src, dst);
            EXPECT_LE(path.size(), 3u) << src << "->" << dst;
        }
    }
}

class TableRoutingTest : public ::testing::Test
{
  protected:
    NetworkConfig
    tableConfig()
    {
        NetworkConfig cfg = makeLayoutConfig(LayoutKind::DiagonalBL);
        cfg.routing = RoutingMode::TableXY;
        cfg.tableRoutedNodes = {0, 7, 56, 63};
        return cfg;
    }
};

TEST_F(TableRoutingTest, NonTableTrafficUsesXY)
{
    RoutingFixture f{tableConfig()};
    auto path = f.routing->path(9, 18);
    // Plain X-Y path for non-large-core traffic.
    EXPECT_EQ(path.size(), 3u);
    EXPECT_EQ(path[1], 10);
}

TEST_F(TableRoutingTest, TablePathsReachAndPreferBigRouters)
{
    RoutingFixture f{tableConfig()};
    auto &table = static_cast<const TableXYRouting &>(*f.routing);
    EXPECT_TRUE(table.isTableNode(0));
    EXPECT_FALSE(table.isTableNode(9));

    auto mask = bigRouterMask(LayoutKind::DiagonalBL, 8);
    int table_big = 0;
    int table_len = 0;
    int xy_big = 0;
    int xy_len = 0;
    for (NodeId dst = 1; dst < 64; ++dst) {
        auto path = f.routing->path(0, dst);
        EXPECT_EQ(path.back(), f.topo->routerOfNode(dst));
        table_len += static_cast<int>(path.size());
        for (RouterId r : path)
            table_big += mask[static_cast<std::size_t>(r)] ? 1 : 0;

        auto xy = XYRouting(f.cfg, *f.topo).path(0, dst);
        xy_len += static_cast<int>(xy.size());
        for (RouterId r : xy)
            xy_big += mask[static_cast<std::size_t>(r)] ? 1 : 0;
    }
    double table_frac = static_cast<double>(table_big) / table_len;
    double xy_frac = static_cast<double>(xy_big) / xy_len;
    EXPECT_GT(table_frac, xy_frac)
        << "table routing should bias paths through big routers";
}

TEST_F(TableRoutingTest, EscapeConfinedToVcZero)
{
    RoutingFixture f{tableConfig()};
    Packet pkt;
    pkt.src = 0;
    pkt.dst = 55;
    pkt.tableRouted = true;
    VcId lo;
    VcId hi;
    f.routing->vcBounds(0, mesh_ports::EAST, pkt, 6, lo, hi);
    EXPECT_EQ(lo, 1); // VC 0 reserved for the escape layer
    EXPECT_EQ(hi, 5);
    EXPECT_TRUE(f.routing->hasEscape(pkt));

    pkt.escaped = true;
    f.routing->vcBounds(0, mesh_ports::EAST, pkt, 6, lo, hi);
    EXPECT_EQ(lo, 0);
    EXPECT_FALSE(f.routing->hasEscape(pkt));
}

} // namespace
} // namespace hnoc
