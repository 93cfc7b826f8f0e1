/**
 * @file
 * Failure-injection and misuse tests: the simulator must fail loudly
 * (panic/fatal) on invariant violations and invalid configuration
 * instead of silently corrupting results.
 */

#include <gtest/gtest.h>

#include "heteronoc/layout.hh"
#include "noc/network.hh"
#include "sys/workloads.hh"

namespace hnoc
{
namespace
{

TEST(FailureModes, InvalidEndpointsPanic)
{
    Network net(makeLayoutConfig(LayoutKind::Baseline));
    EXPECT_DEATH(net.enqueuePacket(0, 64, 6), "invalid endpoints");
    EXPECT_DEATH(net.enqueuePacket(-1, 3, 6), "invalid endpoints");
    EXPECT_DEATH(net.enqueuePacket(5, 5, 6), "src == dst");
}

TEST(FailureModes, MisSizedOverridesFatal)
{
    NetworkConfig cfg = makeLayoutConfig(LayoutKind::Baseline);
    cfg.routerVcs.assign(10, 3); // wrong size for 64 routers
    EXPECT_DEATH({ Network net(cfg); }, "routerVcs size");

    NetworkConfig cfg2 = makeLayoutConfig(LayoutKind::Baseline);
    cfg2.routerWidthBits.assign(3, 192);
    EXPECT_DEATH({ Network net2(cfg2); }, "routerWidthBits size");
}

TEST(FailureModes, ZeroDelayChannelsFatal)
{
    // Pulled credits need every channel delay >= 1 cycle;
    // pipelineStages 0 makes the inter-router flit delay
    // pipelineStages - 1 + linkLatency zero.
    NetworkConfig cfg = makeLayoutConfig(LayoutKind::Baseline);
    cfg.pipelineStages = 0;
    EXPECT_DEATH({ Network net(cfg); }, "pipelineStages 0 < 1");

    NetworkConfig cfg2 = makeLayoutConfig(LayoutKind::Baseline);
    cfg2.linkLatency = 0;
    EXPECT_DEATH({ Network net(cfg2); }, "linkLatency 0 < 1");
}

TEST(FailureModes, NonPositiveSizesFatal)
{
    // Each of these is a divisor in the topology or flit math
    // (SIGFPE or NaN results if it reached the build).
    auto rejects = [](auto set, const char *msg) {
        NetworkConfig cfg = makeLayoutConfig(LayoutKind::Baseline);
        set(cfg);
        EXPECT_DEATH({ Network net(cfg); }, msg);
    };
    rejects([](NetworkConfig &c) { c.radixX = 0; }, "radixX 0 < 1");
    rejects([](NetworkConfig &c) { c.radixY = -2; }, "radixY -2 < 1");
    rejects([](NetworkConfig &c) { c.flitWidthBits = 0; },
            "flitWidthBits 0 < 1");
    rejects([](NetworkConfig &c) { c.concentration = 0; },
            "concentration 0 < 1");
    rejects([](NetworkConfig &c) { c.dataPacketBits = 0; },
            "dataPacketBits 0 < 1");
}

TEST(FailureModes, TorusWithOneVcFatal)
{
    NetworkConfig cfg = makeLayoutConfig(LayoutKind::Baseline);
    cfg.topology = TopologyType::Torus;
    cfg.defaultVcs = 1;
    EXPECT_DEATH({ Network net(cfg); }, "dateline");
}

TEST(FailureModes, O1TurnWithOneVcFatal)
{
    NetworkConfig cfg = makeLayoutConfig(LayoutKind::Baseline);
    cfg.routing = RoutingMode::O1Turn;
    cfg.defaultVcs = 1;
    EXPECT_DEATH({ Network net(cfg); }, "O1TURN");
}

TEST(FailureModes, UnknownWorkloadFatal)
{
    EXPECT_DEATH((void)workloadByName("no-such-benchmark"),
                 "unknown workload");
}

TEST(FailureModes, BadHeteroMaskFatal)
{
    std::vector<bool> mask(10, false); // wrong size for radix 8
    EXPECT_DEATH((void)makeHeteroConfig(mask, true, 8), "mask size");
}

TEST(FailureModes, InvalidTableNodeFatal)
{
    NetworkConfig cfg = makeLayoutConfig(LayoutKind::DiagonalBL);
    cfg.routing = RoutingMode::TableXY;
    cfg.tableRoutedNodes = {999};
    EXPECT_DEATH({ Network net(cfg); }, "invalid node");
}

TEST(FailureModes, O1TurnBalancesAndDrains)
{
    // Positive control for the new mode: both dimension orders in
    // play, everything delivered.
    NetworkConfig cfg = makeLayoutConfig(LayoutKind::Baseline);
    cfg.routing = RoutingMode::O1Turn;
    Network net(cfg);
    std::uint64_t injected = 0;
    for (int round = 0; round < 30; ++round) {
        for (NodeId n = 0; n < 64; ++n) {
            net.enqueuePacket(n, 63 - n, cfg.dataPacketFlits());
            ++injected;
        }
        net.run(60);
    }
    Cycle guard = 60000;
    while (net.packetsInFlight() > 0 && guard-- > 0)
        net.step();
    EXPECT_EQ(net.packetsDelivered(), injected);
}

TEST(FailureModes, O1TurnUsesBothOrders)
{
    NetworkConfig cfg = makeLayoutConfig(LayoutKind::Baseline);
    cfg.routing = RoutingMode::O1Turn;
    Network net(cfg);
    Packet probe;
    probe.src = 0;
    probe.dst = 63;
    probe.yxRouted = false;
    EXPECT_EQ(net.routing().outputPort(0, probe), mesh_ports::EAST);
    probe.yxRouted = true;
    EXPECT_EQ(net.routing().outputPort(0, probe), mesh_ports::SOUTH);

    VcId lo;
    VcId hi;
    net.routing().vcBounds(0, mesh_ports::EAST, probe, 3, lo, hi);
    EXPECT_EQ(lo, 2); // Y-X class = upper VCs
    probe.yxRouted = false;
    net.routing().vcBounds(0, mesh_ports::EAST, probe, 3, lo, hi);
    EXPECT_EQ(lo, 0);
    EXPECT_EQ(hi, 1);
}

} // namespace
} // namespace hnoc
