/**
 * @file
 * Consumer-pulled credits under bursty-then-idle traffic.
 *
 * Credits are pulled by the component that reads them (a router's SA
 * for that output port, an NI's stepInject), so a driver that goes
 * idle leaves its due credits queued in the channel. These tests park
 * the whole network with credits queued for thousands of cycles and
 * check that conservation holds every cycle, that no credit pipe
 * overflows (a fixed pipe overflow is fatal), and that the driver-side
 * accessors count the queued credits as held.
 */

#include <gtest/gtest.h>

#include <string>

#include "common/rng.hh"
#include "heteronoc/layout.hh"
#include "noc/network.hh"

namespace hnoc
{
namespace
{

struct CreditPullCase
{
    LayoutKind layout;
    int linkLatency;
};

class CreditPull : public ::testing::TestWithParam<CreditPullCase>
{};

/** Step once and audit credit conservation (auditEvery = 1). */
void
stepAudited(Network &net)
{
    net.step();
    std::string err;
    ASSERT_TRUE(net.auditCreditConservation(&err))
        << "cycle " << net.now() << ": " << err;
}

/** Credits due before now that output @p p's driver has not pulled:
 *  at the step boundary before cycle 0 nothing is due, so that query
 *  returns the bare counter. */
int
queuedOutputCredits(const Router &r, PortId p, VcId v, Cycle now)
{
    return r.outputCredits(p, v, now) - r.outputCredits(p, v, 0);
}

TEST_P(CreditPull, BurstyThenIdleConservesAndRefills)
{
    const CreditPullCase &c = GetParam();
    NetworkConfig cfg = makeLayoutConfig(c.layout);
    cfg.linkLatency = c.linkLatency;
    Network net(cfg);
    const int nodes = net.topology().numNodes();
    const int routers = net.topology().numRouters();

    Rng rng(41);
    for (int burst = 0; burst < 2; ++burst) {
        // A burst near saturation fills buffers and credit pipes ...
        for (Cycle t = 0; t < 300; ++t) {
            for (NodeId n = 0; n < nodes; ++n) {
                if (rng.uniform() < 0.06) {
                    auto dst = static_cast<NodeId>(rng.below(
                        static_cast<std::uint64_t>(nodes - 1)));
                    if (dst >= n)
                        ++dst;
                    net.enqueuePacket(n, dst, net.dataPacketFlits());
                }
            }
            stepAudited(net);
            if (HasFatalFailure())
                return;
        }
        // ... then the network drains and every driver goes idle with
        // the credits of its last flits still queued.
        for (Cycle t = 0; t < 5000; ++t) {
            stepAudited(net);
            if (HasFatalFailure())
                return;
        }
        ASSERT_EQ(net.packetsInFlight(), 0u);

        int queued = 0;
        for (RouterId r = 0; r < routers; ++r) {
            const Router &router = net.router(r);
            for (PortId p = 0; p < router.numPorts(); ++p) {
                for (VcId v = 0; v < router.outputVcCount(p); ++v) {
                    EXPECT_EQ(router.outputCredits(p, v, net.now()),
                              cfg.bufferDepth)
                        << "router " << r << " port " << p << " vc " << v;
                    queued += queuedOutputCredits(router, p, v, net.now());
                }
            }
        }
        // The scenario under test actually arose: idle drivers hold
        // credits they have not pulled.
        EXPECT_GT(queued, 0);
        for (NodeId n = 0; n < nodes; ++n) {
            RouterId r = net.topology().routerOfNode(n);
            for (VcId v = 0; v < net.router(r).vcsPerPort(); ++v)
                EXPECT_EQ(net.ni(n).injectionCredits(v, net.now()),
                          cfg.bufferDepth)
                    << "node " << n << " vc " << v;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, CreditPull,
    ::testing::Values(CreditPullCase{LayoutKind::Baseline, 1},
                      CreditPullCase{LayoutKind::DiagonalBL, 1},
                      // Longer credit pipes hold more queued credits
                      // per idle driver.
                      CreditPullCase{LayoutKind::Baseline, 3},
                      CreditPullCase{LayoutKind::DiagonalBL, 3}),
    [](const ::testing::TestParamInfo<CreditPullCase> &info) {
        const CreditPullCase &c = info.param;
        return std::string(c.layout == LayoutKind::Baseline ? "baseline"
                                                            : "diagbl") +
               (c.linkLatency == 1
                    ? ""
                    : "_link" + std::to_string(c.linkLatency));
    });

} // namespace
} // namespace hnoc
