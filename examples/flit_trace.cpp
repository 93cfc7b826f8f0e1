/**
 * @file
 * Flit-level trace: follow one packet hop by hop through the
 * Diagonal+BL network (with background traffic), then print per-hop
 * residency statistics. Both come from the TraceObserver's packet
 * records (telemetry/trace.hh): each delivered packet carries the
 * arrive/depart cycle of its head flit at every router it crossed.
 * Demonstrates the observer API and the table-routing path shapes of
 * Fig 14(a).
 *
 *   ./examples/flit_trace [src=0] [dst=55]
 */

#include <cstdio>

#include "common/parse.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "heteronoc/layout.hh"
#include "noc/network.hh"
#include "telemetry/trace.hh"

using namespace hnoc;

int
main(int argc, char **argv)
{
    NodeId src = argc > 1 ? parseInt("src", argv[1]) : 0;
    NodeId dst = argc > 2 ? parseInt("dst", argv[2]) : 55;

    NetworkConfig cfg = makeLayoutConfig(LayoutKind::DiagonalBL);
    cfg.routing = RoutingMode::TableXY;
    cfg.tableRoutedNodes = {0, 7, 56, 63};

    Network net(cfg);
    TraceOptions opts;
    opts.flitLog = false; // packet records only
    TraceObserver obs(opts);
    net.setObserver(&obs);

    // Background load so the trace shows real contention.
    Rng rng(42);
    for (Cycle t = 0; t < 500; ++t) {
        for (NodeId n = 0; n < 64; ++n) {
            if (rng.uniform() < 0.02) {
                auto d = static_cast<NodeId>(rng.below(63));
                if (d >= n)
                    ++d;
                net.enqueuePacket(n, d, cfg.dataPacketFlits());
            }
        }
        net.step();
    }

    std::printf("tracing a data packet %d -> %d (table routing; big "
                "routers on the diagonals):\n", src, dst);
    PacketId watched = net.enqueuePacket(src, dst, cfg.dataPacketFlits())->id;
    net.run(500);

    std::vector<bool> big = bigRouterMask(LayoutKind::DiagonalBL, 8);
    RunningStat residency;
    bool delivered = false;
    for (const TraceObserver::PacketRecord &rec : obs.packets()) {
        for (const TraceObserver::HopRecord &hop : rec.hops) {
            residency.add(static_cast<double>(hop.depart - hop.arrive));
            if (rec.id != watched)
                continue;
            std::printf("  cycle %5llu  arrive router %2d (%s) port %d "
                        "vc %d\n",
                        static_cast<unsigned long long>(hop.arrive),
                        hop.router,
                        big[static_cast<std::size_t>(hop.router)]
                            ? "BIG  "
                            : "small",
                        hop.inPort, hop.vc);
            std::printf("  cycle %5llu  depart router %2d\n",
                        static_cast<unsigned long long>(hop.depart),
                        hop.router);
        }
        if (rec.id == watched) {
            delivered = true;
            std::printf("(delivered in %llu cycles)\n",
                        static_cast<unsigned long long>(rec.ejected -
                                                        rec.created));
        }
    }
    if (!delivered)
        std::printf("(not delivered within 500 cycles)\n");

    std::printf("\npacket hops: the expected table path was:");
    for (RouterId r : net.routing().path(src, dst))
        std::printf(" %d", r);
    std::printf("\n");

    std::printf("\nper-hop head-flit residency over all delivered "
                "packets: mean %.1f cycles, max %.0f\n",
                residency.mean(), residency.max());
    return 0;
}
