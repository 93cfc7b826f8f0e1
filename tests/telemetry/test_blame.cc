/**
 * @file
 * Latency blame attribution tests. The load-bearing guarantees:
 *
 *  - blame is report-only: a network driven with a BlameCollector
 *    attached produces bit-identical simulation results (delivery
 *    counts AND the full telemetry JSON) to the same network driven
 *    without one, so goldens never depend on whether --blame was
 *    passed;
 *  - the accounting identity is EXACT: for every delivered packet,
 *    source-queueing + zero-load head path + per-cause stall cycles +
 *    zero-load serialization + link-serialization residual equals the
 *    measured created-to-ejected latency, on the mesh and on
 *    HeteroNoC, across seeds;
 *  - merge() is deterministic in input order, so a multi-seed sweep
 *    run on 1, 3, or 4 worker threads serializes to byte-identical
 *    blame JSON.
 */

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "common/job_pool.hh"
#include "heteronoc/layout.hh"
#include "noc/config_io.hh"
#include "noc/network.hh"
#include "noc/sim_harness.hh"
#include "noc/traffic.hh"
#include "telemetry/blame.hh"
#include "telemetry/metrics.hh"

namespace hnoc
{
namespace
{

/** Drive @p net with seeded UR traffic for @p cycles; with
 *  @p step_all, mark every component busy before each step. */
void
driveUniformRandom(Network &net, Cycle cycles, std::uint64_t seed = 11,
                   double rate = 0.02, bool step_all = false)
{
    const NetworkConfig &cfg = net.config();
    int nodes = net.topology().numNodes();
    TrafficGenerator gen(TrafficPattern::UniformRandom, nodes,
                         net.topology().gridCols(), seed);
    for (Cycle c = 0; c < cycles; ++c) {
        for (NodeId n = 0; n < nodes; ++n) {
            if (gen.shouldInject(n, rate, net.now())) {
                NodeId dst = gen.pickDest(n);
                if (dst != INVALID_NODE)
                    net.enqueuePacket(n, dst, cfg.dataPacketFlits());
            }
        }
        if (step_all)
            net.markAllBusy();
        net.step();
    }
}

// ------------------------------------------------------------- unit --

TEST(BlameCollector, CauseNamesAreStableSnakeCase)
{
    // The run-report schema and hnoc_inspect key on these.
    EXPECT_STREQ(blameCauseName(BlameCause::SourceQueueing),
                 "source_queueing");
    EXPECT_STREQ(blameCauseName(BlameCause::RoutePending),
                 "route_pending");
    EXPECT_STREQ(blameCauseName(BlameCause::VaConflictLost),
                 "va_conflict_lost");
    EXPECT_STREQ(blameCauseName(BlameCause::SaConflictLost),
                 "sa_conflict_lost");
    EXPECT_STREQ(blameCauseName(BlameCause::CreditStarved),
                 "credit_starved");
    EXPECT_STREQ(blameCauseName(BlameCause::EjectBackpressure),
                 "eject_backpressure");
    EXPECT_STREQ(blameCauseName(BlameCause::LinkSerialization),
                 "link_serialization");
}

TEST(BlameCollector, CommitDerivesIdentityTerms)
{
    BlameCollector::Dims dims;
    dims.routers = 4;
    dims.ports = 5;
    dims.gridCols = 2;
    BlameCollector bc(dims);
    bc.setNodeRouter(0, 0);
    bc.setNodeRouter(1, 3);

    // A hand-built packet: created 10, injected 14 (4 cyc queueing),
    // head ejects at 30, tail at 35; zero-load head path 12, minimal
    // serialization 3, so tail drag residual = (35-30) - 3 = 2; one
    // in-network VA stall cycle -> identity needs 35-10 = 25 =
    // 4 + 12 + 1 + 3 + 2 + route_pending(3).
    BlameLedger l;
    l.minHeadCycles = 12;
    l.minSerCycles = 3;
    l.headEjectAt = 30;
    l.charge(BlameCause::VaConflictLost);
    l.charge(BlameCause::RoutePending, 3);
    bc.commit(7, 0, 1, 10, 14, 35, l);

    EXPECT_EQ(bc.packets(), 1u);
    EXPECT_EQ(bc.identityViolations(), 0u);
    EXPECT_EQ(bc.totalLatency(), 25u);
    EXPECT_EQ(bc.totalCause(BlameCause::SourceQueueing), 4u);
    EXPECT_EQ(bc.totalCause(BlameCause::LinkSerialization), 2u);
    EXPECT_EQ(bc.totalCause(BlameCause::VaConflictLost), 1u);
    EXPECT_EQ(bc.totalCause(BlameCause::RoutePending), 3u);
    EXPECT_EQ(bc.totalMinHead(), 12u);
    EXPECT_EQ(bc.totalMinSer(), 3u);

    ASSERT_EQ(bc.worstPackets().size(), 1u);
    EXPECT_EQ(bc.worstPackets()[0].id, 7u);
    EXPECT_EQ(bc.worstPackets()[0].latency, 25u);
}

TEST(BlameCollector, CommitCountsIdentityViolations)
{
    BlameCollector::Dims dims;
    dims.routers = 1;
    dims.ports = 1;
    dims.gridCols = 1;
    BlameCollector bc(dims);
    bc.setNodeRouter(0, 0);

    // Ledger claims 10 zero-load head cycles but measured latency is
    // only 5 — the identity cannot hold.
    BlameLedger l;
    l.minHeadCycles = 10;
    l.headEjectAt = 5;
    bc.commit(1, 0, 0, 0, 0, 5, l);
    EXPECT_EQ(bc.identityViolations(), 1u);
}

TEST(BlameCollector, JsonCarriesSchema)
{
    BlameCollector::Dims dims;
    dims.routers = 4;
    dims.ports = 5;
    dims.gridCols = 2;
    BlameCollector bc(dims);
    bc.setNodeRouter(0, 0);
    BlameLedger l;
    l.minHeadCycles = 5;
    l.headEjectAt = 5;
    bc.commit(1, 0, 0, 0, 0, 5, l);

    std::string j = bc.json();
    EXPECT_NE(j.find("\"schema\":\"hnoc-latency-blame-v1\""),
              std::string::npos)
        << j;
    EXPECT_NE(j.find("\"percentiles\""), std::string::npos) << j;
    EXPECT_NE(j.find("\"heatmap\""), std::string::npos) << j;
    EXPECT_NE(j.find("\"worst_packets\""), std::string::npos) << j;
    EXPECT_NE(j.find("\"min_head_latency\""), std::string::npos) << j;
    EXPECT_NE(j.find("\"identity_violations\":0"), std::string::npos)
        << j;
}

// ------------------------------------- report-only (the golden pin) --

TEST(Blame, AttachedCollectorDoesNotPerturbSimulation)
{
    NetworkConfig cfg = makeLayoutConfig(LayoutKind::DiagonalBL);

    Network plain(cfg);
    auto plain_reg = plain.makeMetricRegistry(500);
    plain.attachTelemetry(plain_reg.get());
    driveUniformRandom(plain, 3000);
    plain_reg->finish();

    Network blamed(cfg);
    auto blame_reg = blamed.makeMetricRegistry(500);
    blamed.attachTelemetry(blame_reg.get());
    auto bc = blamed.makeBlameCollector();
    blamed.attachBlame(bc.get());
    driveUniformRandom(blamed, 3000);
    blame_reg->finish();

    EXPECT_GT(plain.packetsDelivered(), 0u);
    EXPECT_EQ(plain.packetsDelivered(), blamed.packetsDelivered());
    EXPECT_EQ(plain.flitsDelivered(), blamed.flitsDelivered());
    EXPECT_EQ(plain.now(), blamed.now());
    EXPECT_EQ(plain_reg->json(), blame_reg->json());

    if (kTelemetryEnabled) {
        EXPECT_EQ(bc->packets(), blamed.packetsDelivered());
        EXPECT_EQ(bc->identityViolations(), 0u);
        EXPECT_GT(bc->totalMinHead(), 0u);
    } else {
        // OFF build: the acquire/charge/commit hooks compile away.
        EXPECT_EQ(bc->packets(), 0u);
    }
}

/** Records every delivery (endpoints and cycles, in order). */
class DeliveryLog : public NetworkClient
{
  public:
    void
    onPacketDelivered(Network &, Packet &p, Cycle now) override
    {
        log.push_back({p.id, static_cast<std::uint64_t>(p.src),
                       static_cast<std::uint64_t>(p.dst), p.createdAt,
                       p.injectedAt, now, static_cast<std::uint64_t>(p.hops)});
    }

    std::vector<std::array<std::uint64_t, 7>> log;
};

TEST(Blame, MarkAllBusyLeavesTelemetryUnchanged)
{
    // Skipping idle components must be invisible to telemetry: a zero
    // occupancy sample and the blame pass on an idle router are no-ops
    // (DESIGN.md §6a). Stepping every router and NI every cycle
    // (markAllBusy before each step, the scheduler benchmarks'
    // exhaustive baseline) must give the same registry, blame ledger
    // totals and delivery log as the active-set run.
    NetworkConfig torus;
    torus.topology = TopologyType::Torus;
    torus.radixX = 4;
    torus.radixY = 4;
    for (const NetworkConfig &cfg :
         {makeLayoutConfig(LayoutKind::DiagonalBL), torus}) {
        SCOPED_TRACE(topologyName(cfg.topology));
        std::string metrics[2], blame[2];
        DeliveryLog logs[2];
        for (int all = 0; all < 2; ++all) {
            Network net(cfg);
            net.setClient(&logs[all]);
            auto reg = net.makeMetricRegistry(500);
            net.attachTelemetry(reg.get());
            auto bc = net.makeBlameCollector();
            net.attachBlame(bc.get());
            driveUniformRandom(net, 3000, 13, 0.04, all == 1);
            driveUniformRandom(net, 3000, 13, 0.0, all == 1); // drain
            EXPECT_EQ(net.packetsInFlight(), 0u);
            net.detachTelemetry();
            metrics[all] = reg->json();
            blame[all] = bc->json();
        }
        EXPECT_GT(logs[0].log.size(), 0u);
        EXPECT_EQ(logs[0].log, logs[1].log);
        EXPECT_EQ(metrics[0], metrics[1]);
        EXPECT_EQ(blame[0], blame[1]);
    }
}

// ------------------------------------------- exact accounting identity --

/** Checks the per-packet identity from the delivery callback, where
 *  the finished ledger is still attached (commit runs just after). */
class IdentityCheckClient : public NetworkClient
{
  public:
    void
    onPacketDelivered(Network &net, Packet &pkt, Cycle now) override
    {
        (void)net;
        ++delivered;
        if (!kTelemetryEnabled)
            return;
        ASSERT_NE(pkt.blame, nullptr);
        const BlameLedger &l = *pkt.blame;
        ASSERT_NE(l.headEjectAt, CYCLE_NEVER);
        ASSERT_GE(pkt.ejectedAt, l.headEjectAt);
        ASSERT_EQ(pkt.ejectedAt, now);
        std::uint64_t tail = pkt.ejectedAt - l.headEjectAt;
        ASSERT_GE(tail, l.minSerCycles)
            << "packet " << pkt.id << " beat the serialization bound";
        std::uint64_t sum = (pkt.injectedAt - pkt.createdAt) +
                            l.minHeadCycles + l.minSerCycles +
                            (tail - l.minSerCycles);
        for (std::uint64_t c : l.cycles)
            sum += c;
        ASSERT_EQ(sum, pkt.ejectedAt - pkt.createdAt)
            << "blame identity broken for packet " << pkt.id << " ("
            << pkt.src << " -> " << pkt.dst << ")";
    }

    std::uint64_t delivered = 0;
};

TEST(Blame, AccountingIdentityExactOnMeshAndHeteroAcrossSeeds)
{
    // High enough load to exercise every stall cause, on both the
    // baseline mesh and the heterogeneous layout, across 3 seeds.
    const LayoutKind kinds[] = {LayoutKind::Baseline,
                                LayoutKind::DiagonalBL};
    const std::uint64_t seeds[] = {1, 2, 3};
    for (LayoutKind kind : kinds) {
        for (std::uint64_t seed : seeds) {
            NetworkConfig cfg = makeLayoutConfig(kind);
            Network net(cfg);
            IdentityCheckClient client;
            net.setClient(&client);
            auto bc = net.makeBlameCollector();
            net.attachBlame(bc.get());
            driveUniformRandom(net, 4000, seed, 0.08);
            EXPECT_GT(client.delivered, 0u);
            EXPECT_EQ(bc->identityViolations(), 0u)
                << layoutName(kind) << " seed " << seed;
            if (kTelemetryEnabled) {
                EXPECT_EQ(bc->packets(), client.delivered);
                // The per-cause totals plus min terms reconstruct the
                // total measured latency exactly.
                std::uint64_t sum =
                    bc->totalMinHead() + bc->totalMinSer();
                for (int c = 0; c < kNumBlameCauses; ++c)
                    sum += bc->totalCause(static_cast<BlameCause>(c));
                EXPECT_EQ(sum, bc->totalLatency())
                    << layoutName(kind) << " seed " << seed;
            }
        }
    }
}

TEST(Blame, SwitchingCollectorsReturnsLiveLedgers)
{
    // Packets still in flight when a collector is detached or swapped
    // hold ledgers from its pool. They go back to that pool at the
    // switch, so the pool is whole afterwards and a later collector
    // never commits or releases a ledger it does not own (under ASan,
    // releasing into B a ledger of a destroyed A is a use after free).
    if (!kTelemetryEnabled)
        GTEST_SKIP() << "blame compiles out under HNOC_TELEMETRY=OFF";
    Network net(makeLayoutConfig(LayoutKind::DiagonalBL));
    auto a = net.makeBlameCollector();
    net.attachBlame(a.get());
    driveUniformRandom(net, 400, 5, 0.05);
    ASSERT_GT(net.packetsInFlight(), 0u);
    EXPECT_GT(a->ledgersOut(), 0u);
    net.attachBlame(nullptr);
    EXPECT_EQ(a->ledgersOut(), 0u);

    // Re-arm A mid-run, then swap in B and destroy A with packets of
    // A's ledgers still live.
    net.attachBlame(a.get());
    driveUniformRandom(net, 400, 6, 0.05);
    ASSERT_GT(net.packetsInFlight(), 0u);
    auto b = net.makeBlameCollector();
    net.attachBlame(b.get());
    EXPECT_EQ(a->ledgersOut(), 0u);
    a.reset();
    driveUniformRandom(net, 200, 7, 0.05);
    net.run(3000); // drain
    EXPECT_EQ(net.packetsInFlight(), 0u);
    EXPECT_EQ(b->ledgersOut(), 0u);
    EXPECT_GT(b->packets(), 0u);
    EXPECT_EQ(b->identityViolations(), 0u);
}

// ------------------------------------------------ merge determinism --

TEST(Blame, MergedJsonIsThreadCountInvariant)
{
    // A 6-point multi-seed batch on HeteroNoC, run under pools of 1,
    // 3 and 4 workers: the merged blame JSON must be byte-identical.
    std::vector<BatchPoint> points;
    for (std::uint64_t i = 0; i < 6; ++i) {
        BatchPoint p;
        p.config = makeLayoutConfig(LayoutKind::DiagonalBL);
        p.opts.injectionRate = 0.05;
        p.opts.warmupCycles = 200;
        p.opts.measureCycles = 800;
        p.opts.drainCycles = 2000;
        p.opts.seed = derivePointSeed(99, i);
        p.opts.collectBlame = true;
        points.push_back(p);
    }

    std::array<std::string, 3> merged_json;
    const int pool_sizes[] = {1, 3, 4};
    for (std::size_t k = 0; k < 3; ++k) {
        JobPool pool(pool_sizes[k]);
        std::vector<SimPointResult> results = runBatch(points, &pool);
        ASSERT_EQ(results.size(), points.size());
        auto merged = mergeBlame(results);
        if (kTelemetryEnabled) {
            ASSERT_NE(merged, nullptr);
            merged_json[k] = merged->json();
            EXPECT_GT(merged->packets(), 0u);
            EXPECT_EQ(merged->identityViolations(), 0u);
        } else {
            // OFF build: collectBlame is a no-op and no point carries
            // a collector; the comparison below is trivially equal.
            EXPECT_EQ(merged, nullptr);
        }
    }
    EXPECT_EQ(merged_json[0], merged_json[1]);
    EXPECT_EQ(merged_json[0], merged_json[2]);
}

} // namespace
} // namespace hnoc
