/**
 * @file
 * NetworkObserver tests: event completeness and path agreement, and
 * the probe fan-out — every sink attached together sees exactly what
 * it sees attached alone, the simulation never notices, and detaching
 * every sink silences the hooks.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "heteronoc/layout.hh"
#include "noc/network.hh"
#include "noc/traffic.hh"

namespace hnoc
{
namespace
{

class CollectingObserver : public NetworkObserver
{
  public:
    void
    onPacketCreated(const Packet &, Cycle) override
    {
        ++created;
    }

    void
    onFlitArrive(RouterId router, PortId, const Flit &flit,
                 Cycle) override
    {
        ++arrivals;
        if (flit.isHead())
            headPath.push_back(router);
    }

    void
    onFlitDepart(RouterId, PortId, const Flit &, Cycle) override
    {
        ++departs;
    }

    void
    onPacketDelivered(const Packet &, Cycle) override
    {
        ++delivered;
    }

    int created = 0;
    int delivered = 0;
    std::uint64_t arrivals = 0;
    std::uint64_t departs = 0;
    std::vector<RouterId> headPath;
};

TEST(Observer, SeesFullPacketLifecycle)
{
    NetworkConfig cfg = makeLayoutConfig(LayoutKind::Baseline);
    Network net(cfg);
    CollectingObserver obs;
    net.setObserver(&obs);

    net.enqueuePacket(0, 63, 6);
    net.run(300);

    EXPECT_EQ(obs.created, 1);
    EXPECT_EQ(obs.delivered, 1);
    // 15 routers on the X-Y path, 6 flits each.
    EXPECT_EQ(obs.arrivals, 15u * 6u);
    EXPECT_EQ(obs.departs, 15u * 6u);
    // The head's router sequence equals the routing path.
    EXPECT_EQ(obs.headPath,
              std::vector<RouterId>(net.routing().path(0, 63)));
}

TEST(Observer, ArrivalsEqualDepartsAfterDrain)
{
    NetworkConfig cfg = makeLayoutConfig(LayoutKind::DiagonalBL);
    Network net(cfg);
    CollectingObserver obs;
    net.setObserver(&obs);
    for (NodeId n = 0; n < 64; ++n)
        net.enqueuePacket(n, 63 - n, cfg.dataPacketFlits());
    net.run(4000);
    EXPECT_EQ(net.packetsInFlight(), 0u);
    EXPECT_EQ(obs.arrivals, obs.departs);
    EXPECT_EQ(obs.created, 64);
    EXPECT_EQ(obs.delivered, 64);
}

TEST(Observer, ClearingStopsEvents)
{
    NetworkConfig cfg = makeLayoutConfig(LayoutKind::Baseline);
    Network net(cfg);
    CollectingObserver obs;
    net.setObserver(&obs);
    net.enqueuePacket(0, 1, 6);
    net.run(100);
    auto arrivals = obs.arrivals;
    net.setObserver(nullptr);
    net.enqueuePacket(0, 1, 6);
    net.run(100);
    EXPECT_EQ(obs.arrivals, arrivals);
}

// ------------------------------------------------- probe fan-out --

/** Records every delivered packet's timeline (the delivered-packet
 *  metrics a detached run must reproduce). */
class DeliveryLog : public NetworkClient
{
  public:
    void
    onPacketDelivered(Network &, Packet &pkt, Cycle now) override
    {
        packets.emplace_back(pkt.id, pkt.src, pkt.dst, pkt.createdAt,
                             pkt.injectedAt, now, pkt.hops);
    }

    std::vector<std::tuple<PacketId, NodeId, NodeId, Cycle, Cycle, Cycle,
                           int>>
        packets;
};

using RecorderEvent =
    std::tuple<Cycle, std::uint32_t, int, int, int, int, int>;

/** What each sink holds after one seeded run. */
struct SinkContents
{
    std::string registryJson;
    std::vector<RecorderEvent> recorderEvents;
    std::string blameJson;
    int created = 0;
    int delivered = 0;
    std::uint64_t arrivals = 0;
    std::uint64_t departs = 0;
    DeliveryLog log;
    std::uint64_t packetsDelivered = 0;
    std::uint64_t flitsDelivered = 0;
    Cycle lastDelivery = 0;
};

enum SinkBit : unsigned
{
    kRegistry = 1,
    kRecorder = 2,
    kBlame = 4,
    kObserver = 8,
};

/** Drive one seeded DiagonalBL network under UR load with the sinks
 *  in @p mask attached from cycle 0. */
SinkContents
runWithSinks(unsigned mask)
{
    NetworkConfig cfg = makeLayoutConfig(LayoutKind::DiagonalBL);
    Network net(cfg);
    SinkContents out;
    net.setClient(&out.log);

    auto reg = net.makeMetricRegistry(250);
    FlightRecorder recorder(1u << 14);
    auto blame = net.makeBlameCollector();
    CollectingObserver obs;
    if (mask & kRegistry)
        net.attachTelemetry(reg.get());
    if (mask & kRecorder)
        net.attachFlightRecorder(&recorder);
    if (mask & kBlame)
        net.attachBlame(blame.get());
    if (mask & kObserver)
        net.setObserver(&obs);

    int nodes = net.topology().numNodes();
    TrafficGenerator gen(TrafficPattern::UniformRandom, nodes,
                         net.topology().gridCols(), 5);
    for (Cycle c = 0; c < 1500; ++c) {
        for (NodeId n = 0; n < nodes; ++n) {
            if (gen.shouldInject(n, 0.04, net.now())) {
                NodeId dst = gen.pickDest(n);
                if (dst != INVALID_NODE)
                    net.enqueuePacket(n, dst, cfg.dataPacketFlits());
            }
        }
        net.step();
    }
    reg->finish();

    out.registryJson = reg->json();
    for (const FlightRecorder::Event &e : recorder.snapshot())
        out.recorderEvents.emplace_back(e.t, e.pkt, e.router, e.port, e.vc,
                                        e.kind, e.head);
    out.blameJson = blame->json();
    out.created = obs.created;
    out.delivered = obs.delivered;
    out.arrivals = obs.arrivals;
    out.departs = obs.departs;
    out.packetsDelivered = net.packetsDelivered();
    out.flitsDelivered = net.flitsDelivered();
    out.lastDelivery = net.lastDeliveryCycle();
    return out;
}

TEST(ProbeFanOut, EachSinkMatchesItsSoloRun)
{
    SinkContents all = runWithSinks(kRegistry | kRecorder | kBlame |
                                    kObserver);
    SinkContents none = runWithSinks(0);
    ASSERT_GT(none.packetsDelivered, 100u);

    // The simulation never notices the sinks.
    EXPECT_EQ(all.log.packets, none.log.packets);
    EXPECT_EQ(all.packetsDelivered, none.packetsDelivered);
    EXPECT_EQ(all.flitsDelivered, none.flitsDelivered);
    EXPECT_EQ(all.lastDelivery, none.lastDelivery);

    // Each sink holds the same contents whether attached with the
    // others or alone.
    SinkContents reg = runWithSinks(kRegistry);
    EXPECT_EQ(all.registryJson, reg.registryJson);
    EXPECT_EQ(reg.log.packets, none.log.packets);

    SinkContents rec = runWithSinks(kRecorder);
    EXPECT_EQ(all.recorderEvents, rec.recorderEvents);
    EXPECT_EQ(rec.log.packets, none.log.packets);

    SinkContents bl = runWithSinks(kBlame);
    EXPECT_EQ(all.blameJson, bl.blameJson);
    EXPECT_EQ(bl.log.packets, none.log.packets);

    SinkContents obs = runWithSinks(kObserver);
    EXPECT_EQ(all.created, obs.created);
    EXPECT_EQ(all.delivered, obs.delivered);
    EXPECT_EQ(all.arrivals, obs.arrivals);
    EXPECT_EQ(all.departs, obs.departs);
    EXPECT_EQ(obs.log.packets, none.log.packets);
    EXPECT_EQ(static_cast<std::uint64_t>(obs.delivered),
              none.packetsDelivered);

    // The runs did feed the sinks (the OFF build feeds the observer
    // only), and a detached sink stays empty.
    EXPECT_EQ(none.recorderEvents.size(), 0u);
    EXPECT_EQ(none.arrivals, 0u);
    if (kTelemetryEnabled) {
        EXPECT_NE(all.registryJson, none.registryJson);
        EXPECT_FALSE(all.recorderEvents.empty());
        EXPECT_NE(all.blameJson, none.blameJson);
    }
}

TEST(ProbeFanOut, DetachingEverySinkStopsEvents)
{
    NetworkConfig cfg = makeLayoutConfig(LayoutKind::Baseline);
    Network net(cfg);
    auto reg = net.makeMetricRegistry(100);
    FlightRecorder recorder(1u << 12);
    auto blame = net.makeBlameCollector();
    CollectingObserver obs;
    net.attachTelemetry(reg.get());
    net.attachFlightRecorder(&recorder);
    net.attachBlame(blame.get());
    net.setObserver(&obs);
    net.enqueuePacket(0, 9, 6);
    net.run(100);
    ASSERT_EQ(obs.delivered, 1);

    // Detach one by one; the observer keeps firing until it goes too.
    net.detachTelemetry();
    net.attachFlightRecorder(nullptr);
    net.attachBlame(nullptr);
    net.enqueuePacket(0, 9, 6);
    net.run(100);
    EXPECT_EQ(obs.delivered, 2);
    net.setObserver(nullptr);

    std::string reg_json = reg->json();
    std::uint64_t recorded = recorder.totalRecorded();
    std::uint64_t blamed = blame->packets();
    auto arrivals = obs.arrivals;
    net.enqueuePacket(0, 9, 6);
    net.run(100);
    EXPECT_EQ(net.packetsDelivered(), 3u);
    EXPECT_EQ(obs.created, 2);
    EXPECT_EQ(obs.delivered, 2);
    EXPECT_EQ(obs.arrivals, arrivals);
    EXPECT_EQ(reg->json(), reg_json);
    EXPECT_EQ(recorder.totalRecorded(), recorded);
    EXPECT_EQ(blame->packets(), blamed);
}

} // namespace
} // namespace hnoc
