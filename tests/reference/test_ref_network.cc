/**
 * @file
 * Network against the plain reference network (ref_network.hh).
 *
 * Both networks get the same packet schedule and must agree exactly
 * on the per-packet delivery log (id, endpoints, created / injected /
 * ejected cycles, hops, in delivery order), on every router's activity
 * counts and occupancy sum, on every link's busy, paired and flit
 * counts, on the credits every driver holds at the end, and both must
 * pass their credit-conservation audit. The metrics JSON and the power
 * report are derived from these values.
 *
 * Two tiers, in the spirit of a basic/stress split:
 *  - the fast tier (tier-1): four topologies x UR/NN/Transpose x 3
 *    seeds, all seven layouts, a deep pipeline with long links, a
 *    saturated run, OldestFirst, O1TURN and TableXY with escapes;
 *  - the seeded random grid (DISABLED_, run in CI with
 *    --gtest_also_run_disabled_tests): topology x radix 1-12 x VCs
 *    1-64 x depth x widths x pipeline and link latency. Each draw that
 *    validate() accepts runs through both networks; each draw it
 *    rejects must die in the loader with a message naming a key.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "heteronoc/layout.hh"
#include "noc/config_io.hh"
#include "noc/network.hh"
#include "noc/traffic.hh"
#include "ref_network.hh"

namespace hnoc
{
namespace
{

/** One packet schedule: a synthetic pattern for `inject` cycles, then
 *  `drain` cycles without new packets. */
struct Traffic
{
    TrafficPattern pattern = TrafficPattern::UniformRandom;
    double rate = 0.03; ///< packets/node/cycle
    std::uint64_t seed = 1;
    Cycle inject = 1000;
    Cycle drain = 2000;
    double controlFraction = 0.3; ///< share of 1-flit packets
};

class DeliveryLog : public NetworkClient
{
  public:
    std::vector<ref::Delivery> log;

    void
    onPacketDelivered(Network &, Packet &p, Cycle) override
    {
        log.push_back({p.id, p.src, p.dst, p.createdAt, p.injectedAt,
                       p.ejectedAt, p.hops});
    }
};

std::string
describe(const ref::Delivery &d)
{
    std::ostringstream out;
    out << "pkt " << d.id << " " << d.src << "->" << d.dst << " created "
        << d.created << " injected " << d.injected << " ejected "
        << d.ejected << " hops " << d.hops;
    return out.str();
}

/** Width of the node grid the spatial patterns run on. */
int
nodeGridCols(int nodes)
{
    int cols = 1;
    while (cols * cols < nodes)
        ++cols;
    return cols;
}

/** Compare everything both networks expose; stop each category at its
 *  first difference so a broken run reports one line per category. */
void
expectSameState(const Network &net, const DeliveryLog &log,
                const ref::RefNetwork &ref)
{
    const std::vector<ref::Delivery> &want = ref.deliveries();
    EXPECT_EQ(log.log.size(), want.size()) << "packets delivered";
    for (std::size_t i = 0; i < std::min(log.log.size(), want.size());
         ++i) {
        if (!(log.log[i] == want[i])) {
            ADD_FAILURE() << "delivery " << i << ": network "
                          << describe(log.log[i]) << ", reference "
                          << describe(want[i]);
            break;
        }
    }
    EXPECT_EQ(net.flitsDelivered(), ref.flitsDelivered());
    EXPECT_EQ(net.packetsInFlight(), ref.packetsInFlight());

    for (RouterId r = 0; r < ref.numRouters(); ++r) {
        const RouterActivity &a = net.router(r).activity();
        const ref::Activity &b = ref.activity(r);
        bool same = a.bufferWrites == b.bufferWrites &&
                    a.bufferReads == b.bufferReads &&
                    a.xbarTraversals == b.xbarTraversals &&
                    a.arbOps == b.arbOps &&
                    a.linkBitTraversals == b.linkBitTraversals &&
                    net.router(r).occupancySum() == ref.occupancySum(r);
        if (!same) {
            ADD_FAILURE()
                << "router " << r << " (writes/reads/xbar/arb/link bits/"
                << "occupancy): network " << a.bufferWrites << "/"
                << a.bufferReads << "/" << a.xbarTraversals << "/"
                << a.arbOps << "/" << a.linkBitTraversals << "/"
                << net.router(r).occupancySum() << ", reference "
                << b.bufferWrites << "/" << b.bufferReads << "/"
                << b.xbarTraversals << "/" << b.arbOps << "/"
                << b.linkBitTraversals << "/" << ref.occupancySum(r);
            break;
        }
    }

    ASSERT_EQ(net.numChannels(), ref.numLinks());
    for (std::size_t i = 0; i < ref.numLinks(); ++i) {
        const Channel &c = net.channel(i);
        if (c.busyCycles() != ref.busyCycles(i) ||
            c.pairedCycles() != ref.pairedCycles(i) ||
            c.flitsSent() != ref.flitsSent(i)) {
            ADD_FAILURE() << "link " << i << " (busy/paired/flits): network "
                          << c.busyCycles() << "/" << c.pairedCycles() << "/"
                          << c.flitsSent() << ", reference "
                          << ref.busyCycles(i) << "/" << ref.pairedCycles(i)
                          << "/" << ref.flitsSent(i);
            break;
        }
    }

    bool credits_same = true;
    for (RouterId r = 0; r < ref.numRouters() && credits_same; ++r) {
        const Router &router = net.router(r);
        for (PortId p = 0; p < router.numPorts() && credits_same; ++p) {
            for (VcId v = 0; v < router.outputVcCount(p); ++v) {
                int got = router.outputCredits(p, v, net.now());
                int want_credits = ref.outputCredits(r, p, v);
                if (got != want_credits) {
                    ADD_FAILURE() << "router " << r << " port " << p
                                  << " vc " << v << " credits: network "
                                  << got << ", reference " << want_credits;
                    credits_same = false;
                    break;
                }
            }
        }
    }
    for (NodeId n = 0; n < net.topology().numNodes() && credits_same; ++n) {
        int vcs = net.router(net.topology().routerOfNode(n)).vcsPerPort();
        for (VcId v = 0; v < vcs; ++v) {
            if (net.ni(n).injectionCredits(v, net.now()) !=
                ref.injectionCredits(n, v)) {
                ADD_FAILURE() << "node " << n << " vc " << v
                              << " injection credits differ";
                credits_same = false;
                break;
            }
        }
    }

    std::string err;
    EXPECT_TRUE(net.auditCreditConservation(&err)) << "network: " << err;
    EXPECT_TRUE(ref.auditCredits(&err)) << "reference: " << err;
}

/** Run @p t through Network and the reference; compare at the end. */
void
expectMatchesReference(const NetworkConfig &cfg, const Traffic &t)
{
    Network net(cfg);
    DeliveryLog log;
    net.setClient(&log);
    ref::RefNetwork ref(cfg);

    int nodes = net.topology().numNodes();
    TrafficGenerator gen(t.pattern, nodes, nodeGridCols(nodes), t.seed);
    Rng sizes(t.seed ^ 0x51ce5ULL);
    for (Cycle c = 0; c < t.inject + t.drain; ++c) {
        for (NodeId n = 0; c < t.inject && nodes > 1 && n < nodes; ++n) {
            if (!gen.shouldInject(n, t.rate, c))
                continue;
            NodeId dst = gen.pickDest(n);
            if (dst == INVALID_NODE)
                continue;
            int flits =
                sizes.chance(t.controlFraction) ? 1 : cfg.dataPacketFlits();
            net.enqueuePacket(n, dst, flits);
            ref.enqueuePacket(n, dst, flits);
        }
        net.step();
        ref.step();
    }
    ASSERT_EQ(net.now(), ref.now());
    if (nodes > 1) {
        EXPECT_GT(ref.deliveries().size(), 0u) << "nothing delivered";
    }
    expectSameState(net, log, ref);
}

// ------------------------------------------------------- fast tier --

const std::uint64_t kSeeds[] = {17, 20260706, 421};

struct TopoCase
{
    std::string name;
    TopologyType topology;
    TrafficPattern pattern;
};

void
PrintTo(const TopoCase &c, std::ostream *os)
{
    *os << c.name;
}

NetworkConfig
topoConfig(TopologyType topology)
{
    if (topology == TopologyType::Mesh)
        return makeLayoutConfig(LayoutKind::Baseline); // 8x8 mesh
    NetworkConfig cfg;
    cfg.topology = topology;
    cfg.radixX = 4;
    cfg.radixY = 4;
    cfg.concentration = 4;
    return cfg;
}

class ReferenceTopology : public ::testing::TestWithParam<TopoCase>
{};

TEST_P(ReferenceTopology, MatchesAtThreeSeeds)
{
    const TopoCase &tc = GetParam();
    for (std::uint64_t seed : kSeeds) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Traffic t;
        t.pattern = tc.pattern;
        t.seed = seed;
        expectMatchesReference(topoConfig(tc.topology), t);
    }
}

std::vector<TopoCase>
topoCases()
{
    const std::pair<const char *, TopologyType> topos[] = {
        {"mesh", TopologyType::Mesh},
        {"torus", TopologyType::Torus},
        {"cmesh", TopologyType::ConcentratedMesh},
        {"flatfly", TopologyType::FlattenedButterfly}};
    const std::pair<const char *, TrafficPattern> patterns[] = {
        {"ur", TrafficPattern::UniformRandom},
        {"nn", TrafficPattern::NearestNeighbor},
        {"transpose", TrafficPattern::Transpose}};
    std::vector<TopoCase> cases;
    for (const auto &[tname, topo] : topos)
        for (const auto &[pname, pattern] : patterns)
            cases.push_back({std::string(tname) + "_" + pname, topo,
                             pattern});
    return cases;
}

INSTANTIATE_TEST_SUITE_P(
    FourTopologiesThreePatterns, ReferenceTopology,
    ::testing::ValuesIn(topoCases()),
    [](const ::testing::TestParamInfo<TopoCase> &info) {
        return info.param.name;
    });

class ReferenceLayout : public ::testing::TestWithParam<LayoutKind>
{};

TEST_P(ReferenceLayout, MatchesOnUniformAndTranspose)
{
    // The heterogeneous layouts mix 2/6-VC routers and 128/256 b
    // links: wide links combine flits of two VCs, two inputs or (with
    // pairing) one packet.
    for (TrafficPattern p :
         {TrafficPattern::UniformRandom, TrafficPattern::Transpose}) {
        SCOPED_TRACE(trafficPatternName(p));
        Traffic t;
        t.pattern = p;
        t.rate = 0.035;
        expectMatchesReference(makeLayoutConfig(GetParam()), t);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllLayouts, ReferenceLayout, ::testing::ValuesIn(allLayouts()),
    [](const ::testing::TestParamInfo<LayoutKind> &info) {
        std::string name = layoutName(info.param);
        for (char &ch : name)
            if (!std::isalnum(static_cast<unsigned char>(ch)))
                ch = '_';
        return name;
    });

TEST(ReferenceTiming, DeepPipelineAndLongLinks)
{
    // Longer channel delays stretch the window between a flit (or a
    // credit) leaving its driver and reaching its consumer.
    for (LayoutKind kind : {LayoutKind::Baseline, LayoutKind::DiagonalBL}) {
        SCOPED_TRACE(layoutName(kind));
        NetworkConfig cfg = makeLayoutConfig(kind);
        cfg.pipelineStages = 3;
        cfg.linkLatency = 2;
        expectMatchesReference(cfg, Traffic{});
    }
}

TEST(ReferenceTiming, SaturatedThenDrained)
{
    // Far past saturation every buffer fills and SA runs on credit
    // stalls; the drain then empties the network.
    for (LayoutKind kind : {LayoutKind::Baseline, LayoutKind::DiagonalBL}) {
        SCOPED_TRACE(layoutName(kind));
        Traffic t;
        t.rate = 0.12;
        t.inject = 500;
        t.drain = 6000;
        expectMatchesReference(makeLayoutConfig(kind), t);
    }
}

TEST(ReferencePolicy, OldestFirstSwitchAllocation)
{
    for (LayoutKind kind : {LayoutKind::Baseline, LayoutKind::DiagonalBL}) {
        SCOPED_TRACE(layoutName(kind));
        NetworkConfig cfg = makeLayoutConfig(kind);
        cfg.saPolicy = SaPolicy::OldestFirst;
        Traffic t;
        t.rate = 0.04;
        expectMatchesReference(cfg, t);
    }
}

TEST(ReferencePolicy, CrossVcCombiningWithoutPairing)
{
    NetworkConfig cfg = makeLayoutConfig(LayoutKind::DiagonalBL);
    cfg.intraPacketPairing = false;
    Traffic t;
    t.rate = 0.04;
    expectMatchesReference(cfg, t);
}

TEST(ReferencePolicy, O1TurnRouting)
{
    for (LayoutKind kind : {LayoutKind::Baseline, LayoutKind::DiagonalBL}) {
        SCOPED_TRACE(layoutName(kind));
        NetworkConfig cfg = makeLayoutConfig(kind);
        cfg.routing = RoutingMode::O1Turn;
        expectMatchesReference(cfg, Traffic{});
    }
}

TEST(ReferencePolicy, TableRoutingWithEscapes)
{
    // The four corner nodes are table-routed through the big routers;
    // a short escape threshold sends stalled heads to the X-Y layer.
    for (int threshold : {2, 16}) {
        SCOPED_TRACE("escape threshold " + std::to_string(threshold));
        NetworkConfig cfg = makeLayoutConfig(LayoutKind::DiagonalBL);
        cfg.routing = RoutingMode::TableXY;
        cfg.tableRoutedNodes = {0, 7, 56, 63};
        cfg.escapeThreshold = threshold;
        Traffic t;
        t.rate = 0.05;
        expectMatchesReference(cfg, t);
    }
}

// ----------------------------------------------------- random grid --

/** A config from the grid's space, which holds valid and invalid
 *  values of every key that validate() checks. */
NetworkConfig
drawConfig(Rng &rng)
{
    auto pick = [&](std::initializer_list<int> xs) {
        return *(xs.begin() + rng.below(xs.size()));
    };
    auto rare = [&] { return rng.chance(0.03); }; // an invalid value
    NetworkConfig c;
    c.name = "grid";
    const TopologyType topos[] = {
        TopologyType::Mesh, TopologyType::Torus,
        TopologyType::ConcentratedMesh, TopologyType::FlattenedButterfly};
    c.topology = topos[rng.below(4)];
    c.radixX = rare() ? 0 : 1 + static_cast<int>(rng.below(12));
    c.radixY = 1 + static_cast<int>(rng.below(12));
    c.concentration = c.topology == TopologyType::ConcentratedMesh
                          ? pick({2, 3, 4})
                          : (rng.chance(0.2) ? 2 : 1);
    int routers = c.numRouters();

    c.flitWidthBits = pick({32, 64, 128, 192});
    c.dataPacketBits = pick({256, 512, 1024});
    c.bufferDepth = rare() ? 0 : pick({1, 2, 3, 4, 5, 8});
    auto draw_vcs = [&] {
        return rng.chance(0.6) ? 1 + static_cast<int>(rng.below(6))
                               : 1 + static_cast<int>(rng.below(64));
    };
    // A per-router list gets at most one invalid entry.
    auto some_router = [&] {
        return static_cast<std::size_t>(
            rng.below(static_cast<std::uint64_t>(std::max(1, routers))));
    };
    c.defaultVcs = rare() ? pick({0, 65}) : draw_vcs();
    if (routers > 0 && rng.chance(0.3)) {
        c.routerVcs.resize(static_cast<std::size_t>(routers));
        for (int &v : c.routerVcs)
            v = draw_vcs();
        if (rare())
            c.routerVcs[some_router()] = pick({0, 65});
    }
    c.defaultWidthBits = rare() ? 0 : c.flitWidthBits * pick({1, 2, 3});
    if (routers > 0 && rng.chance(0.3)) {
        c.routerWidthBits.resize(static_cast<std::size_t>(routers));
        for (int &w : c.routerWidthBits)
            w = c.flitWidthBits * pick({1, 2});
        if (rare())
            c.routerWidthBits[some_router()] = 0;
    }
    const LinkWidthMode modes[] = {LinkWidthMode::Uniform,
                                   LinkWidthMode::EndpointMax,
                                   LinkWidthMode::CentralBand};
    c.linkWidthMode = modes[rng.below(3)];
    c.uniformLinkBits = c.flitWidthBits * pick({1, 2, 3});
    c.bandWideLinks = static_cast<int>(rng.below(
        static_cast<std::uint64_t>(std::max(c.radixX, c.radixY) + 1)));

    // Table routing off a mesh or cmesh is one of the invalid draws.
    if (rng.chance(0.5)) {
        const RoutingMode routings[] = {RoutingMode::YX, RoutingMode::O1Turn,
                                        RoutingMode::TableXY};
        c.routing = routings[rng.below(3)];
    }
    if (c.routing == RoutingMode::TableXY) {
        for (int k = 0; k < 4; ++k)
            c.tableRoutedNodes.push_back(static_cast<NodeId>(rng.below(
                static_cast<std::uint64_t>(std::max(1, c.numNodes())))));
        std::sort(c.tableRoutedNodes.begin(), c.tableRoutedNodes.end());
        c.tableRoutedNodes.erase(std::unique(c.tableRoutedNodes.begin(),
                                             c.tableRoutedNodes.end()),
                                 c.tableRoutedNodes.end());
    }
    c.escapeThreshold = rare() ? -1 : pick({1, 4, 16, 64});
    c.intraPacketPairing = rng.chance(0.8);
    c.saPolicy = rng.chance(0.3) ? SaPolicy::OldestFirst
                                 : SaPolicy::RoundRobin;
    c.pipelineStages = rare() ? 0 : pick({1, 2, 2, 3, 4});
    c.linkLatency = rare() ? 0 : pick({1, 1, 2, 3});
    return c;
}

/** The key that @p err names, when it is one configToString writes. */
bool
namesAKeyOf(const std::string &err, const NetworkConfig &cfg)
{
    auto open = err.find("key '");
    if (open == std::string::npos)
        return false;
    auto close = err.find('\'', open + 5);
    std::string key = err.substr(open + 5, close - open - 5);
    return ("\n" + configToString(cfg)).find("\n" + key + "=") !=
           std::string::npos;
}

TEST(ReferenceGrid, DISABLED_SeededRandomConfigs)
{
    Rng rng(20261019);
    int valid = 0;
    int invalid = 0;
    for (int draw = 0; draw < 800 && !HasFailure(); ++draw) {
        NetworkConfig cfg = drawConfig(rng);
        std::string text = configToString(cfg);
        SCOPED_TRACE("draw " + std::to_string(draw) + ":\n" + text);
        if (std::string err = validate(cfg); !err.empty()) {
            ++invalid;
            EXPECT_TRUE(namesAKeyOf(err, cfg)) << err;
            EXPECT_DEATH((void)configFromString(text), "key '");
            continue;
        }
        ++valid;
        Traffic t;
        t.pattern = rng.chance(0.5) ? TrafficPattern::UniformRandom
                                    : TrafficPattern::BitComplement;
        t.rate = 0.005 + 0.05 * rng.uniform();
        t.seed = rng.next();
        t.inject = 400;
        t.drain = 1600;
        expectMatchesReference(configFromString(text), t);
    }
    RecordProperty("valid_configs", valid);
    RecordProperty("invalid_configs", invalid);
    EXPECT_GT(valid, 500);
    EXPECT_GT(invalid, 50);
}

} // namespace
} // namespace hnoc
