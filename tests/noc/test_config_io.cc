/**
 * @file
 * Config serialization round-trip tests.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <vector>

#include "common/parse.hh"
#include "heteronoc/layout.hh"
#include "noc/config_io.hh"
#include "noc/network.hh"
#include "noc/sim_control.hh"

namespace hnoc
{
namespace
{

void
expectConfigsEqual(const NetworkConfig &a, const NetworkConfig &b)
{
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.topology, b.topology);
    EXPECT_EQ(a.radixX, b.radixX);
    EXPECT_EQ(a.radixY, b.radixY);
    EXPECT_EQ(a.concentration, b.concentration);
    EXPECT_EQ(a.flitWidthBits, b.flitWidthBits);
    EXPECT_EQ(a.dataPacketBits, b.dataPacketBits);
    EXPECT_EQ(a.bufferDepth, b.bufferDepth);
    EXPECT_EQ(a.defaultVcs, b.defaultVcs);
    EXPECT_EQ(a.defaultWidthBits, b.defaultWidthBits);
    EXPECT_EQ(a.routerVcs, b.routerVcs);
    EXPECT_EQ(a.routerWidthBits, b.routerWidthBits);
    EXPECT_EQ(a.linkWidthMode, b.linkWidthMode);
    EXPECT_EQ(a.uniformLinkBits, b.uniformLinkBits);
    EXPECT_EQ(a.bandWideLinks, b.bandWideLinks);
    EXPECT_EQ(a.routing, b.routing);
    EXPECT_EQ(a.tableRoutedNodes, b.tableRoutedNodes);
    EXPECT_EQ(a.escapeThreshold, b.escapeThreshold);
    EXPECT_EQ(a.intraPacketPairing, b.intraPacketPairing);
    EXPECT_EQ(a.saPolicy, b.saPolicy);
    EXPECT_EQ(a.pipelineStages, b.pipelineStages);
    EXPECT_EQ(a.linkLatency, b.linkLatency);
    EXPECT_DOUBLE_EQ(a.clockGHz, b.clockGHz);
}

TEST(ConfigIo, RoundTripBaseline)
{
    NetworkConfig cfg = makeLayoutConfig(LayoutKind::Baseline);
    expectConfigsEqual(cfg, configFromString(configToString(cfg)));
}

TEST(ConfigIo, RoundTripHeterogeneous)
{
    NetworkConfig cfg = makeLayoutConfig(LayoutKind::DiagonalBL);
    cfg.routing = RoutingMode::TableXY;
    cfg.tableRoutedNodes = {0, 7, 56, 63};
    cfg.saPolicy = SaPolicy::OldestFirst;
    cfg.intraPacketPairing = false;
    expectConfigsEqual(cfg, configFromString(configToString(cfg)));
}

TEST(ConfigIo, RoundTripExoticModes)
{
    NetworkConfig cfg;
    cfg.name = "band";
    cfg.topology = TopologyType::Torus;
    cfg.flitWidthBits = 153;
    cfg.linkWidthMode = LinkWidthMode::CentralBand;
    cfg.bandWideLinks = 2;
    cfg.routing = RoutingMode::O1Turn;
    cfg.clockGHz = 1.5;
    expectConfigsEqual(cfg, configFromString(configToString(cfg)));
}

TEST(ConfigIo, FileRoundTrip)
{
    std::string path = "/tmp/hnoc_config_test.cfg";
    NetworkConfig cfg = makeLayoutConfig(LayoutKind::CenterBL);
    ASSERT_TRUE(saveConfig(cfg, path));
    expectConfigsEqual(cfg, loadConfig(path));
    std::remove(path.c_str());
}

TEST(ConfigIo, CommentsAndBlankLinesIgnored)
{
    NetworkConfig cfg =
        configFromString("# a comment\n\nname=test\nradix_x=4\n");
    EXPECT_EQ(cfg.name, "test");
    EXPECT_EQ(cfg.radixX, 4);
}

TEST(ConfigIo, UnknownKeyFatal)
{
    EXPECT_DEATH((void)configFromString("no_such_key=1\n"),
                 "unknown key");
}

void
expectSimOptionsEqual(const SimPointOptions &a, const SimPointOptions &b)
{
    EXPECT_DOUBLE_EQ(a.injectionRate, b.injectionRate);
    EXPECT_EQ(a.warmupCycles, b.warmupCycles);
    EXPECT_EQ(a.measureCycles, b.measureCycles);
    EXPECT_EQ(a.drainCycles, b.drainCycles);
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_DOUBLE_EQ(a.controlFraction, b.controlFraction);
    EXPECT_EQ(a.collectMetrics, b.collectMetrics);
    EXPECT_EQ(a.telemetryEpoch, b.telemetryEpoch);
    EXPECT_EQ(a.control.mode, b.control.mode);
    EXPECT_EQ(a.control.minWarmupCycles, b.control.minWarmupCycles);
    EXPECT_EQ(a.control.warmupEpochs, b.control.warmupEpochs);
    EXPECT_DOUBLE_EQ(a.control.warmupTolerance,
                     b.control.warmupTolerance);
    EXPECT_DOUBLE_EQ(a.control.ciTarget, b.control.ciTarget);
    EXPECT_DOUBLE_EQ(a.control.ciConfidence, b.control.ciConfidence);
    EXPECT_EQ(a.control.minBatches, b.control.minBatches);
    EXPECT_EQ(a.control.epochsPerBatch, b.control.epochsPerBatch);
    EXPECT_EQ(a.control.minMeasureCycles, b.control.minMeasureCycles);
    EXPECT_EQ(a.control.satEpochs, b.control.satEpochs);
    EXPECT_DOUBLE_EQ(a.control.satDepthPerNode,
                     b.control.satDepthPerNode);
    EXPECT_DOUBLE_EQ(a.control.satGrowthPerNode,
                     b.control.satGrowthPerNode);
}

TEST(ConfigIo, SimOptionsRoundTripDefaults)
{
    SimPointOptions opts;
    expectSimOptionsEqual(
        opts, simOptionsFromString(simOptionsToString(opts)));
}

TEST(ConfigIo, SimOptionsRoundTripAdaptive)
{
    SimPointOptions opts;
    opts.injectionRate = 0.0365;
    opts.warmupCycles = 1234;
    opts.measureCycles = 56789;
    opts.drainCycles = 99999;
    opts.seed = 20260706;
    opts.controlFraction = 0.125;
    opts.collectMetrics = true;
    opts.telemetryEpoch = 500;
    opts.control.mode = SimControlMode::Adaptive;
    opts.control.minWarmupCycles = 3000;
    opts.control.warmupEpochs = 5;
    opts.control.warmupTolerance = 0.0725;
    opts.control.ciTarget = 0.015;
    opts.control.ciConfidence = 0.99;
    opts.control.minBatches = 12;
    opts.control.epochsPerBatch = 2;
    opts.control.minMeasureCycles = 8000;
    opts.control.satEpochs = 6;
    opts.control.satDepthPerNode = 4.5;
    opts.control.satGrowthPerNode = 0.75;
    expectSimOptionsEqual(
        opts, simOptionsFromString(simOptionsToString(opts)));
}

TEST(ConfigIo, SimOptionsUnknownKeyFatal)
{
    EXPECT_DEATH((void)simOptionsFromString("no_such_key=1\n"),
                 "unknown key");
}

TEST(ConfigIo, MalformedNumbersFatal)
{
    // Trailing garbage, empty values and out-of-range values are
    // rejected with the key named, never an uncaught exception.
    EXPECT_DEATH((void)configFromString("radix_x=abc\n"),
                 "key 'radix_x': 'abc' is not an int");
    EXPECT_DEATH((void)configFromString("radix_x=8x\n"),
                 "key 'radix_x': '8x' is not an int");
    EXPECT_DEATH((void)configFromString("radix_x=\n"),
                 "key 'radix_x': '' is not an int");
    EXPECT_DEATH((void)configFromString("radix_x=99999999999\n"),
                 "key 'radix_x': '99999999999' is not an int");
    EXPECT_DEATH((void)configFromString("router_vcs=2,3,x\n"),
                 "key 'router_vcs': 'x' is not an int");
    EXPECT_DEATH((void)configFromString("clock_ghz=2.2GHz\n"),
                 "key 'clock_ghz': '2.2GHz' is not a finite number");
    EXPECT_DEATH((void)configFromString("clock_ghz=nan\n"),
                 "key 'clock_ghz': 'nan' is not a finite number");
    EXPECT_DEATH((void)configFromString("clock_ghz=1e999\n"),
                 "key 'clock_ghz': '1e999' is not a finite number");
}

TEST(ConfigIo, SimOptionsMalformedNumbersFatal)
{
    EXPECT_DEATH((void)simOptionsFromString("injection_rate=x\n"),
                 "key 'injection_rate': 'x' is not a finite number");
    EXPECT_DEATH((void)simOptionsFromString("injection_rate=0.1%\n"),
                 "key 'injection_rate': '0.1%' is not a finite number");
    EXPECT_DEATH((void)simOptionsFromString("seed=-1\n"),
                 "key 'seed': '-1' is not an unsigned 64-bit integer");
    EXPECT_DEATH(
        (void)simOptionsFromString(
            "warmup_cycles=18446744073709551616\n"),
        "key 'warmup_cycles': '18446744073709551616' is not an "
        "unsigned 64-bit integer");
    EXPECT_DEATH((void)simOptionsFromString("warmup_epochs=1.5\n"),
                 "key 'warmup_epochs': '1.5' is not an int");
}

TEST(ConfigIo, UnknownSaPolicyFatal)
{
    EXPECT_EQ(configFromString("sa_policy=oldest-first\n").saPolicy,
              SaPolicy::OldestFirst);
    EXPECT_EQ(configFromString("sa_policy=round-robin\n").saPolicy,
              SaPolicy::RoundRobin);
    EXPECT_DEATH((void)configFromString("sa_policy=oldest_first\n"),
                 "key 'sa_policy': 'oldest_first' is not round-robin or "
                 "oldest-first");
}

TEST(ConfigIo, StrictParseAcceptsBoundaryValues)
{
    // The strict parsers reject garbage, not valid extremes. The
    // loader also validates, so the int extremes it can still accept
    // are the ones a runnable config may hold.
    EXPECT_EQ(parseInt("radix_x", "2147483647"), 2147483647);
    EXPECT_EQ(parseInt("escape_threshold", "-2147483648"),
              -2147483647 - 1);
    NetworkConfig c = configFromString("radix_x=2\n"
                                       "radix_y=1\n"
                                       "escape_threshold=2147483647\n"
                                       "router_vcs=2,,3\n"
                                       "clock_ghz=2.5e0\n");
    EXPECT_EQ(c.escapeThreshold, 2147483647);
    EXPECT_EQ(c.routerVcs, (std::vector<int>{2, 3}));
    EXPECT_DOUBLE_EQ(c.clockGHz, 2.5);

    SimPointOptions o =
        simOptionsFromString("seed=18446744073709551615\n"
                             "injection_rate=.125\n"
                             "warmup_cycles=0\n");
    EXPECT_EQ(o.seed, 18446744073709551615ull);
    EXPECT_DOUBLE_EQ(o.injectionRate, 0.125);
    EXPECT_EQ(o.warmupCycles, 0u);
}

TEST(ConfigIo, BlockTilesKeyIsUnknown)
{
    // Cache-blocked stepping is gone; a config still carrying its key
    // is rejected rather than silently ignored.
    EXPECT_DEATH((void)configFromString("block_tiles=16\n"),
                 "unknown key 'block_tiles'");
}

TEST(ConfigIo, AlwaysStepKeyIsUnknown)
{
    // Network::step has one pass; the exhaustive-loop switch is gone.
    EXPECT_DEATH((void)configFromString("always_step=1\n"),
                 "unknown key 'always_step'");
}

// ------------------------------------------------------- validate --

/** One rejected value: the config key it must name, and the change
 *  to a valid baseline config that produces it. */
struct InvalidCase
{
    const char *name;
    const char *key;
    void (*mutate)(NetworkConfig &);
};

void
PrintTo(const InvalidCase &c, std::ostream *os)
{
    *os << c.name;
}

class ValidateRejects : public ::testing::TestWithParam<InvalidCase>
{};

TEST_P(ValidateRejects, NamesTheKeyInValidateLoaderAndNetwork)
{
    const InvalidCase &c = GetParam();
    NetworkConfig cfg = makeLayoutConfig(LayoutKind::Baseline);
    ASSERT_EQ(validate(cfg), "");
    c.mutate(cfg);
    std::string key = std::string("key '") + c.key + "'";
    EXPECT_NE(validate(cfg).find(key), std::string::npos)
        << "validate said: '" << validate(cfg) << "'";
    // The loader and the Network ctor reject it with the same message
    // instead of dying deeper in the build (power model, router core).
    std::string text = configToString(cfg);
    EXPECT_DEATH((void)configFromString(text), key);
    EXPECT_DEATH({ Network net(cfg); }, key);
}

INSTANTIATE_TEST_SUITE_P(
    EveryKey, ValidateRejects,
    ::testing::Values(
        InvalidCase{"radix_x", "radix_x",
                    [](NetworkConfig &c) { c.radixX = 0; }},
        InvalidCase{"radix_y", "radix_y",
                    [](NetworkConfig &c) { c.radixY = -2; }},
        InvalidCase{"huge_radix", "radix_x",
                    [](NetworkConfig &c) { c.radixX = 2147483647; }},
        InvalidCase{"concentration", "concentration",
                    [](NetworkConfig &c) { c.concentration = 0; }},
        InvalidCase{"flit_bits", "flit_bits",
                    [](NetworkConfig &c) { c.flitWidthBits = 0; }},
        InvalidCase{"data_packet_bits", "data_packet_bits",
                    [](NetworkConfig &c) { c.dataPacketBits = 0; }},
        InvalidCase{"buffer_depth", "buffer_depth",
                    [](NetworkConfig &c) { c.bufferDepth = 0; }},
        InvalidCase{"default_width_bits", "default_width_bits",
                    [](NetworkConfig &c) { c.defaultWidthBits = 0; }},
        InvalidCase{"default_vcs_0", "default_vcs",
                    [](NetworkConfig &c) { c.defaultVcs = 0; }},
        InvalidCase{"default_vcs_65", "default_vcs",
                    [](NetworkConfig &c) { c.defaultVcs = 65; }},
        InvalidCase{"router_vcs_0", "router_vcs",
                    [](NetworkConfig &c) {
                        c.routerVcs.assign(64, 3);
                        c.routerVcs[9] = 0;
                    }},
        InvalidCase{"router_vcs_65", "router_vcs",
                    [](NetworkConfig &c) {
                        c.routerVcs.assign(64, 3);
                        c.routerVcs[63] = 65;
                    }},
        InvalidCase{"router_vcs_size", "router_vcs",
                    [](NetworkConfig &c) { c.routerVcs.assign(10, 3); }},
        InvalidCase{"router_width_bits_0", "router_width_bits",
                    [](NetworkConfig &c) {
                        c.routerWidthBits.assign(64, 192);
                        c.routerWidthBits[0] = 0;
                    }},
        InvalidCase{"router_width_bits_size", "router_width_bits",
                    [](NetworkConfig &c) {
                        c.routerWidthBits.assign(3, 192);
                    }},
        InvalidCase{"escape_threshold", "escape_threshold",
                    [](NetworkConfig &c) { c.escapeThreshold = -5; }},
        InvalidCase{"table_nodes", "table_nodes",
                    [](NetworkConfig &c) {
                        c.routing = RoutingMode::TableXY;
                        c.tableRoutedNodes = {999};
                    }},
        InvalidCase{"table_xy_flatfly", "routing",
                    [](NetworkConfig &c) {
                        c.topology = TopologyType::FlattenedButterfly;
                        c.radixX = 4;
                        c.radixY = 4;
                        c.concentration = 4;
                        c.routing = RoutingMode::TableXY;
                    }},
        InvalidCase{"pipeline_stages", "pipeline_stages",
                    [](NetworkConfig &c) { c.pipelineStages = 0; }},
        InvalidCase{"link_latency", "link_latency",
                    [](NetworkConfig &c) { c.linkLatency = 0; }},
        InvalidCase{"o1turn_one_vc", "default_vcs",
                    [](NetworkConfig &c) {
                        c.routing = RoutingMode::O1Turn;
                        c.defaultVcs = 1;
                    }},
        InvalidCase{"torus_one_vc", "default_vcs",
                    [](NetworkConfig &c) {
                        c.topology = TopologyType::Torus;
                        c.defaultVcs = 1;
                    }},
        InvalidCase{"torus_router_one_vc", "router_vcs",
                    [](NetworkConfig &c) {
                        c.topology = TopologyType::Torus;
                        c.routerVcs.assign(64, 4);
                        c.routerVcs[20] = 1;
                    }}),
    [](const ::testing::TestParamInfo<InvalidCase> &info) {
        return std::string(info.param.name);
    });

TEST(ConfigIo, ValidateAcceptsLayoutsAndTwoVcSplits)
{
    for (LayoutKind kind : allLayouts())
        EXPECT_EQ(validate(makeLayoutConfig(kind)), "");
    NetworkConfig cfg = makeLayoutConfig(LayoutKind::Baseline);
    cfg.defaultVcs = 2;
    cfg.routing = RoutingMode::O1Turn;
    EXPECT_EQ(validate(cfg), "");
    cfg.topology = TopologyType::Torus;
    EXPECT_EQ(validate(cfg), "");
    // Table routing and the flattened butterfly split no VCs.
    cfg.defaultVcs = 1;
    cfg.topology = TopologyType::Mesh;
    cfg.routing = RoutingMode::TableXY;
    EXPECT_EQ(validate(cfg), "");
    cfg.routing = RoutingMode::O1Turn;
    cfg.topology = TopologyType::FlattenedButterfly;
    EXPECT_EQ(validate(cfg), "");
}

TEST(ConfigIo, LoadedConfigSimulates)
{
    NetworkConfig cfg = configFromString(
        configToString(makeLayoutConfig(LayoutKind::DiagonalBL)));
    Network net(cfg);
    net.enqueuePacket(0, 63, cfg.dataPacketFlits());
    net.run(300);
    EXPECT_EQ(net.packetsDelivered(), 1u);
}

} // namespace
} // namespace hnoc
