#include "noc/config_io.hh"

#include <algorithm>
#include <climits>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/logging.hh"
#include "common/parse.hh"

namespace hnoc
{

const char *
topologyName(TopologyType t)
{
    switch (t) {
      case TopologyType::Mesh:
        return "mesh";
      case TopologyType::Torus:
        return "torus";
      case TopologyType::ConcentratedMesh:
        return "cmesh";
      case TopologyType::FlattenedButterfly:
        return "flatfly";
    }
    return "mesh";
}

namespace
{

/** Largest topology validate() admits (keeps node ids in range). */
constexpr int kMaxNodes = 1 << 20;
/** Width of the router core's downstream VC set (one word). */
constexpr int kMaxVcs = 64;

/** One integer key of the file format, the field it sets and the
 *  range validate() admits. The floors cover the sizes the topology,
 *  flit math and power model divide by, the escape wait, and the
 *  channel delays: pulled credits (DESIGN.md §6i) need nothing sent
 *  at cycle t to be due at t. */
struct IntKey
{
    const char *key;
    const char *name; ///< the field's name, for messages
    int NetworkConfig::*field;
    int min;
    int max;
};

constexpr IntKey kIntKeys[] = {
    {"radix_x", "radixX", &NetworkConfig::radixX, 1, INT_MAX},
    {"radix_y", "radixY", &NetworkConfig::radixY, 1, INT_MAX},
    {"concentration", "concentration", &NetworkConfig::concentration, 1,
     INT_MAX},
    {"flit_bits", "flitWidthBits", &NetworkConfig::flitWidthBits, 1,
     INT_MAX},
    {"data_packet_bits", "dataPacketBits", &NetworkConfig::dataPacketBits,
     1, INT_MAX},
    {"buffer_depth", "bufferDepth", &NetworkConfig::bufferDepth, 1,
     INT_MAX},
    {"default_vcs", "defaultVcs", &NetworkConfig::defaultVcs, 1, kMaxVcs},
    {"default_width_bits", "defaultWidthBits",
     &NetworkConfig::defaultWidthBits, 1, INT_MAX},
    {"uniform_link_bits", "uniformLinkBits",
     &NetworkConfig::uniformLinkBits, INT_MIN, INT_MAX},
    {"band_wide_links", "bandWideLinks", &NetworkConfig::bandWideLinks,
     INT_MIN, INT_MAX},
    {"escape_threshold", "escapeThreshold",
     &NetworkConfig::escapeThreshold, 0, INT_MAX},
    {"pipeline_stages", "pipelineStages", &NetworkConfig::pipelineStages,
     1, INT_MAX},
    {"link_latency", "linkLatency", &NetworkConfig::linkLatency, 1,
     INT_MAX},
};

TopologyType
topologyFromName(const std::string &s)
{
    if (s == "mesh")
        return TopologyType::Mesh;
    if (s == "torus")
        return TopologyType::Torus;
    if (s == "cmesh")
        return TopologyType::ConcentratedMesh;
    if (s == "flatfly")
        return TopologyType::FlattenedButterfly;
    fatal("config: unknown topology '%s'", s.c_str());
}

const char *
linkModeName(LinkWidthMode m)
{
    switch (m) {
      case LinkWidthMode::Uniform:
        return "uniform";
      case LinkWidthMode::EndpointMax:
        return "endpoint-max";
      case LinkWidthMode::CentralBand:
        return "central-band";
    }
    return "uniform";
}

LinkWidthMode
linkModeFromName(const std::string &s)
{
    if (s == "uniform")
        return LinkWidthMode::Uniform;
    if (s == "endpoint-max")
        return LinkWidthMode::EndpointMax;
    if (s == "central-band")
        return LinkWidthMode::CentralBand;
    fatal("config: unknown link mode '%s'", s.c_str());
}

const char *
routingName(RoutingMode m)
{
    switch (m) {
      case RoutingMode::XY:
        return "xy";
      case RoutingMode::YX:
        return "yx";
      case RoutingMode::O1Turn:
        return "o1turn";
      case RoutingMode::TableXY:
        return "table-xy";
    }
    return "xy";
}

RoutingMode
routingFromName(const std::string &s)
{
    if (s == "xy")
        return RoutingMode::XY;
    if (s == "yx")
        return RoutingMode::YX;
    if (s == "o1turn")
        return RoutingMode::O1Turn;
    if (s == "table-xy")
        return RoutingMode::TableXY;
    fatal("config: unknown routing mode '%s'", s.c_str());
}

template <typename T>
std::string
joinInts(const std::vector<T> &v)
{
    std::string out;
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (i)
            out += ',';
        out += std::to_string(v[i]);
    }
    return out;
}

std::vector<int>
splitInts(const std::string &what, const std::string &s)
{
    std::vector<int> out;
    std::stringstream in(s);
    std::string item;
    while (std::getline(in, item, ','))
        if (!item.empty())
            out.push_back(parseInt(what, item));
    return out;
}

SaPolicy
saPolicyFromName(const std::string &key, const std::string &s)
{
    if (s == "round-robin")
        return SaPolicy::RoundRobin;
    if (s == "oldest-first")
        return SaPolicy::OldestFirst;
    fatal("config: key '%s': '%s' is not round-robin or oldest-first",
          key.c_str(), s.c_str());
}

} // namespace

std::string
validate(const NetworkConfig &c)
{
    char msg[160];
    auto reject = [&](const char *key, const char *fmt, auto... args) {
        int n = std::snprintf(msg, sizeof(msg), "key '%s': ", key);
        std::snprintf(msg + n, sizeof(msg) - static_cast<std::size_t>(n),
                      fmt, args...);
        return std::string(msg);
    };

    for (const IntKey &k : kIntKeys) {
        if (c.*k.field < k.min)
            return reject(k.key, "%s %d < %d", k.name, c.*k.field, k.min);
        if (c.*k.field > k.max)
            return reject(k.key, "%s %d > %d", k.name, c.*k.field, k.max);
    }
    if (static_cast<double>(c.radixX) * c.radixY * c.concentration >
        kMaxNodes)
        return reject("radix_x", "radixX x radixY x concentration > %d "
                                 "nodes", kMaxNodes);

    // VC counts fit the router core's one-word downstream VC set; a
    // per-router list has one entry per router.
    const struct
    {
        const char *key;
        const char *name;
        const std::vector<int> &entries;
        int max;
    } lists[] = {{"router_vcs", "routerVcs", c.routerVcs, kMaxVcs},
                 {"router_width_bits", "routerWidthBits",
                  c.routerWidthBits, INT_MAX}};
    for (const auto &l : lists) {
        if (!l.entries.empty() &&
            static_cast<int>(l.entries.size()) != c.numRouters())
            return reject(l.key, "%s size %zu != router count %d", l.name,
                          l.entries.size(), c.numRouters());
        for (int v : l.entries)
            if (v < 1 || v > l.max)
                return reject(l.key, "%s entry %d outside [1, %d]", l.name,
                              v, l.max);
    }
    for (NodeId n : c.tableRoutedNodes)
        if (n < 0 || n >= c.numNodes())
            return reject("table_nodes",
                          "tableRoutedNodes contains invalid node %d", n);

    // Table routing falls back to mesh X-Y ports; torus dateline
    // classes and O1TURN's two dimension orders each split the VCs in
    // two (RoutingAlgorithm::create picks which routing runs).
    bool grid = c.topology == TopologyType::Mesh ||
                c.topology == TopologyType::ConcentratedMesh;
    if (c.routing == RoutingMode::TableXY && !grid)
        return reject("routing", "table-xy needs a mesh or cmesh, not %s",
                      topologyName(c.topology));
    bool split = c.routing != RoutingMode::TableXY &&
                 (c.topology == TopologyType::Torus ||
                  (grid && c.routing == RoutingMode::O1Turn));
    int min_vcs = c.defaultVcs;
    for (int v : c.routerVcs)
        min_vcs = std::min(min_vcs, v);
    if (split && min_vcs < 2)
        return reject(c.defaultVcs < 2 ? "default_vcs" : "router_vcs",
                      "%s requires >= 2 VCs per port",
                      c.topology == TopologyType::Torus
                          ? "torus dateline routing"
                          : "O1TURN");
    return {};
}

std::string
configToString(const NetworkConfig &c)
{
    std::ostringstream out;
    out << "name=" << c.name << '\n';
    out << "topology=" << topologyName(c.topology) << '\n';
    for (const IntKey &k : kIntKeys)
        out << k.key << '=' << c.*k.field << '\n';
    if (!c.routerVcs.empty())
        out << "router_vcs=" << joinInts(c.routerVcs) << '\n';
    if (!c.routerWidthBits.empty())
        out << "router_width_bits=" << joinInts(c.routerWidthBits)
            << '\n';
    out << "link_mode=" << linkModeName(c.linkWidthMode) << '\n';
    out << "routing=" << routingName(c.routing) << '\n';
    if (!c.tableRoutedNodes.empty())
        out << "table_nodes=" << joinInts(c.tableRoutedNodes) << '\n';
    out << "intra_packet_pairing=" << (c.intraPacketPairing ? 1 : 0)
        << '\n';
    out << "sa_policy="
        << (c.saPolicy == SaPolicy::OldestFirst ? "oldest-first"
                                                : "round-robin")
        << '\n';
    out << "clock_ghz=" << c.clockGHz << '\n';
    return out.str();
}

NetworkConfig
configFromString(const std::string &text)
{
    NetworkConfig c;
    std::stringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        auto eq = line.find('=');
        if (eq == std::string::npos)
            fatal("config: malformed line '%s'", line.c_str());
        std::string key = line.substr(0, eq);
        std::string val = line.substr(eq + 1);
        std::string what = "config: key '" + key + "'"; // parse errors

        auto k = std::find_if(std::begin(kIntKeys), std::end(kIntKeys),
                              [&](const IntKey &e) { return key == e.key; });
        if (k != std::end(kIntKeys))
            c.*k->field = parseInt(what, val);
        else if (key == "name")
            c.name = val;
        else if (key == "topology")
            c.topology = topologyFromName(val);
        else if (key == "router_vcs")
            c.routerVcs = splitInts(what, val);
        else if (key == "router_width_bits")
            c.routerWidthBits = splitInts(what, val);
        else if (key == "link_mode")
            c.linkWidthMode = linkModeFromName(val);
        else if (key == "routing")
            c.routing = routingFromName(val);
        else if (key == "table_nodes")
            c.tableRoutedNodes = splitInts(what, val);
        else if (key == "intra_packet_pairing")
            c.intraPacketPairing = parseInt(what, val) != 0;
        else if (key == "sa_policy")
            c.saPolicy = saPolicyFromName(key, val);
        else if (key == "clock_ghz")
            c.clockGHz = parseDouble(what, val);
        else
            fatal("config: unknown key '%s'", key.c_str());
    }
    if (std::string err = validate(c); !err.empty())
        fatal("config: %s", err.c_str());
    return c;
}

std::string
simOptionsToString(const SimPointOptions &o)
{
    std::ostringstream out;
    out.precision(17); // exact double round-trip
    out << "injection_rate=" << o.injectionRate << '\n';
    out << "warmup_cycles=" << o.warmupCycles << '\n';
    out << "measure_cycles=" << o.measureCycles << '\n';
    out << "drain_cycles=" << o.drainCycles << '\n';
    out << "seed=" << o.seed << '\n';
    out << "control_fraction=" << o.controlFraction << '\n';
    out << "collect_metrics=" << (o.collectMetrics ? 1 : 0) << '\n';
    out << "telemetry_epoch=" << o.telemetryEpoch << '\n';
    out << "control_mode=" << simControlModeName(o.control.mode)
        << '\n';
    out << "min_warmup_cycles=" << o.control.minWarmupCycles << '\n';
    out << "warmup_epochs=" << o.control.warmupEpochs << '\n';
    out << "warmup_tolerance=" << o.control.warmupTolerance << '\n';
    out << "ci_target=" << o.control.ciTarget << '\n';
    out << "ci_confidence=" << o.control.ciConfidence << '\n';
    out << "min_batches=" << o.control.minBatches << '\n';
    out << "epochs_per_batch=" << o.control.epochsPerBatch << '\n';
    out << "min_measure_cycles=" << o.control.minMeasureCycles << '\n';
    out << "sat_epochs=" << o.control.satEpochs << '\n';
    out << "sat_depth_per_node=" << o.control.satDepthPerNode << '\n';
    out << "sat_growth_per_node=" << o.control.satGrowthPerNode
        << '\n';
    return out.str();
}

SimPointOptions
simOptionsFromString(const std::string &text)
{
    SimPointOptions o;
    std::stringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        auto eq = line.find('=');
        if (eq == std::string::npos)
            fatal("sim options: malformed line '%s'", line.c_str());
        std::string key = line.substr(0, eq);
        std::string val = line.substr(eq + 1);
        std::string what = "config: key '" + key + "'"; // parse errors

        if (key == "injection_rate")
            o.injectionRate = parseDouble(what, val);
        else if (key == "warmup_cycles")
            o.warmupCycles = parseU64(what, val);
        else if (key == "measure_cycles")
            o.measureCycles = parseU64(what, val);
        else if (key == "drain_cycles")
            o.drainCycles = parseU64(what, val);
        else if (key == "seed")
            o.seed = parseU64(what, val);
        else if (key == "control_fraction")
            o.controlFraction = parseDouble(what, val);
        else if (key == "collect_metrics")
            o.collectMetrics = parseInt(what, val) != 0;
        else if (key == "telemetry_epoch")
            o.telemetryEpoch = parseU64(what, val);
        else if (key == "control_mode")
            o.control.mode = simControlModeFromName(val);
        else if (key == "min_warmup_cycles")
            o.control.minWarmupCycles = parseU64(what, val);
        else if (key == "warmup_epochs")
            o.control.warmupEpochs = parseInt(what, val);
        else if (key == "warmup_tolerance")
            o.control.warmupTolerance = parseDouble(what, val);
        else if (key == "ci_target")
            o.control.ciTarget = parseDouble(what, val);
        else if (key == "ci_confidence")
            o.control.ciConfidence = parseDouble(what, val);
        else if (key == "min_batches")
            o.control.minBatches = parseInt(what, val);
        else if (key == "epochs_per_batch")
            o.control.epochsPerBatch = parseInt(what, val);
        else if (key == "min_measure_cycles")
            o.control.minMeasureCycles = parseU64(what, val);
        else if (key == "sat_epochs")
            o.control.satEpochs = parseInt(what, val);
        else if (key == "sat_depth_per_node")
            o.control.satDepthPerNode = parseDouble(what, val);
        else if (key == "sat_growth_per_node")
            o.control.satGrowthPerNode = parseDouble(what, val);
        else
            fatal("sim options: unknown key '%s'", key.c_str());
    }
    return o;
}

bool
saveConfig(const NetworkConfig &config, const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << configToString(config);
    return static_cast<bool>(out);
}

NetworkConfig
loadConfig(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("config: cannot open %s", path.c_str());
    std::stringstream buf;
    buf << in.rdbuf();
    return configFromString(buf.str());
}

} // namespace hnoc
