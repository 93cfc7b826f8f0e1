#include "noc/network.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common/logging.hh"
#include "noc/config_io.hh"
#include "power/frequency_model.hh"
#include "telemetry/json_writer.hh"

namespace hnoc
{

namespace
{

/** @p config, or fatal with the key that validate() rejects. */
const NetworkConfig &
validated(const NetworkConfig &config)
{
    if (std::string err = validate(config); !err.empty())
        fatal("config: %s", err.c_str());
    return config;
}

} // namespace

Network::Network(const NetworkConfig &config)
    : config_(validated(config)), topo_(Topology::create(config_)),
      routing_(RoutingAlgorithm::create(config_, *topo_))
{
    if (config_.clockGHz > 0.0) {
        clockGHz_ = config_.clockGHz;
    } else {
        // Worst-case rule of §3.4: the slowest router sets the clock.
        int max_vcs = config_.defaultVcs;
        for (RouterId r = 0; r < topo_->numRouters(); ++r)
            max_vcs = std::max(max_vcs, config_.vcsOf(r));
        clockGHz_ = FrequencyModel::networkFrequencyGHz(max_vcs);
    }

    build();

    // Enlist every component in its active list. Ids are registered
    // in ascending order, so each list's dense local order is the
    // canonical global order.
    for (std::size_t i = 0; i < ends_.size(); ++i) {
        ActiveList &list = ends_[i].sinkIsRouter ? flitEnds_ : ejectEnds_;
        ends_[i].chan->bindActivitySlot(
            &list, list.add(static_cast<std::uint32_t>(i)));
    }
    for (std::size_t i = 0; i < routers_.size(); ++i)
        routers_[i].bindActivitySlot(
            &activeRouters_,
            activeRouters_.add(static_cast<std::uint32_t>(i)));
    for (std::size_t i = 0; i < nis_.size(); ++i)
        nis_[i]->bindActivitySlot(
            &activeNis_, activeNis_.add(static_cast<std::uint32_t>(i)));
}

Network::~Network() = default;

Channel *
Network::makeChannel(int width_bits, int flit_delay, int credit_delay,
                     int credit_slots)
{
    int lanes = std::max(1, width_bits / config_.flitWidthBits);
    channels_.push_back(std::make_unique<Channel>(
        static_cast<int>(channels_.size()), width_bits, lanes, flit_delay,
        credit_delay, credit_slots));
    Channel *c = channels_.back().get();
    if (lanes > 1)
        wideChannels_.push_back(c);
    return c;
}

void
Network::build()
{
    int n_routers = topo_->numRouters();
    int ports = topo_->portsPerRouter();
    int inter_delay = (config_.pipelineStages - 1) + config_.linkLatency;

    // Routers live by value in one contiguous vector: the per-cycle
    // step pass walks them in index order, so the object
    // headers stream linearly instead of chasing per-router heap
    // pointers. reserve() pins the addresses before activity-slot
    // binding takes them.
    routers_.reserve(static_cast<std::size_t>(n_routers));
    for (RouterId r = 0; r < n_routers; ++r) {
        routers_.emplace_back(
            r, ports, config_.vcsOf(r), config_.bufferDepth, *routing_,
            config_.escapeThreshold, config_.intraPacketPairing,
            config_.saPolicy);
    }

    // Inter-router channels: one per directed (router, dir-port) pair.
    for (RouterId r = 0; r < n_routers; ++r) {
        for (PortId p = 0; p < topo_->numDirPorts(); ++p) {
            const PortPeer &peer = topo_->peer(r, p);
            if (peer.router == INVALID_ROUTER)
                continue;
            Channel *ch = makeChannel(
                config_.channelBits(r, peer.router), inter_delay,
                config_.linkLatency,
                config_.vcsOf(peer.router) * config_.bufferDepth);
            routers_[static_cast<std::size_t>(r)].connectOutput(
                p, ch, config_.vcsOf(peer.router), config_.bufferDepth);
            routers_[static_cast<std::size_t>(peer.router)].connectInput(
                peer.port, ch);

            ChannelEnds e;
            e.chan = ch;
            e.sinkIsRouter = true;
            e.sinkRouter = peer.router;
            e.sinkPort = peer.port;
            e.driverIsRouter = true;
            e.driverRouter = r;
            e.driverPort = p;
            ends_.push_back(e);
        }
    }

    // Local channels: injection (NI -> router) and ejection.
    int n_nodes = topo_->numNodes();
    nis_.reserve(static_cast<std::size_t>(n_nodes));
    for (NodeId n = 0; n < n_nodes; ++n) {
        RouterId r = topo_->routerOfNode(n);
        PortId lp = topo_->localPortOfNode(n);
        Router &router = routers_[static_cast<std::size_t>(r)];
        nis_.push_back(std::make_unique<NetworkInterface>(n));
        NetworkInterface &ni = *nis_.back();

        int local_bits = config_.localChannelBits(r);
        int local_slots = config_.vcsOf(r) * config_.bufferDepth;

        Channel *inj = makeChannel(local_bits, config_.linkLatency,
                                   config_.linkLatency, local_slots);
        router.connectInput(lp, inj);
        ni.connectInjection(inj, config_.vcsOf(r), config_.bufferDepth,
                            &router.activity(),
                            config_.intraPacketPairing);
        ChannelEnds ei;
        ei.chan = inj;
        ei.sinkIsRouter = true;
        ei.sinkRouter = r;
        ei.sinkPort = lp;
        ei.driverIsRouter = false;
        ei.driverNode = n;
        ends_.push_back(ei);

        Channel *ej = makeChannel(local_bits, inter_delay,
                                  config_.linkLatency, local_slots);
        router.connectOutput(lp, ej, config_.vcsOf(r),
                             config_.bufferDepth);
        router.markEjectionPort(lp);
        ni.connectEjection(ej);
        ChannelEnds ee;
        ee.chan = ej;
        ee.sinkIsRouter = false;
        ee.sinkNode = n;
        ee.driverIsRouter = true;
        ee.driverRouter = r;
        ee.driverPort = lp;
        ends_.push_back(ee);
    }

    // All ports are wired: pack each router's per-output credit
    // counters into their aligned hot rows.
    for (auto &router : routers_)
        router.finalizeWiring();
}

Packet *
Network::allocPacket()
{
    if (!freeList_.empty()) {
        Packet *p = freeList_.back();
        freeList_.pop_back();
        return p;
    }
    packetArena_.push_back(std::make_unique<Packet>());
    return packetArena_.back().get();
}

void
Network::freePacket(Packet *pkt)
{
    freeList_.push_back(pkt);
}

Packet *
Network::enqueuePacket(NodeId src, NodeId dst, int num_flits,
                       std::uint64_t tag, void *context)
{
    if (src < 0 || src >= topo_->numNodes() || dst < 0 ||
        dst >= topo_->numNodes())
        panic("enqueuePacket: invalid endpoints %d -> %d", src, dst);
    if (src == dst)
        panic("enqueuePacket: src == dst (%d)", src);
    Packet *pkt = allocPacket();
    *pkt = Packet{};
    pkt->id = nextPacketId_++;
    pkt->src = src;
    pkt->dst = dst;
    pkt->numFlits = num_flits;
    pkt->createdAt = cycle_;
    pkt->tag = tag;
    pkt->context = context;
    if (config_.routing == RoutingMode::TableXY) {
        const auto &table =
            static_cast<const TableXYRouting &>(*routing_);
        pkt->tableRouted = table.isTableNode(src) || table.isTableNode(dst);
    } else if (config_.routing == RoutingMode::O1Turn) {
        // Alternate dimension orders deterministically by packet id.
        pkt->yxRouted = (pkt->id & 1) != 0;
    }
    nis_[static_cast<std::size_t>(src)]->enqueue(pkt);
    ++packetsInjected_;
    ++livePackets_;
    // The probe arms the blame ledger: `*pkt = Packet{}` above resets
    // the pointer on arena recycle, so detached runs carry none.
    if (probe_)
        probe_->packetCreated(*pkt, livePackets_, cycle_);
    return pkt;
}

void
Network::repointProbe()
{
    probe_ = sinks_.active() ? &sinks_ : nullptr;
    for (auto &r : routers_)
        r.setProbe(probe_);
    for (ChannelEnds &e : ends_)
        if (e.driverIsRouter)
            e.chan->setProbe(probe_, e.driverRouter, e.driverPort);
    for (auto &ni : nis_)
        ni->setProbe(probe_);
}

void
Network::setObserver(NetworkObserver *observer)
{
    sinks_.observer = observer;
    repointProbe();
}

std::unique_ptr<MetricRegistry>
Network::makeMetricRegistry(Cycle epoch_cycles) const
{
    MetricRegistry::Dims dims;
    dims.routers = topo_->numRouters();
    dims.ports = topo_->portsPerRouter();
    dims.vcs = config_.defaultVcs;
    for (RouterId r = 0; r < topo_->numRouters(); ++r)
        dims.vcs = std::max(dims.vcs, config_.vcsOf(r));
    dims.gridCols = topo_->gridCols();

    auto reg = std::make_unique<MetricRegistry>(dims, epoch_cycles);
    for (RouterId r = 0; r < topo_->numRouters(); ++r)
        reg->setBufferCapacity(
            r, routers_[static_cast<std::size_t>(r)].bufferCapacity());
    for (const ChannelEnds &e : ends_) {
        if (!e.driverIsRouter)
            continue;
        reg->setPortLanes(e.driverRouter, e.driverPort, e.chan->lanes());
        reg->setPortInterRouter(e.driverRouter, e.driverPort,
                                e.sinkIsRouter);
    }
    return reg;
}

void
Network::attachTelemetry(MetricRegistry *reg)
{
    sinks_.registry = reg;
    repointProbe();
    if (reg)
        reg->beginWindow(cycle_);
}

void
Network::detachTelemetry()
{
    if (sinks_.registry)
        sinks_.registry->finish();
    attachTelemetry(nullptr);
}

void
Network::attachFlightRecorder(FlightRecorder *fr)
{
    sinks_.recorder = fr;
    repointProbe();
}

void
Network::attachProfiler(Profiler *prof)
{
    sinks_.profiler = prof;
    repointProbe();
}

std::unique_ptr<BlameCollector>
Network::makeBlameCollector() const
{
    BlameCollector::Dims dims;
    dims.routers = topo_->numRouters();
    dims.ports = topo_->portsPerRouter();
    dims.gridCols = topo_->gridCols();

    auto bc = std::make_unique<BlameCollector>(dims);
    for (RouterId r = 0; r < topo_->numRouters(); ++r) {
        // The paper's router classes: "big" means more VCs or a wider
        // local datapath than the baseline mesh router.
        bool big = config_.vcsOf(r) > config_.defaultVcs ||
                   config_.localChannelBits(r) > config_.flitWidthBits;
        bc->setRouterClass(r, big);
    }
    for (const ChannelEnds &e : ends_) {
        if (!e.driverIsRouter)
            continue;
        BlameLinkClass cls =
            !e.sinkIsRouter ? BlameLinkClass::Local
            : e.chan->lanes() > 1 ? BlameLinkClass::Wide
                                  : BlameLinkClass::Narrow;
        bc->setPortLinkClass(e.driverRouter, e.driverPort, cls);
    }
    for (NodeId n = 0; n < topo_->numNodes(); ++n)
        bc->setNodeRouter(n, topo_->routerOfNode(n));
    return bc;
}

void
Network::attachBlame(BlameCollector *b)
{
    // A live packet's ledger belongs to the collector that armed it:
    // hand every one back before the switch, so no ledger is committed
    // into (or released to) a pool it did not come from.
    if (sinks_.blame && sinks_.blame != b) {
        for (const auto &pkt : packetArena_) {
            if (pkt->blame) {
                sinks_.blame->release(pkt->blame);
                pkt->blame = nullptr;
            }
        }
    }
    sinks_.blame = b;
    repointProbe();
}

void
Network::markAllBusy()
{
    // Channel ends need no mark: an end is busy exactly while its pipe
    // holds a flit, and an empty pipe has nothing to deliver.
    activeRouters_.insertAll();
    activeNis_.insertAll();
}

MemoryAudit
Network::memoryAudit() const
{
    MemoryAudit a;
    a.tiles = topo_->numNodes();

    std::uint64_t b = 0;
    for (const auto &r : routers_)
        b += r.footprintBytes();
    a.add("routers", b, routers_.size());

    b = 0;
    for (const auto &c : channels_)
        b += c->footprintBytes();
    a.add("channels", b, channels_.size());

    b = 0;
    for (const auto &ni : nis_)
        b += ni->footprintBytes();
    a.add("network_interfaces", b, nis_.size());

    a.add("packet_arena",
          packetArena_.capacity() * sizeof(std::unique_ptr<Packet>) +
              packetArena_.size() * sizeof(Packet) +
              freeList_.capacity() * sizeof(Packet *),
          packetArena_.size());

    std::uint64_t lists = 0;
    for (const ActiveList *l :
         {&ejectEnds_, &flitEnds_, &activeRouters_, &activeNis_})
        lists += l->footprintBytes();
    a.add("active_set", ends_.capacity() * sizeof(ChannelEnds) + lists,
          ends_.size() + routers_.size() + nis_.size());

    if (sinks_.registry)
        a.add("metric_registry", sinks_.registry->footprintBytes(), 1);
    if (sinks_.recorder)
        a.add("flight_recorder", sinks_.recorder->footprintBytes(), 1);
    if (sinks_.blame)
        a.add("blame_collector", sinks_.blame->footprintBytes(), 1);
    return a;
}

HealthSample
Network::healthSample() const
{
    HealthSample s;
    s.cycle = cycle_;
    s.packetsInjected = packetsInjected_;
    s.packetsDelivered = packetsDelivered_;
    s.flitsDelivered = flitsDelivered_;
    s.packetsInFlight = livePackets_;
    s.sourceQueueDepth = totalSourceQueueDepth();
    s.routers = topo_->numRouters();
    s.ports = topo_->portsPerRouter();
    s.vcs = config_.defaultVcs;
    for (RouterId r = 0; r < s.routers; ++r)
        s.vcs = std::max(s.vcs, config_.vcsOf(r));

    s.bufferOccupancy.reserve(static_cast<std::size_t>(s.routers));
    s.vcOccupancy.assign(
        static_cast<std::size_t>(s.routers * s.ports * s.vcs), 0);
    for (RouterId r = 0; r < s.routers; ++r) {
        const Router &router = routers_[static_cast<std::size_t>(r)];
        s.bufferOccupancy.push_back(router.bufferOccupancy());
        int router_vcs = router.vcsPerPort();
        for (PortId p = 0; p < s.ports; ++p)
            for (VcId v = 0; v < router_vcs; ++v)
                s.vcOccupancy[static_cast<std::size_t>(
                    (r * s.ports + p) * s.vcs + v)] =
                    router.inputVcOccupancy(p, v);
    }
    return s;
}

bool
Network::auditCreditConservation(std::string *err) const
{
    for (const ChannelEnds &e : ends_) {
        // The downstream buffer being credited: a router input port,
        // or the NI ejection sink (which consumes instantly, so its
        // occupancy is always zero).
        int vcs = e.sinkIsRouter
                      ? routers_[static_cast<std::size_t>(e.sinkRouter)]
                            .vcsPerPort()
                      : routers_[static_cast<std::size_t>(e.driverRouter)]
                            .outputVcCount(e.driverPort);
        for (VcId v = 0; v < vcs; ++v) {
            int driver_credits =
                e.driverIsRouter
                    ? routers_[static_cast<std::size_t>(e.driverRouter)]
                          .outputCredits(e.driverPort, v, cycle_)
                    : nis_[static_cast<std::size_t>(e.driverNode)]
                          ->injectionCredits(v, cycle_);
            int in_flight_flits = e.chan->pipeFlits(v);
            int in_flight_credits = e.chan->pipeCredits(v, cycle_);
            int sink_occ =
                e.sinkIsRouter
                    ? routers_[static_cast<std::size_t>(e.sinkRouter)]
                          .inputVcOccupancy(e.sinkPort, v)
                    : 0;
            int total = driver_credits + in_flight_flits +
                        in_flight_credits + sink_occ;
            if (total != config_.bufferDepth) {
                if (err) {
                    char buf[256];
                    std::snprintf(
                        buf, sizeof(buf),
                        "channel %d vc %d: credits %d + pipe flits %d + "
                        "pipe credits %d + sink occupancy %d = %d, "
                        "expected buffer depth %d",
                        e.chan->id(), v, driver_credits, in_flight_flits,
                        in_flight_credits, sink_occ, total,
                        config_.bufferDepth);
                    *err = buf;
                }
                return false;
            }
        }
    }
    return true;
}

std::string
Network::postmortemJson(const std::string &reason) const
{
    JsonWriter w;
    w.beginObject();
    w.keyValue("schema", "hnoc-postmortem-v1");
    w.keyValue("reason", reason);
    w.keyValue("cycle", static_cast<std::uint64_t>(cycle_));
    w.keyValue("packets_injected", packetsInjected_);
    w.keyValue("packets_delivered", packetsDelivered_);
    w.keyValue("flits_delivered", flitsDelivered_);
    w.keyValue("packets_in_flight",
               static_cast<std::uint64_t>(livePackets_));
    w.keyValue("source_queue_depth",
               static_cast<std::uint64_t>(totalSourceQueueDepth()));
    w.keyValue("last_delivery_cycle",
               static_cast<std::uint64_t>(lastDelivery_));

    w.key("config").beginObject();
    w.keyValue("topology", topologyName(config_.topology));
    w.keyValue("routers", topo_->numRouters());
    w.keyValue("ports", topo_->portsPerRouter());
    w.keyValue("grid_cols", topo_->gridCols());
    w.keyValue("buffer_depth", config_.bufferDepth);
    w.endObject();

    // Per-router pipeline snapshot. Idle state is the common case in a
    // postmortem's healthy regions, so only waiting/allocated VCs are
    // emitted.
    w.key("routers").beginArray();
    for (RouterId r = 0; r < topo_->numRouters(); ++r) {
        const Router &router = routers_[static_cast<std::size_t>(r)];
        w.beginObject();
        w.keyValue("id", r);
        w.keyValue("occupancy", router.bufferOccupancy());
        w.key("input_vcs").beginArray();
        for (PortId p = 0; p < router.numPorts(); ++p) {
            for (VcId v = 0; v < router.vcsPerPort(); ++v) {
                Router::InputVcView view = router.inputVcView(p, v);
                if (view.occupancy == 0 && !view.active)
                    continue;
                w.beginObject();
                w.keyValue("port", p);
                w.keyValue("vc", v);
                w.keyValue("occupancy", view.occupancy);
                w.keyValue("active", view.active);
                w.keyValue("out_port", view.outPort);
                w.keyValue("out_vc", view.outVc);
                w.keyValue("head_since",
                           static_cast<std::uint64_t>(view.headSince));
                w.keyValue("pkt", view.pkt);
                w.endObject();
            }
        }
        w.endArray();
        w.key("output_vcs").beginArray();
        for (PortId p = 0; p < router.numPorts(); ++p) {
            for (VcId v = 0; v < router.outputVcCount(p); ++v) {
                bool allocated = router.outputAllocated(p, v);
                int credits = router.outputCredits(p, v, cycle_);
                if (!allocated && credits == config_.bufferDepth)
                    continue;
                w.beginObject();
                w.keyValue("port", p);
                w.keyValue("vc", v);
                w.keyValue("credits", credits);
                w.keyValue("allocated", allocated);
                w.endObject();
            }
        }
        w.endArray();
        w.endObject();
    }
    w.endArray();

    w.key("source_queues").beginArray();
    for (const auto &ni : nis_) {
        if (ni->sourceQueueDepth() == 0)
            continue;
        w.beginObject();
        w.keyValue("node", ni->node());
        w.keyValue("depth",
                   static_cast<std::uint64_t>(ni->sourceQueueDepth()));
        w.endObject();
    }
    w.endArray();

    std::string audit_err;
    bool audit_ok = auditCreditConservation(&audit_err);
    w.key("conservation").beginObject();
    w.keyValue("ok", audit_ok);
    if (!audit_ok)
        w.keyValue("error", audit_err);
    w.endObject();

    if (sinks_.recorder) {
        w.key("flight_recorder");
        sinks_.recorder->writeJson(w);
    }
    if (sinks_.registry) {
        w.key("telemetry");
        sinks_.registry->writeJson(w);
    }
    w.endObject();
    return w.str();
}

bool
Network::writePostmortem(const std::string &path,
                         const std::string &reason) const
{
    std::string target = path;
    if (const char *dir = std::getenv("HNOC_JSON_DIR")) {
        std::string base = path;
        auto slash = base.find_last_of('/');
        if (slash != std::string::npos)
            base = base.substr(slash + 1);
        target = std::string(dir) + "/" + base;
    }
    std::FILE *f = std::fopen(target.c_str(), "w");
    if (!f) {
        warn("postmortem: cannot open %s", target.c_str());
        return false;
    }
    std::string data = postmortemJson(reason);
    std::fwrite(data.data(), 1, data.size(), f);
    std::fclose(f);
    return true;
}

void
Network::step()
{
    Cycle now = cycle_;

    if (client_)
        client_->preCycle(*this, now);

    // Self-profiling (report-only): the StepTotal scope opens after
    // the client callback, so step_total covers network work only and
    // the unattributed residual is active-set scan + loop overhead.
    // With no profiler attached each scope costs one branch; the OFF
    // build folds `prof` to nullptr and compiles the timers away.
    Profiler *prof =
        kTelemetryEnabled && probe_ ? probe_->profiler : nullptr;
    ProfScope stepScope(prof, ProfPhase::StepTotal);

    // Channel delivery hands each flit straight to its receiver —
    // router input-VC SoA arrays or the NI — without staging it in a
    // scratch vector. Credits are not delivered here: each driver
    // pulls its own when it next reads them (DESIGN.md §6i).
    auto deliverFlitsOf = [&](const ChannelEnds &e) {
        if (e.sinkIsRouter) {
            Router &r = routers_[static_cast<std::size_t>(e.sinkRouter)];
            e.chan->deliverFlitsTo(now, [&](const Flit &f) {
                r.receiveFlit(e.sinkPort, f, now);
            });
        } else {
            NetworkInterface &ni =
                *nis_[static_cast<std::size_t>(e.sinkNode)];
            e.chan->deliverFlitsTo(now, [&](const Flit &f) {
                ++flitsDelivered_;
                // The tail drains behind the head at 2 flits/cycle
                // only when pairing can ride a wide local link.
                if (probe_)
                    probe_->flitEjected(
                        f,
                        config_.intraPacketPairing && e.chan->lanes() > 1
                            ? 2
                            : 1,
                        now);
                Packet *done = ni.receiveFlit(f, now);
                if (done) {
                    ++packetsDelivered_;
                    --livePackets_;
                    lastDelivery_ = now;
                    if (probe_)
                        probe_->packetDelivered(*done, now);
                    if (client_)
                        client_->onPacketDelivered(*this, *done, now);
                    // Retire after the client callback so tests can
                    // inspect the finished ledger from the callback.
                    if (probe_)
                        probe_->packetRetired(*done);
                    freePacket(done);
                }
            });
        }
    };

    // One pass over the busy components: terminal ejections first, in
    // canonical node order (flit consumption and delivery callbacks),
    // then router-sink deliveries, routers and NIs, each in ascending
    // id. Every channel delay is >= 1 cycle, so nothing sent this
    // cycle is deliverable this cycle and delivering the ejection ends
    // before the router-sink ends reorders nothing that the results
    // depend on (DESIGN.md §6g).
    auto visit_end = [&](std::uint32_t i) { deliverFlitsOf(ends_[i]); };
    if (ejectEnds_.size() > 0) {
        ProfScope s(prof, ProfPhase::NiEject);
        ejectEnds_.forEachActive(visit_end);
    }
    if (flitEnds_.size() > 0) {
        ProfScope s(prof, ProfPhase::ChannelDelivery);
        flitEnds_.forEachActive(visit_end);
    }
    activeRouters_.forEachActive(
        [&](std::uint32_t i) { routers_[i].step(now); });
    if (activeNis_.size() > 0) {
        ProfScope s(prof, ProfPhase::NiInject);
        activeNis_.forEachActive(
            [&](std::uint32_t i) { nis_[i]->stepInject(now); });
    }

    if (probe_)
        probe_->cycleEnd(now);

    ++cycle_;
}

Cycle
Network::minTransferCycles(NodeId src, NodeId dst, int num_flits) const
{
    auto path = routing_->path(src, dst);
    auto hops = static_cast<Cycle>(path.size());
    Cycle head = static_cast<Cycle>(config_.linkLatency) +
                 hops * static_cast<Cycle>(config_.pipelineStages +
                                           config_.linkLatency);

    // Serialization lower bound: the narrowest channel on the path
    // limits how fast the tail can follow the head. With intra-packet
    // pairing, wide (multi-lane) channels move two flits per cycle.
    int min_lanes =
        std::max(1, config_.localChannelBits(path.front()) /
                        config_.flitWidthBits);
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        int lanes = std::max(
            1, config_.channelBits(path[i], path[i + 1]) /
                   config_.flitWidthBits);
        min_lanes = std::min(min_lanes, lanes);
    }
    min_lanes = std::min(
        min_lanes, std::max(1, config_.localChannelBits(path.back()) /
                                   config_.flitWidthBits));
    if (!config_.intraPacketPairing)
        min_lanes = 1;

    auto serialization = static_cast<Cycle>(
        (num_flits - 1 + min_lanes - 1) / min_lanes);
    return head + serialization;
}

void
Network::resetMeasurement()
{
    measureStart_ = cycle_;
    for (auto &r : routers_) {
        r.activity() = RouterActivity{};
        r.resetOccupancy();
    }
    for (auto &c : channels_)
        c->resetStats();
}

std::vector<double>
Network::bufferUtilizationPercent() const
{
    std::vector<double> util;
    util.reserve(routers_.size());
    double cycles = static_cast<double>(measuredCycles());
    for (const auto &r : routers_) {
        double cap = static_cast<double>(r.bufferCapacity());
        util.push_back(cycles > 0.0
                           ? 100.0 * r.occupancySum() / (cap * cycles)
                           : 0.0);
    }
    return util;
}

std::vector<double>
Network::linkUtilizationPercent() const
{
    // Average lane utilization of each router's outgoing directional
    // channels.
    std::vector<double> util(routers_.size(), 0.0);
    std::vector<int> count(routers_.size(), 0);
    Cycle cycles = measuredCycles();
    for (const ChannelEnds &e : ends_) {
        if (!e.driverIsRouter || !e.sinkIsRouter)
            continue; // only inter-router links, as in Fig 1(b)
        util[static_cast<std::size_t>(e.driverRouter)] +=
            100.0 * e.chan->laneUtilization(cycles);
        ++count[static_cast<std::size_t>(e.driverRouter)];
    }
    for (std::size_t i = 0; i < util.size(); ++i)
        if (count[i] > 0)
            util[i] /= count[i];
    return util;
}

PowerBreakdown
Network::powerReport() const
{
    PowerBreakdown total;
    int ports = topo_->portsPerRouter();
    // Routers do not count their own stepped cycles (idle cycles are
    // skipped); the power model's time denominator is the measurement
    // window.
    Cycle window = measuredCycles();
    for (RouterId r = 0; r < topo_->numRouters(); ++r) {
        auto model = RouterPowerModel::calibrated(
            config_.physParamsOf(r, ports), clockGHz_);
        RouterActivity act =
            routers_[static_cast<std::size_t>(r)].activity();
        act.cycles = window;
        total += model.power(act);
    }
    return total;
}

double
Network::combineRate() const
{
    std::uint64_t busy = 0;
    std::uint64_t paired = 0;
    for (const Channel *c : wideChannels_) {
        busy += c->busyCycles();
        paired += c->pairedCycles();
    }
    return busy ? static_cast<double>(paired) / static_cast<double>(busy)
                : 0.0;
}

std::size_t
Network::totalSourceQueueDepth() const
{
    std::size_t n = 0;
    for (const auto &ni : nis_)
        n += ni->sourceQueueDepth();
    return n;
}

std::string
Network::dumpState() const
{
    char buf[64];
    std::string out = "network state @ cycle ";
    std::snprintf(buf, sizeof(buf), "%llu\n",
                  static_cast<unsigned long long>(cycle_));
    out += buf;
    out += "buffer occupancy (flits) per router:\n";
    int cols = topo_->gridCols();
    for (int r = 0; r < topo_->numRouters(); ++r) {
        std::snprintf(buf, sizeof(buf), "%4d",
                      routers_[static_cast<std::size_t>(r)]
                          .bufferOccupancy());
        out += buf;
        if ((r + 1) % cols == 0)
            out += '\n';
    }
    bool any_queue = false;
    for (const auto &ni : nis_) {
        if (ni->sourceQueueDepth() > 0) {
            if (!any_queue) {
                out += "non-empty source queues:\n";
                any_queue = true;
            }
            std::snprintf(buf, sizeof(buf), "  node %d: %zu\n",
                          ni->node(), ni->sourceQueueDepth());
            out += buf;
        }
    }
    std::snprintf(buf, sizeof(buf), "in flight: %zu packets\n",
                  livePackets_);
    out += buf;
    return out;
}

} // namespace hnoc
