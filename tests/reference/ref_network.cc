#include "ref_network.hh"

#include <algorithm>
#include <cstdio>

#include "common/logging.hh"

// The independence rule (ref_network.hh): no header of the optimized
// router model may reach the reference, not even transitively.
#if defined(HNOC_NOC_ROUTER_CORE_HH) || defined(HNOC_NOC_ROUTER_HH) ||    \
    defined(HNOC_NOC_CHANNEL_HH) || defined(HNOC_NOC_NETWORK_INTERFACE_HH) || \
    defined(HNOC_NOC_ACTIVE_SET_HH) || defined(HNOC_COMMON_RING_BUFFER_HH) || \
    defined(HNOC_COMMON_BITOPS_HH)
#error "the reference network includes a header of the optimized model"
#endif

namespace hnoc
{
namespace ref
{

RefNetwork::RefNetwork(const NetworkConfig &config)
    : config_(config), topo_(Topology::create(config_)),
      routing_(RoutingAlgorithm::create(config_, *topo_))
{
    const NetworkConfig &c = config_;
    int ports = topo_->portsPerRouter();
    int router_delay = c.pipelineStages - 1 + c.linkLatency;

    routers_.resize(static_cast<std::size_t>(topo_->numRouters()));
    for (RouterId id = 0; id < topo_->numRouters(); ++id) {
        Router &r = routers_[static_cast<std::size_t>(id)];
        r.id = id;
        r.vcs = c.vcsOf(id);
        r.in.resize(static_cast<std::size_t>(ports * r.vcs));
        r.inLink.assign(static_cast<std::size_t>(ports), -1);
        r.out.resize(static_cast<std::size_t>(ports));
        r.reads.assign(static_cast<std::size_t>(ports), 0);
        r.readFor.assign(static_cast<std::size_t>(ports), INVALID_PORT);
    }
    auto connect = [&](Router &r, PortId p, int link, int down_vcs) {
        Output &out = r.out[static_cast<std::size_t>(p)];
        out.link = link;
        out.allocated.assign(static_cast<std::size_t>(down_vcs), false);
        out.credits.assign(static_cast<std::size_t>(down_vcs),
                           c.bufferDepth);
        links_[static_cast<std::size_t>(link)].driverRouter = r.id;
        links_[static_cast<std::size_t>(link)].driverPort = p;
    };

    // Links in Network's build order: every (router, direction) pair
    // with a neighbour, then each node's injection and ejection link.
    for (Router &r : routers_) {
        for (PortId p = 0; p < topo_->numDirPorts(); ++p) {
            const PortPeer &peer = topo_->peer(r.id, p);
            if (peer.router == INVALID_ROUTER)
                continue;
            int l = addLink(c.channelBits(r.id, peer.router), router_delay,
                            c.linkLatency);
            connect(r, p, l, c.vcsOf(peer.router));
            links_[static_cast<std::size_t>(l)].sinkRouter = peer.router;
            links_[static_cast<std::size_t>(l)].sinkPort = peer.port;
            routers_[static_cast<std::size_t>(peer.router)]
                .inLink[static_cast<std::size_t>(peer.port)] = l;
        }
    }
    nis_.resize(static_cast<std::size_t>(topo_->numNodes()));
    for (NodeId n = 0; n < topo_->numNodes(); ++n) {
        Ni &ni = nis_[static_cast<std::size_t>(n)];
        ni.router = topo_->routerOfNode(n);
        Router &r = routers_[static_cast<std::size_t>(ni.router)];
        PortId lp = topo_->localPortOfNode(n);
        int bits = c.localChannelBits(ni.router);

        ni.injLink = addLink(bits, c.linkLatency, c.linkLatency);
        Link &inj = links_[static_cast<std::size_t>(ni.injLink)];
        inj.driverNode = n;
        inj.sinkRouter = ni.router;
        inj.sinkPort = lp;
        r.inLink[static_cast<std::size_t>(lp)] = ni.injLink;
        ni.streams.resize(static_cast<std::size_t>(r.vcs));
        ni.credits.assign(static_cast<std::size_t>(r.vcs), c.bufferDepth);

        ni.ejLink = addLink(bits, router_delay, c.linkLatency);
        connect(r, lp, ni.ejLink, r.vcs);
        links_[static_cast<std::size_t>(ni.ejLink)].sinkNode = n;
    }
}

int
RefNetwork::addLink(int width_bits, int flit_delay, int credit_delay)
{
    Link l;
    l.widthBits = width_bits;
    l.lanes = std::max(1, width_bits / config_.flitWidthBits);
    l.flitDelay = flit_delay;
    l.creditDelay = credit_delay;
    links_.push_back(l);
    return static_cast<int>(links_.size()) - 1;
}

void
RefNetwork::enqueuePacket(NodeId src, NodeId dst, int num_flits)
{
    if (src < 0 || dst < 0 || src >= topo_->numNodes() ||
        dst >= topo_->numNodes() || src == dst)
        panic("reference: bad endpoints %d -> %d", src, dst);
    packets_.emplace_back();
    Packet &p = packets_.back();
    p.id = nextId_++;
    p.src = src;
    p.dst = dst;
    p.numFlits = num_flits;
    p.createdAt = now_;
    if (config_.routing == RoutingMode::TableXY) {
        const auto &table =
            static_cast<const TableXYRouting &>(*routing_);
        p.tableRouted = table.isTableNode(src) || table.isTableNode(dst);
    } else if (config_.routing == RoutingMode::O1Turn) {
        p.yxRouted = p.id % 2 == 1; // odd ids route Y first
    }
    nis_[static_cast<std::size_t>(src)].queue.push_back(&p);
    ++live_;
}

void
RefNetwork::step()
{
    for (Link &l : links_) {
        while (!l.flits.empty() && l.flits.front().due <= now_) {
            Flit f = l.flits.front().flit;
            l.flits.pop_front();
            if (l.sinkRouter != INVALID_ROUTER)
                receive(routers_[static_cast<std::size_t>(l.sinkRouter)],
                        l.sinkPort, f);
            else
                eject(l, f);
        }
    }
    for (Router &r : routers_)
        stepRouter(r);
    for (Ni &ni : nis_)
        stepNi(ni);
    ++now_;
}

// ------------------------------------------------------------ links --

void
RefNetwork::send(Link &l, const Flit &flit)
{
    if (l.lastSend == now_) {
        if (++l.sendsThisCycle > l.lanes)
            panic("reference: link over %d lanes", l.lanes);
        if (l.sendsThisCycle == 2)
            ++l.paired;
    } else {
        l.lastSend = now_;
        l.sendsThisCycle = 1;
        ++l.busy;
    }
    ++l.sent;
    l.flits.push_back({now_ + static_cast<Cycle>(l.flitDelay), flit});
}

void
RefNetwork::pullCredits(Link &l, std::vector<int> &credits)
{
    while (!l.credits.empty() && l.credits.front().due <= now_) {
        int &n = credits[static_cast<std::size_t>(l.credits.front().vc)];
        if (++n > config_.bufferDepth)
            panic("reference: more credits than buffer slots");
        l.credits.pop_front();
    }
}

// ---------------------------------------------------------- routers --

void
RefNetwork::receive(Router &r, PortId p, Flit flit)
{
    if (flit.vc < 0 || flit.vc >= r.vcs)
        panic("reference: router %d got VC %d", r.id, flit.vc);
    InputVc &in = r.in[static_cast<std::size_t>(p * r.vcs + flit.vc)];
    if (static_cast<int>(in.fifo.size()) >= config_.bufferDepth)
        panic("reference: router %d port %d VC %d overflows", r.id, p,
              flit.vc);
    flit.arrivedAt = now_; // buffer write: stage 1
    in.fifo.push_back(flit);
    ++r.flits;
    ++r.act.bufferWrites;
}

bool
RefNetwork::ready(const InputVc &in) const
{
    // Written in an earlier cycle: stage 2 work may start.
    return !in.fifo.empty() && in.fifo.front().arrivedAt < now_;
}

void
RefNetwork::route(Router &r, InputVc &in)
{
    in.outPort = routing_->outputPort(r.id, *in.pkt);
    const Output &out = r.out[static_cast<std::size_t>(in.outPort)];
    routing_->vcBounds(r.id, in.outPort, *in.pkt,
                       static_cast<int>(out.allocated.size()), in.vcLo,
                       in.vcHi);
    in.since = now_;
}

void
RefNetwork::stepRouter(Router &r)
{
    routeCompute(r);
    vcAllocate(r);
    std::fill(r.reads.begin(), r.reads.end(), 0);
    std::fill(r.readFor.begin(), r.readFor.end(), INVALID_PORT);
    for (PortId o = 0; o < static_cast<PortId>(r.out.size()); ++o)
        switchAllocate(r, o);
    r.occupancySum += r.flits;
}

void
RefNetwork::routeCompute(Router &r)
{
    for (InputVc &in : r.in) {
        if (in.routed || !ready(in))
            continue;
        const Flit &head = in.fifo.front();
        if (!head.isHead())
            panic("reference: router %d: body flit at an idle VC", r.id);
        in.routed = true;
        in.pkt = head.pkt;
        in.outVc = INVALID_VC;
        route(r, in);
        ++in.pkt->hops;
    }
}

void
RefNetwork::vcAllocate(Router &r)
{
    int total = static_cast<int>(r.in.size());
    int start = static_cast<int>(now_ % static_cast<Cycle>(total));
    for (int k = 0; k < total; ++k) {
        InputVc &in = r.in[static_cast<std::size_t>((start + k) % total)];
        if (!in.routed || in.outVc != INVALID_VC || !ready(in))
            continue;
        // A table-routed head stalled too long takes the escape layer.
        if (routing_->hasEscape(*in.pkt) &&
            now_ - in.since > static_cast<Cycle>(config_.escapeThreshold)) {
            in.pkt->escaped = true;
            route(r, in);
        }
        Output &out = r.out[static_cast<std::size_t>(in.outPort)];
        for (VcId v = in.vcLo;
             v <= in.vcHi && v < static_cast<int>(out.allocated.size());
             ++v) {
            if (!out.allocated[static_cast<std::size_t>(v)]) {
                out.allocated[static_cast<std::size_t>(v)] = true;
                in.outVc = v;
                in.since = now_;
                ++r.act.arbOps;
                break;
            }
        }
    }
}

void
RefNetwork::switchAllocate(Router &r, PortId o)
{
    Output &out = r.out[static_cast<std::size_t>(o)];
    // Only an input holding a downstream VC here can use the output.
    if (out.link < 0 ||
        std::find(out.allocated.begin(), out.allocated.end(), true) ==
            out.allocated.end())
        return;
    Link &link = links_[static_cast<std::size_t>(out.link)];
    pullCredits(link, out.credits);

    int total = static_cast<int>(r.in.size());
    int start = static_cast<int>(
        (static_cast<Cycle>(out.rrOffset) + now_) % static_cast<Cycle>(total));
    std::vector<int> order;
    for (int k = 0; k < total; ++k) {
        int s = (start + k) % total;
        const InputVc &in = r.in[static_cast<std::size_t>(s)];
        if (in.routed && in.outPort == o && in.outVc != INVALID_VC)
            order.push_back(s);
    }
    if (config_.saPolicy == SaPolicy::OldestFirst)
        std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
            return r.in[static_cast<std::size_t>(a)].since <
                   r.in[static_cast<std::size_t>(b)].since;
        });

    int capacity = link.lanes > 1 ? 2 : 1;
    int granted = 0;
    for (int s : order) {
        if (granted >= capacity)
            break;
        InputVc &in = r.in[static_cast<std::size_t>(s)];
        auto port = static_cast<std::size_t>(s / r.vcs);
        auto credits = [&] {
            return out.credits[static_cast<std::size_t>(in.outVc)];
        };
        if (!ready(in) || credits() <= 0)
            continue;
        // DSET: two reads per input port per cycle, for one output.
        if (r.reads[port] >= 2 ||
            (r.reads[port] == 1 && r.readFor[port] != o))
            continue;
        ++granted;
        bool finished = sendFlit(r, s, o);
        // Intra-packet pairing: the packet's next flit rides the other
        // half of a wide link, on a second credit of the same VC.
        if (config_.intraPacketPairing && !finished &&
            granted < capacity && r.reads[port] < 2 && credits() > 0 &&
            ready(in) && in.fifo.front().pkt == in.pkt) {
            ++granted;
            sendFlit(r, s, o);
        }
    }
    out.rrOffset = (out.rrOffset + granted) % total;
}

bool
RefNetwork::sendFlit(Router &r, int slot, PortId o)
{
    InputVc &in = r.in[static_cast<std::size_t>(slot)];
    Output &out = r.out[static_cast<std::size_t>(o)];
    Link &link = links_[static_cast<std::size_t>(out.link)];
    PortId port = slot / r.vcs;

    Flit flit = in.fifo.front();
    in.fifo.pop_front();
    --r.flits;
    --out.credits[static_cast<std::size_t>(in.outVc)];
    flit.vc = in.outVc;
    send(link, flit);
    ++r.reads[static_cast<std::size_t>(port)];
    r.readFor[static_cast<std::size_t>(port)] = o;
    ++r.act.bufferReads;
    ++r.act.xbarTraversals;
    ++r.act.arbOps;
    // A flit toggles its own lane of the link, not the full width.
    r.act.linkBitTraversals += link.widthBits / link.lanes;

    // The freed buffer slot goes back upstream as a credit.
    int up = r.inLink[static_cast<std::size_t>(port)];
    if (up >= 0)
        links_[static_cast<std::size_t>(up)].credits.push_back(
            {now_ + static_cast<Cycle>(
                        links_[static_cast<std::size_t>(up)].creditDelay),
             static_cast<VcId>(slot % r.vcs)});

    if (flit.isTail()) {
        out.allocated[static_cast<std::size_t>(in.outVc)] = false;
        in.routed = false;
        in.pkt = nullptr;
        in.outPort = INVALID_PORT;
        in.outVc = INVALID_VC;
        return true;
    }
    if (!in.fifo.empty())
        in.since = now_;
    return false;
}

// -------------------------------------------------------------- NIs --

void
RefNetwork::stepNi(Ni &ni)
{
    Link &inj = links_[static_cast<std::size_t>(ni.injLink)];
    pullCredits(inj, ni.credits);
    Router &r = routers_[static_cast<std::size_t>(ni.router)];
    int vcs = static_cast<int>(ni.streams.size());
    int start = static_cast<int>(now_ % static_cast<Cycle>(vcs));
    int per_vc = inj.lanes > 1 && config_.intraPacketPairing ? 2 : 1;
    int sent = 0;
    for (int k = 0; k < vcs && sent < inj.lanes; ++k) {
        auto vc = static_cast<VcId>((start + k) % vcs);
        Ni::Stream &st = ni.streams[static_cast<std::size_t>(vc)];
        if (!st.pkt) {
            if (ni.queue.empty())
                continue;
            st.pkt = ni.queue.front();
            ni.queue.pop_front();
            st.next = 0;
        }
        for (int j = 0; j < per_vc && sent < inj.lanes && st.pkt; ++j) {
            int &credits = ni.credits[static_cast<std::size_t>(vc)];
            if (credits <= 0)
                break;
            Packet *pkt = st.pkt;
            Flit flit;
            flit.pkt = pkt;
            flit.seq = static_cast<std::uint16_t>(st.next);
            flit.vc = vc;
            bool first = st.next == 0;
            bool last = st.next == pkt->numFlits - 1;
            flit.type = first && last ? FlitType::HeadTail
                        : first       ? FlitType::Head
                        : last        ? FlitType::Tail
                                      : FlitType::Body;
            if (first)
                pkt->injectedAt = now_;
            --credits;
            send(inj, flit);
            r.act.linkBitTraversals += inj.widthBits / inj.lanes;
            ++sent;
            if (++st.next == pkt->numFlits)
                st.pkt = nullptr;
        }
    }
}

void
RefNetwork::eject(Link &l, const Flit &flit)
{
    // The sink always consumes: the credit goes straight back.
    l.credits.push_back({now_ + static_cast<Cycle>(l.creditDelay), flit.vc});
    ++flitsDelivered_;
    if (!flit.isTail())
        return;
    Packet &p = *flit.pkt;
    p.ejectedAt = now_;
    deliveries_.push_back(
        {p.id, p.src, p.dst, p.createdAt, p.injectedAt, p.ejectedAt, p.hops});
    --live_;
}

// ------------------------------------------------------ observation --

const Activity &
RefNetwork::activity(RouterId r) const
{
    return routers_[static_cast<std::size_t>(r)].act;
}

double
RefNetwork::occupancySum(RouterId r) const
{
    return routers_[static_cast<std::size_t>(r)].occupancySum;
}

namespace
{

/** Credits for @p vc on @p queue due before @p now. */
template <typename Queue>
int
dueBefore(const Queue &queue, VcId vc, Cycle now)
{
    int n = 0;
    for (const auto &c : queue)
        n += c.vc == vc && c.due < now;
    return n;
}

} // namespace

int
RefNetwork::outputCredits(RouterId r, PortId p, VcId v) const
{
    const Output &out =
        routers_[static_cast<std::size_t>(r)].out[static_cast<std::size_t>(p)];
    return out.credits[static_cast<std::size_t>(v)] +
           dueBefore(links_[static_cast<std::size_t>(out.link)].credits, v,
                     now_);
}

int
RefNetwork::injectionCredits(NodeId n, VcId v) const
{
    const Ni &ni = nis_[static_cast<std::size_t>(n)];
    return ni.credits[static_cast<std::size_t>(v)] +
           dueBefore(links_[static_cast<std::size_t>(ni.injLink)].credits, v,
                     now_);
}

bool
RefNetwork::auditCredits(std::string *err) const
{
    for (std::size_t i = 0; i < links_.size(); ++i) {
        const Link &l = links_[i];
        bool to_router = l.sinkRouter != INVALID_ROUTER;
        const Router *sink =
            to_router ? &routers_[static_cast<std::size_t>(l.sinkRouter)]
                      : nullptr;
        int vcs = to_router
                      ? sink->vcs
                      : routers_[static_cast<std::size_t>(l.driverRouter)]
                            .vcs;
        for (VcId v = 0; v < vcs; ++v) {
            int held = l.driverNode != INVALID_NODE
                           ? nis_[static_cast<std::size_t>(l.driverNode)]
                                 .credits[static_cast<std::size_t>(v)]
                           : routers_[static_cast<std::size_t>(
                                          l.driverRouter)]
                                 .out[static_cast<std::size_t>(l.driverPort)]
                                 .credits[static_cast<std::size_t>(v)];
            int on_link = 0;
            for (const auto &f : l.flits)
                on_link += f.flit.vc == v;
            for (const auto &c : l.credits)
                on_link += c.vc == v;
            int buffered =
                to_router ? static_cast<int>(
                                sink->in[static_cast<std::size_t>(
                                             l.sinkPort * sink->vcs + v)]
                                    .fifo.size())
                          : 0;
            if (held + on_link + buffered != config_.bufferDepth) {
                if (err) {
                    char buf[128];
                    std::snprintf(buf, sizeof(buf),
                                  "link %zu vc %d: %d held + %d on the "
                                  "link + %d buffered != depth %d",
                                  i, v, held, on_link, buffered,
                                  config_.bufferDepth);
                    *err = buf;
                }
                return false;
            }
        }
    }
    return true;
}

} // namespace ref
} // namespace hnoc
