/**
 * @file
 * A plain reference network: the oracle that Network is tested
 * against.
 *
 * It re-implements the router model of DESIGN.md §2, §6a, §6d and §6i
 * from the rules, not from the optimized code: one std::deque per input
 * VC, plain delay queues for the links, and one loop that steps every
 * link, router and NI every cycle. There are no bitmaps, no active sets
 * and no ring buffers, and it includes none of router_core.hh,
 * router.hh, channel.hh, network_interface.hh, active_set.hh,
 * ring_buffer.hh or common/bitops.hh. What it shares with Network are
 * the pure, separately tested parts: NetworkConfig, Topology,
 * RoutingAlgorithm, Flit/Packet and (in the tests) TrafficGenerator.
 *
 * The rules it follows:
 *  - 2-stage router: a flit written at cycle t may route, win VA and
 *    win SA from t + 1 on; SA sends it into a link that delivers it
 *    pipelineStages - 1 + linkLatency cycles later (linkLatency for
 *    injection links). Credits travel back in linkLatency cycles.
 *  - RC, then VA, then SA within a router's cycle. VA starts its
 *    round-robin walk over the input VCs at now % inputVcs; SA of
 *    output o starts at (rrOffset[o] + now) % inputVcs, and rrOffset
 *    moves only by the number of flits granted.
 *  - An input port reads at most two flits per cycle, both for one
 *    output (the DSET crossbar split, §3.2). A link of two or more
 *    lanes takes two flits per cycle: two VCs of one input, two
 *    inputs (cross-VC combining, §3.3) or, with intraPacketPairing,
 *    the next flit of the same packet right behind the first (two
 *    credits of one downstream VC).
 *  - SaPolicy::OldestFirst orders the SA candidates by the cycle their
 *    head became ready (stable in round-robin order). A table-routed
 *    head that waits more than escapeThreshold cycles for a VC falls
 *    back to the X-Y escape layer.
 *  - Credits are pulled by the component that reads them: an output's
 *    credits when its SA runs with a candidate, an NI's when it steps.
 *  - NIs inject round-robin over their VCs from now % vcs, at most one
 *    flit per lane per cycle and (on wide links with pairing) two of
 *    one packet per VC; ejection consumes at once and returns the
 *    credit.
 */

#ifndef HNOC_TESTS_REFERENCE_REF_NETWORK_HH
#define HNOC_TESTS_REFERENCE_REF_NETWORK_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hh"
#include "noc/flit.hh"
#include "noc/network_config.hh"
#include "noc/routing.hh"
#include "noc/topology.hh"

namespace hnoc
{
namespace ref
{

/** One delivered packet, in the order the networks deliver them. */
struct Delivery
{
    PacketId id = 0;
    NodeId src = INVALID_NODE;
    NodeId dst = INVALID_NODE;
    Cycle created = 0;
    Cycle injected = 0;
    Cycle ejected = 0;
    int hops = 0;

    bool operator==(const Delivery &) const = default;
};

/** A router's event counts (the power model's activity inputs). */
struct Activity
{
    std::uint64_t bufferWrites = 0;
    std::uint64_t bufferReads = 0;
    std::uint64_t xbarTraversals = 0;
    std::uint64_t arbOps = 0;
    double linkBitTraversals = 0.0;
};

/** The reference network. */
class RefNetwork
{
  public:
    explicit RefNetwork(const NetworkConfig &config);

    /** Queue a packet at @p src's NI, as Network::enqueuePacket. */
    void enqueuePacket(NodeId src, NodeId dst, int num_flits);

    /** Advance one cycle. */
    void step();

    Cycle now() const { return now_; }
    const std::vector<Delivery> &deliveries() const { return deliveries_; }
    std::uint64_t flitsDelivered() const { return flitsDelivered_; }
    std::size_t packetsInFlight() const { return live_; }

    /** @name Per-component state, indexed as in Network */
    ///@{
    int numRouters() const { return static_cast<int>(routers_.size()); }
    const Activity &activity(RouterId r) const;
    double occupancySum(RouterId r) const;

    /** Links in Network's channel order. */
    std::size_t numLinks() const { return links_.size(); }
    std::uint64_t busyCycles(std::size_t i) const { return links_[i].busy; }
    std::uint64_t pairedCycles(std::size_t i) const
    {
        return links_[i].paired;
    }
    std::uint64_t flitsSent(std::size_t i) const { return links_[i].sent; }

    /** Credits router @p r holds for downstream VC @p v of output
     *  @p p at the step boundary, due-but-unpulled ones included. */
    int outputCredits(RouterId r, PortId p, VcId v) const;
    /** The same for node @p n's injection credits. */
    int injectionCredits(NodeId n, VcId v) const;
    ///@}

    /**
     * For every link and downstream VC: driver credits + flits and
     * credits on the link + flits buffered at the sink must equal the
     * buffer depth. @return false (with @p err set) on the first break.
     */
    bool auditCredits(std::string *err) const;

  private:
    /** A unidirectional link: a flit delay queue and a credit delay
     *  queue back to its driver. Exactly one of sinkRouter/sinkNode and
     *  of driverRouter/driverNode is valid. */
    struct Link
    {
        int widthBits = 0;
        int lanes = 1;
        int flitDelay = 1;
        int creditDelay = 1;
        struct TimedFlit
        {
            Cycle due;
            Flit flit;
        };
        struct TimedCredit
        {
            Cycle due;
            VcId vc;
        };
        std::deque<TimedFlit> flits;
        std::deque<TimedCredit> credits;
        RouterId sinkRouter = INVALID_ROUTER;
        PortId sinkPort = INVALID_PORT;
        NodeId sinkNode = INVALID_NODE;
        RouterId driverRouter = INVALID_ROUTER;
        PortId driverPort = INVALID_PORT;
        NodeId driverNode = INVALID_NODE;

        Cycle lastSend = CYCLE_NEVER;
        int sendsThisCycle = 0;
        std::uint64_t busy = 0;   ///< cycles with at least one flit sent
        std::uint64_t paired = 0; ///< cycles with two or more
        std::uint64_t sent = 0;
    };

    /** One input VC: its FIFO and the packet it is forwarding. */
    struct InputVc
    {
        std::deque<Flit> fifo;
        bool routed = false; ///< the front packet has its output port
        Packet *pkt = nullptr;
        PortId outPort = INVALID_PORT;
        VcId outVc = INVALID_VC; ///< downstream VC once VA granted one
        VcId vcLo = 0;           ///< admissible downstream VCs
        VcId vcHi = -1;
        Cycle since = 0; ///< when the head last became ready to move
    };

    /** One output port: its link and the downstream VCs it feeds. */
    struct Output
    {
        int link = -1; ///< index into links_, -1 when unconnected
        std::vector<bool> allocated; ///< per downstream VC
        std::vector<int> credits;    ///< per downstream VC, pulled
        int rrOffset = 0;
    };

    struct Router
    {
        RouterId id = 0;
        int vcs = 0;
        std::vector<InputVc> in; ///< index port * vcs + vc
        std::vector<int> inLink; ///< upstream link per input port
        std::vector<Output> out;
        std::vector<int> reads;   ///< SA reads per input port, this cycle
        std::vector<PortId> readFor; ///< the output those reads feed
        int flits = 0;
        Activity act;
        double occupancySum = 0.0;
    };

    struct Ni
    {
        RouterId router = 0;
        int injLink = -1;
        int ejLink = -1;
        std::deque<Packet *> queue;
        struct Stream
        {
            Packet *pkt = nullptr;
            int next = 0; ///< seq of the next flit to send
        };
        std::vector<Stream> streams; ///< per router VC
        std::vector<int> credits;    ///< per router VC, pulled
    };

    int addLink(int width_bits, int flit_delay, int credit_delay);
    void send(Link &link, const Flit &flit);
    void pullCredits(Link &link, std::vector<int> &credits);

    void receive(Router &r, PortId p, Flit flit);
    void eject(Link &link, const Flit &flit);
    bool ready(const InputVc &in) const;
    void route(Router &r, InputVc &in);

    void stepRouter(Router &r);
    void routeCompute(Router &r);
    void vcAllocate(Router &r);
    void switchAllocate(Router &r, PortId o);
    bool sendFlit(Router &r, int slot, PortId o);
    void stepNi(Ni &ni);

    NetworkConfig config_;
    std::unique_ptr<Topology> topo_;
    std::unique_ptr<RoutingAlgorithm> routing_;

    std::vector<Link> links_;
    std::vector<Router> routers_;
    std::vector<Ni> nis_;
    std::deque<Packet> packets_; ///< never recycled

    Cycle now_ = 0;
    PacketId nextId_ = 1;
    std::size_t live_ = 0;
    std::uint64_t flitsDelivered_ = 0;
    std::vector<Delivery> deliveries_;
};

} // namespace ref
} // namespace hnoc

#endif // HNOC_TESTS_REFERENCE_REF_NETWORK_HH
