/**
 * @file
 * The 64-tile CMP of Table 2(a): trace-driven out-of-order-style cores
 * with private L1s, a shared banked L2 with a blocking directory-based
 * MESI protocol, and memory controllers — all communicating over a
 * hnoc::Network. Drives the system-level experiments (Figs 10-14).
 *
 * Clock domains: cores run at a fixed 2.2 GHz; the network runs at its
 * own (worst-case router) clock. The system steps in network cycles
 * and scales core instruction budgets and core-cycle latencies by the
 * clock ratio, so latency comparisons across network configurations
 * are time-correct.
 */

#ifndef HNOC_SYS_CMP_SYSTEM_HH
#define HNOC_SYS_CMP_SYSTEM_HH

#include <array>
#include <deque>
#include <memory>
#include <vector>

#include "common/stats.hh"
#include "noc/network.hh"
#include "sys/cache.hh"
#include "sys/flat_table.hh"
#include "sys/mc_placement.hh"
#include "sys/protocol.hh"
#include "sys/sharer_list.hh"
#include "sys/workloads.hh"

namespace hnoc
{

/** CMP parameters (defaults = Table 2(a)). */
struct CmpConfig
{
    double coreClockGHz = 2.2;

    /** Large/default core: 3-wide, 64-entry window, 16 MSHRs. */
    int issueWidth = 3;
    int windowInstrs = 64;
    int maxOutstanding = 16;

    /** Asymmetric small core (case study II): 1-wide in-order. */
    int smallIssueWidth = 1;
    int smallWindowInstrs = 1;
    int smallMaxOutstanding = 1;
    /** Tiles hosting large cores; empty = all cores are large/default. */
    std::vector<NodeId> largeCoreTiles;
    /** When true, only largeCoreTiles get the big-core parameters and
     *  all other tiles get the small-core parameters. */
    bool asymmetric = false;

    std::uint64_t l1Bytes = 32 * 1024;
    int l1Ways = 4;
    int l1LatencyCoreCycles = 2;

    std::uint64_t l2BankBytes = 1024 * 1024;
    int l2Ways = 16;
    int l2LatencyCoreCycles = 6;

    /** Line size; a power of two of at least 4 B. */
    int blockBytes = 128;

    int dramLatencyCoreCycles = 400;
    /** MC service bandwidth: one request per this many network cycles. */
    int mcServiceInterval = 2;
    McPlacement mcPlacement = McPlacement::Corners;

    std::uint64_t seed = 1;
};

/** Per-packet network latency aggregates (Fig 11 style). */
struct NetLatencyStats
{
    RunningStat totalNs;
    RunningStat queuingNs;
    RunningStat blockingNs;
    RunningStat transferNs;

    void
    reset()
    {
        totalNs.reset();
        queuingNs.reset();
        blockingNs.reset();
        transferNs.reset();
    }
};

/** The full system. */
class CmpSystem : public NetworkClient
{
  public:
    CmpSystem(const NetworkConfig &net_config, const CmpConfig &config);
    ~CmpSystem() override;

    /** Run the same workload on every core. */
    void assignWorkloadAll(const WorkloadProfile &profile);

    /** Run @p profile on one core (others keep their assignment). */
    void assignWorkload(NodeId core, const WorkloadProfile &profile);

    /** Idle a core (no trace; used for IPC-alone runs). */
    void idleCore(NodeId core);

    /**
     * Functional cache warmup: play @p memops_per_core memory
     * operations per core directly against the cache arrays and
     * directory (no timing, no network traffic), eliminating the
     * compulsory-miss cold-start phase before timing simulation.
     * Uses separate generator instances so the timed trace stream is
     * unaffected.
     */
    void warmCaches(int memops_per_core);

    /** Advance the system by @p net_cycles network cycles. */
    void run(Cycle net_cycles);

    /** Clear measurement state (after cache/network warmup). */
    void resetStats();

    /** @name Metrics */
    ///@{
    /** Instructions per core-cycle for @p core over the window. */
    double ipc(NodeId core) const;

    /** Mean IPC over all non-idle cores. */
    double avgIpc() const;

    const NetLatencyStats &netLatency() const { return netStats_; }

    /** Load-miss round trip (issue to data back), core cycles. */
    const RunningStat &roundTripCoreCycles() const { return roundTrip_; }

    PowerBreakdown networkPower() const { return net_->powerReport(); }

    std::uint64_t l1Misses() const;
    std::uint64_t packetsSent() const { return packetsSent_; }

    /** Messages of @p type sent (network + same-tile) since start. */
    std::uint64_t
    msgCount(MsgType type) const
    {
        return msgCounts_[static_cast<std::size_t>(type)];
    }
    ///@}

    Network &network() { return *net_; }
    const CmpConfig &config() const { return config_; }

    /**
     * Per-component memory breakdown: the network's audit extended
     * with the L1/L2 arrays, the full-map MESI directory (the
     * O(tiles)-per-line structure flagged by ROADMAP item 1), live
     * directory transactions, and the message arena. Directory bytes
     * scale with tracked lines × sharer-list length, so run it after
     * warmup for a representative number.
     */
    MemoryAudit memoryAudit() const;

    /** NetworkClient interface. */
    void preCycle(Network &net, Cycle now) override;
    void onPacketDelivered(Network &net, Packet &pkt, Cycle now) override;

  private:
    struct OutstandingLoad
    {
        std::uint64_t reqId;
        Addr block;
        std::uint64_t atInstr; ///< retired-instruction count at issue
    };

    struct Mshr
    {
        Cycle issuedAt = 0;
        bool isWrite = false;
        bool invalidatedWhilePending = false;
    };

    /**
     * A core's outstanding misses: at most maxOutstanding entries in
     * fixed arrays, unordered, searched linearly. Blocks are kept apart
     * from their state so a 16-entry search reads 128 bytes.
     */
    struct MshrFile
    {
        std::vector<Addr> blocks;
        std::vector<Mshr> entries;

        Mshr *
        find(Addr block)
        {
            for (std::size_t i = 0; i < blocks.size(); ++i) {
                if (blocks[i] == block)
                    return &entries[i];
            }
            return nullptr;
        }

        int size() const { return static_cast<int>(blocks.size()); }

        void
        add(Addr block, const Mshr &mshr)
        {
            blocks.push_back(block);
            entries.push_back(mshr);
        }

        /** Remove @p mshr (from find()) by moving the last entry in. */
        void
        erase(Mshr *mshr)
        {
            auto i = static_cast<std::size_t>(mshr - entries.data());
            blocks[i] = blocks.back();
            entries[i] = entries.back();
            blocks.pop_back();
            entries.pop_back();
        }
    };

    struct Core
    {
        bool idle = true;
        std::unique_ptr<TraceGenerator> gen;
        std::unique_ptr<CacheArray> l1;

        double issueRate = 3.0; ///< instructions per network cycle
        int window = 64;
        int maxOutstanding = 16;

        double budget = 0.0;
        std::uint64_t retired = 0;
        TraceRecord pending;
        bool hasPending = false;
        int nonMemLeft = 0;

        /** Loads in issue order; at most maxOutstanding. */
        std::vector<OutstandingLoad> loads;
        MshrFile mshrs;
        std::uint64_t nextReqId = 1;

        std::uint64_t l1Hits = 0;
        std::uint64_t l1Misses = 0;
        std::uint64_t retiredAtReset = 0;
    };

    /** Blocking-directory transaction state for one block. */
    struct Txn
    {
        MsgType req = MsgType::GetS;
        NodeId requester = INVALID_NODE;
        std::uint64_t reqId = 0;
        int pendingInvAcks = 0;
        bool waitingMem = false;
        bool waitingOwner = false;
        bool upgrade = false; ///< requester already held the line shared
        std::vector<Msg> deferred; ///< conflicting requests, in arrival order
    };

    /** 24 bytes, so a directory slot (block key + entry) is 32. */
    struct DirEntry
    {
        /** In registration order: Inv messages go out in this order. */
        SharerList sharers;
        NodeId owner = INVALID_NODE;
        bool exclusive = false;
    };

    /**
     * Home bank: L2 data array, full-map directory and the blocking
     * directory's open transactions, each table keyed by block with
     * its entry inline (FlatTable). Per FlatTable's contract, a
     * DirEntry& or Txn& is invalid after an insert into or erase from
     * its table; handlers look entries up again after any call that
     * can start or finish a transaction (dirStartTxn, dirFinishTxn).
     */
    struct Bank
    {
        std::unique_ptr<CacheArray> l2;
        FlatTable<DirEntry> dir;
        FlatTable<Txn> busy{8};
    };

    struct MemController
    {
        bool present = false;
        std::deque<Msg> queue;
        Cycle nextFree = 0;
    };

    /** Deferred message processing (models controller latencies). */
    struct Event
    {
        Cycle at;
        NodeId tile; ///< handler tile, or destination when isSend
        Msg msg;
        bool isSend = false; ///< emit msg from src to tile at `at`
        NodeId src = INVALID_NODE;
    };

    // --- helpers -------------------------------------------------------
    Cycle coreToNet(int core_cycles) const;
    NodeId homeTile(Addr block) const;
    void stepCore(NodeId id, Core &core, Cycle now);
    bool issueMemOp(NodeId id, Core &core, const TraceRecord &rec,
                    Cycle now);
    void installLine(NodeId id, Core &core, Addr block, CacheState state,
                     Cycle now);
    void completeLoads(NodeId id, Core &core, Addr block, Cycle now);

    void schedule(const Event &ev);
    void drainEvents(Cycle now);
    void dispatch(const Event &ev, Cycle now);

    void sendMsg(NodeId src, NodeId dst, const Msg &msg, Cycle now);
    void handleMsg(NodeId tile, const Msg &msg, Cycle now);

    void coreHandle(NodeId tile, const Msg &msg, Cycle now);
    void dirHandle(NodeId tile, const Msg &msg, Cycle now);
    void mcHandle(NodeId tile, const Msg &msg, Cycle now);

    void dirStartTxn(NodeId tile, const Msg &msg, Cycle now);
    void dirFinishTxn(NodeId tile, Addr block, Cycle now);
    void dirRespond(NodeId tile, Addr block, Txn &txn, Cycle now);

    Msg *allocMsg(const Msg &proto);
    void freeMsg(Msg *msg);

    // --- state ---------------------------------------------------------
    CmpConfig config_;
    std::unique_ptr<Network> net_;
    double clkRatio_ = 1.0; ///< coreClock / netClock

    std::vector<Core> cores_;
    std::vector<Bank> banks_;
    std::vector<MemController> mcs_;
    std::vector<NodeId> mcTiles_;

    /**
     * Calendar queue of controller events: bucket `at & (size - 1)`
     * holds the events due at cycle `at` in scheduling order (FIFO).
     * The ring spans the longest controller latency (up to 4096
     * cycles), so a bucket holds one cycle's events; an event of a
     * later lap (a longer delay, or a gap in preCycle calls) stays in
     * its bucket until its own cycle.
     */
    std::vector<std::vector<Event>> ring_;
    /** Events scheduled for an already-drained cycle (zero-latency
     *  controllers); they precede every ring event. */
    std::vector<Event> late_;
    Cycle nextCycle_ = 0; ///< first cycle whose bucket is not drained

    std::deque<std::unique_ptr<Msg>> msgArena_;
    std::vector<Msg *> msgFree_;

    // measurement
    NetLatencyStats netStats_;
    RunningStat roundTrip_;
    Cycle statsStart_ = 0;
    std::uint64_t packetsSent_ = 0;
    std::array<std::uint64_t, 16> msgCounts_{};
};

} // namespace hnoc

#endif // HNOC_SYS_CMP_SYSTEM_HH
