/**
 * @file
 * Data-oriented (structure-of-arrays) router state.
 *
 * The per-cycle router hot path used to traverse per-port/per-VC
 * objects; at mid load that traversal — not idle-component iteration —
 * is the dominant cost (VA scanned every slot, SA scanned every slot
 * once per output port). RouterCore packs the per-input-VC pipeline
 * state into parallel arrays indexed by slot = port * vcs + vc, and
 * keeps the allocator request sets as bitmasks with one bit per slot:
 *
 *  - rcMask:    head flit buffered, route not yet computed;
 *  - vaReqMask: route computed, no downstream VC allocated yet;
 *  - saReqMask: per output port — slots whose packet holds a VC on
 *               that port (the SA candidate set).
 *
 * VA/SA then iterate only the set bits, in the same rotating-priority
 * order as the legacy per-candidate loops (bitops::forEachSetCyclic),
 * so grant sequences — and therefore simulation results — are
 * bit-identical; see DESIGN.md "SoA router core".
 *
 * Hot/cold packing (§6g): the parallel arrays and request masks are
 * not separate vectors but raw pointers into one owned, 64-byte
 * aligned buffer, each section starting on its own cache line. A
 * cycle's RC/VA/SA work therefore streams one contiguous region per
 * router instead of a dozen scattered heap blocks. Each slot's input
 * FIFO is a head/count cursor pair in that hot buffer over one
 * contiguous flit store (slot s owns flits [s*cap, (s+1)*cap)). Per-
 * output downstream credit counters are likewise packed into a second
 * aligned buffer (one 64-byte-aligned row per output port) built by
 * finalizeWiring() once all ports are connected.
 *
 * Everything is sized exactly once (init / finalizeWiring), so the
 * steady state performs zero heap allocations (test_perf_zero_alloc,
 * which also pins the sizing formulas below).
 */

#ifndef HNOC_NOC_ROUTER_CORE_HH
#define HNOC_NOC_ROUTER_CORE_HH

#include <cstdint>
#include <vector>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "common/types.hh"
#include "noc/flit.hh"

namespace hnoc
{

class Channel;

/** SoA input-VC state plus per-output-port allocator state. */
struct RouterCore
{
    /** Output-port allocator state. Downstream-VC credit counts live
     *  in a per-port row of the packed credit buffer (indexed by
     *  downstream VC); the allocated set is a single word, bounding
     *  downstream VC counts at 64. */
    struct Output
    {
        Channel *chan = nullptr;
        int lanes = 1;
        int downVcs = 0;
        std::uint64_t allocMask = 0; ///< allocated downstream VCs
        int *credits = nullptr;      ///< per downstream VC (packed row)
        /** Grant-driven part of the SA rotating pointer, in [0,
         *  total); the per-cycle part is implicit (ptr = (rrOffset +
         *  now) % total), so skipped idle cycles cannot desynchronise
         *  it. */
        unsigned rrOffset = 0;
        /** Initial credit count, held until finalizeWiring(). */
        int initDepth = 0;
    };

    int ports = 0;
    int vcs = 0;
    int total = 0; ///< ports * vcs input-VC slots
    int words = 0; ///< 64-bit words per slot mask
    int fifoCap = 0; ///< flit slots per FIFO (depth rounded to 2^k)

    /** @name Per-slot parallel arrays (slot = port * vcs + vc),
     *  pointing into the packed hot buffer (hotStore_) */
    ///@{
    Flit *fifoFlits = nullptr; ///< slot s at [s*fifoCap, (s+1)*fifoCap)
    int *fifoHead = nullptr;   ///< front index within the slot's ring
    int *fifoCount = nullptr;  ///< buffered flits
    PortId *outPort = nullptr;
    VcId *outVc = nullptr; ///< INVALID until VA succeeds
    VcId *vcLo = nullptr;  ///< admissible downstream VC range
    VcId *vcHi = nullptr;
    Cycle *headSince = nullptr;  ///< when the head became ready
    Cycle *headArrive = nullptr; ///< head flit's buffer-write cycle
                                 ///< (CYCLE_NEVER while empty)
    Packet **pkt = nullptr;
    ///@}

    /** @name Request bitmasks, one bit per slot (hot buffer) */
    ///@{
    std::uint64_t *activeMask = nullptr; ///< slot owns a route
    std::uint64_t *rcMask = nullptr;     ///< head awaiting RC
    std::uint64_t *vaReqMask = nullptr;  ///< awaiting a VC grant
    /** SA candidates per output port, flattened [port * words]. */
    std::uint64_t *saReqMask = nullptr;
    ///@}

    /** @name Per-input-port SA scratch (hot buffer): grants issued
     *  this cycle and the output port they fed (the DSET two-reads /
     *  same-output constraint). Living in the packed buffer keeps the
     *  per-cycle reset off scattered heap lines. */
    ///@{
    int *saGrants = nullptr;
    PortId *saGrantOut = nullptr;
    ///@}

    std::vector<Channel *> inChan; ///< upstream channel per input port
    std::vector<Output> outputs;

    void
    init(int num_ports, int num_vcs, int buffer_depth)
    {
        ports = num_ports;
        vcs = num_vcs;
        total = num_ports * num_vcs;
        words = bitops::maskWords(total);

        // Pack every slot's FIFO ring into one contiguous per-router
        // allocation (§6g): slot i owns fifoStore_[i*cap, (i+1)*cap),
        // indexed by its head/count cursors in the hot buffer. The
        // power-of-two capacity makes the wrap a mask.
        auto n = static_cast<std::size_t>(total);
        fifoCap = 1;
        while (fifoCap < buffer_depth)
            fifoCap <<= 1;
        fifoStore_.assign(n * static_cast<std::size_t>(fifoCap), Flit{});
        fifoFlits = fifoStore_.data();

        // Lay the masks and slot arrays out in one aligned buffer:
        // every section starts on a 64-byte boundary (units below are
        // uint64 words; 8 words = one cache line).
        auto w = static_cast<std::size_t>(words);
        std::size_t u32Sect = alignLine((n + 1) / 2); // n int32 values
        std::size_t u64Sect = alignLine(n);
        std::size_t off = 0;
        std::size_t offActive = off;
        off += alignLine(w);
        std::size_t offRc = off;
        off += alignLine(w);
        std::size_t offVa = off;
        off += alignLine(w);
        std::size_t offSa = off;
        off += alignLine(w * static_cast<std::size_t>(ports));
        std::size_t offHeadArrive = off;
        off += u64Sect;
        std::size_t offHeadSince = off;
        off += u64Sect;
        std::size_t offPkt = off;
        off += u64Sect;
        std::size_t offOutPort = off;
        off += u32Sect;
        std::size_t offOutVc = off;
        off += u32Sect;
        std::size_t offVcLo = off;
        off += u32Sect;
        std::size_t offVcHi = off;
        off += u32Sect;
        std::size_t offFifoHead = off;
        off += u32Sect;
        std::size_t offFifoCount = off;
        off += u32Sect;
        std::size_t portSect =
            alignLine((static_cast<std::size_t>(ports) + 1) / 2);
        std::size_t offSaGrants = off;
        off += portSect;
        std::size_t offSaGrantOut = off;
        off += portSect;

        hotStore_.assign(off + kLineWords, 0);
        std::uint64_t *base = alignedBase();
        activeMask = base + offActive;
        rcMask = base + offRc;
        vaReqMask = base + offVa;
        saReqMask = base + offSa;
        headArrive = base + offHeadArrive;
        headSince = base + offHeadSince;
        pkt = reinterpret_cast<Packet **>(base + offPkt);
        outPort = reinterpret_cast<PortId *>(base + offOutPort);
        outVc = reinterpret_cast<VcId *>(base + offOutVc);
        vcLo = reinterpret_cast<VcId *>(base + offVcLo);
        vcHi = reinterpret_cast<VcId *>(base + offVcHi);
        fifoHead = reinterpret_cast<int *>(base + offFifoHead);
        fifoCount = reinterpret_cast<int *>(base + offFifoCount);
        saGrants = reinterpret_cast<int *>(base + offSaGrants);
        saGrantOut = reinterpret_cast<PortId *>(base + offSaGrantOut);

        for (int p = 0; p < ports; ++p) {
            saGrants[p] = 0;
            saGrantOut[p] = INVALID_PORT;
        }

        for (std::size_t i = 0; i < n; ++i) {
            outPort[i] = INVALID_PORT;
            outVc[i] = INVALID_VC;
            vcLo[i] = 0;
            vcHi[i] = 0;
            headSince[i] = 0;
            headArrive[i] = CYCLE_NEVER;
            pkt[i] = nullptr;
            fifoHead[i] = 0;
            fifoCount[i] = 0;
        }

        inChan.assign(static_cast<std::size_t>(ports), nullptr);
        outputs.assign(static_cast<std::size_t>(ports), Output{});
        creditStore_.clear();
    }

    int
    slot(PortId p, VcId v) const
    {
        return p * vcs + v;
    }

    bool
    active(int s) const
    {
        return bitops::maskTest(activeMask, s);
    }

    /** @name Slot FIFOs (capacity bounded by credits, unchecked) */
    ///@{
    int fifoSize(int s) const { return fifoCount[s]; }

    const Flit &
    fifoFront(int s) const
    {
        return fifoFlits[s * fifoCap + fifoHead[s]];
    }

    void
    fifoPush(int s, const Flit &f)
    {
        fifoFlits[s * fifoCap + ((fifoHead[s] + fifoCount[s]) &
                                 (fifoCap - 1))] = f;
        ++fifoCount[s];
    }

    void
    fifoPop(int s)
    {
        fifoHead[s] = (fifoHead[s] + 1) & (fifoCap - 1);
        --fifoCount[s];
    }
    ///@}

    /** SA candidate mask of output port @p p. */
    std::uint64_t *
    saReq(PortId p)
    {
        return saReqMask + static_cast<std::size_t>(p) *
                               static_cast<std::size_t>(words);
    }

    const std::uint64_t *
    saReq(PortId p) const
    {
        return saReqMask + static_cast<std::size_t>(p) *
                               static_cast<std::size_t>(words);
    }

    /** Wire output port @p p. @p down_vcs is capped at 64 by the
     *  single-word allocated/credit masks. Credit counters become
     *  live when finalizeWiring() packs them. */
    void
    connectOutput(PortId p, Channel *chan, int chan_lanes, int down_vcs,
                  int down_depth)
    {
        if (down_vcs > bitops::kWordBits)
            fatal("router core: %d downstream VCs exceed the 64-wide "
                  "allocator mask", down_vcs);
        Output &op = outputs[static_cast<std::size_t>(p)];
        op.chan = chan;
        op.lanes = chan_lanes;
        op.downVcs = down_vcs;
        op.allocMask = 0;
        op.credits = nullptr;
        op.initDepth = down_depth;
    }

    /**
     * Pack per-output credit counters into one aligned buffer — one
     * 64-byte-aligned row of roundUp(max downVcs, 16) ints per port —
     * and point every Output::credits at its row. Call once, after
     * the last connectOutput(); allocates the only storage that
     * cannot be sized in init() (downstream VC counts are
     * heterogeneous and only known after wiring).
     */
    void
    finalizeWiring()
    {
        int maxVcs = 0;
        for (const Output &op : outputs)
            maxVcs = op.downVcs > maxVcs ? op.downVcs : maxVcs;
        if (maxVcs == 0)
            return;
        auto row = static_cast<std::size_t>((maxVcs + 15) / 16) * 16;
        creditStore_.assign(static_cast<std::size_t>(ports) * row + 16, 0);
        auto addr = reinterpret_cast<std::uintptr_t>(creditStore_.data());
        int *base = creditStore_.data() +
                    (64 - addr % 64) % 64 / sizeof(int);
        for (std::size_t p = 0; p < outputs.size(); ++p) {
            Output &op = outputs[p];
            op.credits = base + p * row;
            for (int v = 0; v < op.downVcs; ++v)
                op.credits[v] = op.initDepth;
        }
    }

    /**
     * Steady-state memory footprint of the SoA arrays: the packed FIFO
     * flit store, the packed hot buffer (slot arrays, FIFO cursors,
     * request bitmasks), and the packed per-output credit buffer.
     * Everything here is sized once in init() / finalizeWiring(), so
     * the value is constant after wiring — the sizing contract tests
     * pin it against the layout formulas.
     */
    std::uint64_t
    footprintBytes() const
    {
        std::uint64_t b = 0;
        b += fifoStore_.size() * sizeof(Flit);
        b += hotStore_.size() * sizeof(std::uint64_t);
        b += creditStore_.size() * sizeof(int);
        b += inChan.capacity() * sizeof(Channel *);
        b += outputs.capacity() * sizeof(Output);
        return b;
    }

    /** Mirror the head-of-FIFO arrival cycle after a pop. */
    void
    refreshHead(int s)
    {
        headArrive[s] =
            fifoCount[s] == 0 ? CYCLE_NEVER : fifoFront(s).arrivedAt;
    }

  private:
    static constexpr std::size_t kLineWords = 8; ///< u64s per cache line

    /** Round a section size up to whole cache lines (in u64 units). */
    static std::size_t
    alignLine(std::size_t u64s)
    {
        return (u64s + kLineWords - 1) / kLineWords * kLineWords;
    }

    /** First 64-byte-aligned word inside hotStore_. */
    std::uint64_t *
    alignedBase()
    {
        auto addr = reinterpret_cast<std::uintptr_t>(hotStore_.data());
        return hotStore_.data() + (64 - addr % 64) % 64 / sizeof(std::uint64_t);
    }

    /** Backing storage for all slot FIFOs (fifoFlits). */
    std::vector<Flit> fifoStore_;
    /** Backing storage of the aligned hot sections (+1 line of
     *  alignment slack). */
    std::vector<std::uint64_t> hotStore_;
    /** Backing storage of the packed credit rows (+64 B slack). */
    std::vector<int> creditStore_;
};

} // namespace hnoc

#endif // HNOC_NOC_ROUTER_CORE_HH
