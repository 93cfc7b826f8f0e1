/**
 * @file
 * Unidirectional flit channel with a reverse credit path.
 *
 * A channel has a fixed width in bits; its lane count (width divided by
 * the network flit width) is the number of flits it can carry per cycle.
 * Wide 256 b channels in HeteroNoC carry two combined 128 b flits per
 * cycle (§3.2). Delivery is a simple constant-delay pipe.
 *
 * Both pipes are fixed-capacity ring buffers. The flit pipe is drained
 * every cycle it is non-empty (the Network scans every busy channel),
 * and at most max(lanes, 2) flits enter per cycle, each drained within
 * delay + 1 cycles, so max(lanes, 2) * (delay + 2) slots never
 * overflow. Credits are pulled by the channel's driver (DESIGN.md
 * §6i), which may sit idle with credits queued; per VC the credits in
 * the pipe never exceed the downstream buffer depth (credit
 * conservation), so the credit pipe also holds downVcs * depth. The
 * steady state therefore allocates nothing.
 */

#ifndef HNOC_NOC_CHANNEL_HH
#define HNOC_NOC_CHANNEL_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/ring_buffer.hh"
#include "noc/active_set.hh"
#include "noc/flit.hh"
#include "noc/probe.hh"

namespace hnoc
{

/** Constant-latency flit pipe plus reverse credit pipe. */
class Channel
{
  public:
    /**
     * @param width_bits physical wire width
     * @param lanes flits transferable per cycle (width / flit width)
     * @param flit_delay cycles from send to delivery (includes the
     *        sender's switch-traversal stage)
     * @param credit_delay cycles for the reverse credit path
     * @param credit_slots credits the sink can hold outstanding
     *        (downstream VCs x buffer depth): the credit pipe's bound
     *        while the driver leaves due credits undrained
     */
    Channel(int id, int width_bits, int lanes, int flit_delay,
            int credit_delay, int credit_slots = 0)
        : id_(id), widthBits_(width_bits), lanes_(lanes),
          flitDelay_(flit_delay), creditDelay_(credit_delay),
          flitPipe_(pipeCapacity(lanes, flit_delay)),
          creditPipe_(std::max(pipeCapacity(lanes, credit_delay),
                               static_cast<std::size_t>(credit_slots)))
    {}

    int id() const { return id_; }
    int widthBits() const { return widthBits_; }
    int lanes() const { return lanes_; }
    int flitDelay() const { return flitDelay_; }

    /** Send a flit; it is delivered at now + flitDelay. */
    void
    sendFlit(const Flit &flit, Cycle now)
    {
        bool paired = false;
        if (now == lastSendCycle_) {
            ++sendsThisCycle_;
            if (sendsThisCycle_ > lanes_)
                panic("channel %d oversubscribed (%d lanes)", id_, lanes_);
            if (sendsThisCycle_ == 2) {
                ++pairedCycles_;
                paired = true;
            }
        } else {
            lastSendCycle_ = now;
            sendsThisCycle_ = 1;
            ++busyCycles_;
        }
        ++flitsSent_;
        if (probe_)
            probe_->linkFlit(driverRouter_, driverPort_, paired);
        flitPipe_.push_back(
            {now + static_cast<Cycle>(flitDelay_), flit});
        slot_.markBusy();
    }

    /** Send a credit for @p vc back to the channel's driver, which
     *  pulls it with deliverCreditsTo (nothing is woken). */
    void
    sendCredit(VcId vc, Cycle now)
    {
        creditPipe_.push_back(
            {now + static_cast<Cycle>(creditDelay_), vc});
    }

    /**
     * Deliver flits arriving at @p now straight to @p sink (called as
     * sink(const Flit &)) without staging them in a scratch vector.
     * @return count delivered.
     */
    template <typename Sink>
    int
    deliverFlitsTo(Cycle now, Sink &&sink)
    {
        int n = 0;
        while (!flitPipe_.empty() && flitPipe_.front().at <= now) {
            sink(flitPipe_.front().flit);
            flitPipe_.pop_front();
            ++n;
        }
        if (idle())
            slot_.markIdle();
        return n;
    }

    /** Collect flits arriving at @p now. @return count delivered. */
    int
    deliverFlits(Cycle now, std::vector<Flit> &out)
    {
        return deliverFlitsTo(now,
                              [&](const Flit &f) { out.push_back(f); });
    }

    /** Deliver every credit due by @p now straight to @p sink (called
     *  as sink(VcId, Cycle due)), oldest first. @return count. */
    template <typename Sink>
    int
    deliverCreditsTo(Cycle now, Sink &&sink)
    {
        int n = 0;
        while (!creditPipe_.empty() && creditPipe_.front().at <= now) {
            sink(creditPipe_.front().vc, creditPipe_.front().at);
            creditPipe_.pop_front();
            ++n;
        }
        return n;
    }

    /** Collect credits due by @p now. @return count delivered. */
    int
    deliverCredits(Cycle now, std::vector<VcId> &out)
    {
        return deliverCreditsTo(
            now, [&](VcId vc, Cycle) { out.push_back(vc); });
    }

    /** No flit in flight (queued credits never make a channel busy). */
    bool idle() const { return flitPipe_.empty(); }

    /** Join @p list (at local index @p local) as a flit-delivery
     *  member; a channel is a member while its flit pipe is busy. */
    void
    bindActivitySlot(ActiveList *list, std::uint32_t local)
    {
        slot_.bind(list, local);
        if (!idle())
            slot_.markBusy();
    }

    /** @name In-flight introspection (conservation audit) */
    ///@{
    /** Flits for @p vc currently in the forward pipe. */
    int
    pipeFlits(VcId vc) const
    {
        int n = 0;
        for (std::size_t i = 0; i < flitPipe_.size(); ++i)
            if (flitPipe_[i].flit.vc == vc)
                ++n;
        return n;
    }

    /** Credits for @p vc still in flight at the step boundary before
     *  cycle @p now (due at or after @p now). */
    int
    pipeCredits(VcId vc, Cycle now) const
    {
        return countCredits(vc, [&](Cycle at) { return at >= now; });
    }

    /** Credits for @p vc due before cycle @p now that the driver has
     *  not pulled yet; the driver's accessors count them as held. */
    int
    dueCredits(VcId vc, Cycle now) const
    {
        return countCredits(vc, [&](Cycle at) { return at < now; });
    }
    ///@}

    /** @name Measurement counters (reset via resetStats). */
    ///@{
    std::uint64_t flitsSent() const { return flitsSent_; }
    std::uint64_t busyCycles() const { return busyCycles_; }
    std::uint64_t pairedCycles() const { return pairedCycles_; }

    void
    resetStats()
    {
        flitsSent_ = 0;
        busyCycles_ = 0;
        pairedCycles_ = 0;
    }

    /** Flit-lane utilization over @p cycles elapsed cycles. */
    double
    laneUtilization(std::uint64_t cycles) const
    {
        if (cycles == 0)
            return 0.0;
        return static_cast<double>(flitsSent_) /
               (static_cast<double>(lanes_) * static_cast<double>(cycles));
    }
    ///@}

    /** Steady-state memory footprint: both pipes plus the object.
     *  Pipe capacities are fixed at construction, so this is constant
     *  over a channel's lifetime. */
    std::uint64_t
    footprintBytes() const
    {
        return static_cast<std::uint64_t>(sizeof(*this)) +
               static_cast<std::uint64_t>(flitPipe_.capacity()) *
                   sizeof(TimedFlit) +
               static_cast<std::uint64_t>(creditPipe_.capacity()) *
                   sizeof(TimedCredit);
    }

    /**
     * Point the link-flit hook at @p probe (nullptr detaches); events
     * are attributed to the driving router's (router, out-port) pair.
     */
    void
    setProbe(const Probe *probe, RouterId driver_router,
             PortId driver_port)
    {
        probe_ = probe;
        driverRouter_ = driver_router;
        driverPort_ = driver_port;
    }

  private:
    struct TimedFlit
    {
        Cycle at = 0;
        Flit flit;
    };

    struct TimedCredit
    {
        Cycle at = 0;
        VcId vc = 0;
    };

    template <typename Pred>
    int
    countCredits(VcId vc, Pred &&pred) const
    {
        int n = 0;
        for (std::size_t i = 0; i < creditPipe_.size(); ++i)
            if (creditPipe_[i].vc == vc && pred(creditPipe_[i].at))
                ++n;
        return n;
    }

    /** Occupancy bound of a pipe drained every cycle: <= max(lanes,
     *  2) sends per cycle, each drained within delay + 1 cycles (+1
     *  slack for the same-cycle window). */
    static std::size_t
    pipeCapacity(int lanes, int delay)
    {
        int rate = lanes > 2 ? lanes : 2;
        return static_cast<std::size_t>(rate) *
               static_cast<std::size_t>(delay + 2);
    }

    // Hot-first member order (§6g): everything the per-cycle send /
    // deliver path touches sits at the front of the object; the
    // probe attachment trails as the cold tail.
    int id_;
    int widthBits_;
    int lanes_;
    int flitDelay_;
    int creditDelay_;

    RingBuffer<TimedFlit> flitPipe_;
    RingBuffer<TimedCredit> creditPipe_;
    ActivitySlot slot_;

    Cycle lastSendCycle_ = CYCLE_NEVER;
    int sendsThisCycle_ = 0;
    std::uint64_t flitsSent_ = 0;
    std::uint64_t busyCycles_ = 0;
    std::uint64_t pairedCycles_ = 0;

    const Probe *probe_ = nullptr;
    RouterId driverRouter_ = INVALID_ROUTER;
    PortId driverPort_ = INVALID_PORT;
};

} // namespace hnoc

#endif // HNOC_NOC_CHANNEL_HH
