/**
 * @file
 * The observation point of the NoC. One Probe per Network holds every
 * attached sink (metrics registry, flight recorder, blame collector,
 * flit-event observer, self-profiler) and fans each NoC event out to
 * the sinks that are set. Router, Channel and NetworkInterface hold
 * one `const Probe *`, which the Network points at its probe while a
 * sink is attached and clears otherwise, so a hook site is one
 * predictable branch per event when nothing observes the run:
 *
 *     if (probe_)
 *         probe_->flitIn(id_, port, flit, now);
 *
 * The fan-out lives out of line (probe.cc). Under -DHNOC_TELEMETRY=OFF
 * the registry, recorder, blame and profiler arms compile away and
 * only the observer still fires. Every sink is report-only: results
 * are bit-identical with and without sinks attached.
 */

#ifndef HNOC_NOC_PROBE_HH
#define HNOC_NOC_PROBE_HH

#include <cstddef>

#include "common/types.hh"

namespace hnoc
{

class BlameCollector;
class FlightRecorder;
class MetricRegistry;
class NetworkObserver;
class Profiler;
struct Flit;
struct Packet;

/** The sink set of one network and its per-event fan-out. */
class Probe
{
  public:
    /** Sinks (nullptr = detached), set by the owning Network. */
    MetricRegistry *registry = nullptr;
    FlightRecorder *recorder = nullptr;
    BlameCollector *blame = nullptr;
    NetworkObserver *observer = nullptr;
    Profiler *profiler = nullptr;

    /** @return true when a sink that this build feeds is attached. */
    bool active() const;

    /** @name Router events at router @p r. Ports and VCs are the
     *  router's: input side for flitIn/vcAllocated, output side for
     *  creditIn/creditStall. */
    ///@{
    void flitIn(RouterId r, PortId p, const Flit &flit, Cycle now) const;
    /** RC of a head that waited @p waited cycles past its earliest
     *  RC cycle. */
    void headRouted(RouterId r, Packet &pkt, Cycle waited) const;
    void vcAllocated(RouterId r, PortId p, VcId v, PacketId pkt,
                     bool granted, Cycle now) const;
    /** A credit for downstream VC @p v, due at @p due, pulled. */
    void creditIn(RouterId r, PortId p, VcId v, Cycle due) const;
    void creditStall(RouterId r, PortId p, VcId v, PacketId pkt,
                     Cycle now) const;
    /** SA grant: @p flit (on its output VC) left through @p out and
     *  the credit for input (@p in, @p in_vc) went upstream;
     *  @p hop_cycles is the hop's zero-load price. */
    void flitOut(RouterId r, PortId out, PortId in, VcId in_vc,
                 const Flit &flit, int hop_cycles, Cycle now) const;
    /** End-of-step buffer occupancy. */
    void occupancy(RouterId r, int flits) const;
    ///@}

    /** A flit entered the channel driven by (@p r, @p p); @p paired
     *  when it is the second flit on the link this cycle. */
    void linkFlit(RouterId r, PortId p, bool paired) const;

    /** The head of @p pkt entered a @p link_cycles injection link. */
    void headInjected(Packet &pkt, int link_cycles) const;

    /** @name Network events */
    ///@{
    /** @p pkt entered its source queue; @p in_flight counts it. */
    void packetCreated(Packet &pkt, std::size_t in_flight,
                       Cycle now) const;
    /** @p flit reached its destination NI over an ejection link that
     *  drains at most @p tail_rate flits per cycle. */
    void flitEjected(const Flit &flit, int tail_rate, Cycle now) const;
    /** The tail of @p pkt arrived (before the client callback). */
    void packetDelivered(const Packet &pkt, Cycle now) const;
    /** After the client callback: commit and release the ledger. */
    void packetRetired(Packet &pkt) const;
    /** End of cycle @p now: telemetry epoch bookkeeping. */
    void cycleEnd(Cycle now) const;
    ///@}
};

} // namespace hnoc

#endif // HNOC_NOC_PROBE_HH
