#include "noc/probe.hh"

#include "noc/flit.hh"
#include "noc/observer.hh"
#include "telemetry/blame.hh"
#include "telemetry/flight_recorder.hh"
#include "telemetry/metrics.hh"
#include "telemetry/profiler.hh"

namespace hnoc
{

bool
Probe::active() const
{
    return observer ||
           (kTelemetryEnabled && (registry || recorder || blame || profiler));
}

void
Probe::flitIn(RouterId r, PortId p, const Flit &flit, Cycle now) const
{
    if (kTelemetryEnabled && registry)
        registry->add(Ctr::BufferWrites, r, p, flit.vc);
    if (kTelemetryEnabled && recorder)
        recorder->record(FrKind::FlitIn, now, r, p, flit.vc,
                         flit.pkt->id, flit.isHead());
    if (observer)
        observer->onFlitArrive(r, p, flit, now);
}

void
Probe::headRouted(RouterId r, Packet &pkt, Cycle waited) const
{
    // Route-pending blame, charged as a lump at RC time.
    if (kTelemetryEnabled && blame && pkt.blame && waited > 0) {
        pkt.blame->charge(BlameCause::RoutePending, waited);
        blame->charge(r, INVALID_PORT, BlameCause::RoutePending, waited);
    }
}

void
Probe::vcAllocated(RouterId r, PortId p, VcId v, PacketId pkt,
                   bool granted, Cycle now) const
{
    if (kTelemetryEnabled && registry && !granted)
        registry->add(Ctr::VaConflicts, r, p, v);
    if (kTelemetryEnabled && recorder)
        recorder->record(granted ? FrKind::VaGrant : FrKind::VaDeny, now,
                         r, p, v, pkt);
}

void
Probe::creditIn(RouterId r, PortId p, VcId v, Cycle due) const
{
    if (kTelemetryEnabled && recorder)
        recorder->record(FrKind::CreditIn, due, r, p, v);
}

void
Probe::creditStall(RouterId r, PortId p, VcId v, PacketId pkt,
                   Cycle now) const
{
    if (kTelemetryEnabled && registry)
        registry->add(Ctr::CreditStalls, r, p);
    if (kTelemetryEnabled && recorder)
        recorder->record(FrKind::CreditStall, now, r, p, v, pkt);
}

void
Probe::flitOut(RouterId r, PortId out, PortId in, VcId in_vc,
               const Flit &flit, int hop_cycles, Cycle now) const
{
    // Zero-load head path, priced on the route taken (detours too).
    if (kTelemetryEnabled && blame && flit.isHead() && flit.pkt->blame)
        flit.pkt->blame->minHeadCycles +=
            static_cast<std::uint64_t>(hop_cycles);
    if (observer)
        observer->onFlitDepart(r, out, flit, now);
    if (kTelemetryEnabled && registry) {
        registry->add(Ctr::XbarGrants, r, out);
        registry->add(Ctr::BufferReads, r, in);
    }
    if (kTelemetryEnabled && recorder) {
        recorder->record(FrKind::FlitOut, now, r, out, flit.vc,
                         flit.pkt->id, flit.isHead());
        recorder->record(FrKind::CreditOut, now, r, in, in_vc);
    }
}

void
Probe::occupancy(RouterId r, int flits) const
{
    if (kTelemetryEnabled && registry)
        registry->occupancySample(r, flits);
}

void
Probe::linkFlit(RouterId r, PortId p, bool paired) const
{
    if (kTelemetryEnabled && registry) {
        registry->add(Ctr::LinkFlits, r, p);
        if (paired)
            registry->add(Ctr::LinkPaired, r, p);
    }
}

void
Probe::headInjected(Packet &pkt, int link_cycles) const
{
    // The zero-load head path starts with the injection link.
    if (kTelemetryEnabled && blame && pkt.blame)
        pkt.blame->minHeadCycles += static_cast<std::uint64_t>(link_cycles);
}

void
Probe::packetCreated(Packet &pkt, std::size_t in_flight, Cycle now) const
{
    // Arm the blame ledger before any observer sees the packet.
    if (kTelemetryEnabled && blame)
        pkt.blame = blame->acquire();
    if (kTelemetryEnabled && registry) {
        registry->add(Ctr::PacketsInjected);
        registry->gaugeMax(Gauge::PeakInFlight,
                           static_cast<std::uint64_t>(in_flight));
    }
    if (kTelemetryEnabled && recorder)
        recorder->record(FrKind::Inject, now, pkt.src, -1, -1, pkt.id,
                         true);
    if (observer)
        observer->onPacketCreated(pkt, now);
}

void
Probe::flitEjected(const Flit &flit, int tail_rate, Cycle now) const
{
    if (kTelemetryEnabled && registry)
        registry->add(Ctr::FlitsEjected);
    // Head delivery fixes the tail-serialization bound: the tail
    // cannot eject before headEjectAt + ceil(n / tail_rate) - 1.
    if (kTelemetryEnabled && blame && flit.isHead() && flit.pkt->blame) {
        BlameLedger *bl = flit.pkt->blame;
        bl->headEjectAt = now;
        bl->minSerCycles = static_cast<std::uint64_t>(
            (flit.pkt->numFlits + tail_rate - 1) / tail_rate - 1);
    }
}

void
Probe::packetDelivered(const Packet &pkt, Cycle now) const
{
    if (kTelemetryEnabled && registry) {
        registry->add(Ctr::PacketsDelivered);
        registry->histAdd(Hist::PacketLatencyCycles,
                          static_cast<double>(now - pkt.createdAt));
        registry->histAdd(Hist::NetworkLatencyCycles,
                          static_cast<double>(now - pkt.injectedAt));
    }
    if (kTelemetryEnabled && recorder)
        recorder->record(FrKind::Eject, now, pkt.dst, -1, -1, pkt.id,
                         true);
    if (observer)
        observer->onPacketDelivered(pkt, now);
}

void
Probe::packetRetired(Packet &pkt) const
{
    if (kTelemetryEnabled && blame && pkt.blame) {
        blame->commit(pkt.id, pkt.src, pkt.dst, pkt.createdAt,
                      pkt.injectedAt, pkt.ejectedAt, *pkt.blame);
        blame->release(pkt.blame);
        pkt.blame = nullptr;
    }
}

void
Probe::cycleEnd(Cycle now) const
{
    if (kTelemetryEnabled && registry) {
        ProfScope s(profiler, ProfPhase::TelemetryTick);
        registry->tick(now);
    }
}

} // namespace hnoc
