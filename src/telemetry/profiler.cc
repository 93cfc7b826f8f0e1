#include "telemetry/profiler.hh"

#include <cstdio>
#include <cstring>

#include "telemetry/json_writer.hh"

namespace hnoc
{

const char *
profPhaseName(ProfPhase p)
{
    switch (p) {
      case ProfPhase::ChannelDelivery:
        return "channel_delivery";
      case ProfPhase::NiEject:
        return "ni_eject";
      case ProfPhase::RouteCompute:
        return "route_compute";
      case ProfPhase::VcAllocate:
        return "vc_allocate";
      case ProfPhase::SwitchAllocate:
        return "switch_allocate";
      case ProfPhase::NiInject:
        return "ni_inject";
      case ProfPhase::TelemetryTick:
        return "telemetry_tick";
      case ProfPhase::StepTotal:
        return "step_total";
      case ProfPhase::NumPhases:
        break;
    }
    return "?";
}

Profiler::Profiler()
{
    reset();
}

void
Profiler::reset()
{
    std::memset(ns_, 0, sizeof(ns_));
    std::memset(visits_, 0, sizeof(visits_));
}

void
Profiler::merge(const Profiler &other)
{
    for (std::size_t i = 0;
         i < static_cast<std::size_t>(ProfPhase::NumPhases); ++i) {
        ns_[i] += other.ns_[i];
        visits_[i] += other.visits_[i];
    }
}

std::uint64_t
Profiler::attributedNs() const
{
    std::uint64_t total = 0;
    for (std::size_t i = 0;
         i < static_cast<std::size_t>(ProfPhase::NumPhases); ++i) {
        if (i == static_cast<std::size_t>(ProfPhase::StepTotal))
            continue;
        total += ns_[i];
    }
    return total;
}

std::uint64_t
Profiler::unattributedNs() const
{
    std::uint64_t total = ns(ProfPhase::StepTotal);
    std::uint64_t attributed = attributedNs();
    return total > attributed ? total - attributed : 0;
}

void
Profiler::writeJson(JsonWriter &w) const
{
    std::uint64_t total = ns(ProfPhase::StepTotal);
    w.beginObject();
    w.keyValue("cycles", cycles());
    w.keyValue("step_total_ns", total);
    w.keyValue("unattributed_ns", unattributedNs());
    w.key("phases").beginObject();
    for (std::size_t i = 0;
         i < static_cast<std::size_t>(ProfPhase::NumPhases); ++i) {
        auto p = static_cast<ProfPhase>(i);
        if (p == ProfPhase::StepTotal)
            continue;
        w.key(profPhaseName(p)).beginObject();
        w.keyValue("ns", ns_[i]);
        w.keyValue("visits", visits_[i]);
        w.keyValue("share_pct",
                   total > 0 ? 100.0 * static_cast<double>(ns_[i]) /
                                   static_cast<double>(total)
                             : 0.0);
        w.endObject();
    }
    w.endObject();
    w.endObject();
}

std::string
Profiler::json() const
{
    JsonWriter w;
    writeJson(w);
    return w.str();
}

std::string
Profiler::table() const
{
    std::uint64_t total = ns(ProfPhase::StepTotal);
    char buf[160];
    std::string out;
    std::snprintf(buf, sizeof(buf), "%-18s %14s %12s %7s\n", "phase",
                  "wall ns", "visits", "share");
    out += buf;
    auto row = [&](const char *name, std::uint64_t ns,
                   std::uint64_t visits) {
        double pct = total > 0 ? 100.0 * static_cast<double>(ns) /
                                     static_cast<double>(total)
                               : 0.0;
        std::snprintf(buf, sizeof(buf), "%-18s %14llu %12llu %6.1f%%\n",
                      name, static_cast<unsigned long long>(ns),
                      static_cast<unsigned long long>(visits), pct);
        out += buf;
    };
    for (std::size_t i = 0;
         i < static_cast<std::size_t>(ProfPhase::NumPhases); ++i) {
        auto p = static_cast<ProfPhase>(i);
        if (p == ProfPhase::StepTotal)
            continue;
        row(profPhaseName(p), ns_[i], visits_[i]);
    }
    row("(scan/overhead)", unattributedNs(), 0);
    row("step_total", total, cycles());
    if (cycles() > 0) {
        std::snprintf(buf, sizeof(buf), "%-18s %14.1f\n", "ns/cycle",
                      static_cast<double>(total) /
                          static_cast<double>(cycles()));
        out += buf;
    }
    return out;
}

std::uint64_t
MemoryAudit::totalBytes() const
{
    std::uint64_t total = 0;
    for (const Component &c : components)
        total += c.bytes;
    return total;
}

double
MemoryAudit::bytesPerTile() const
{
    return tiles > 0 ? static_cast<double>(totalBytes()) /
                           static_cast<double>(tiles)
                     : 0.0;
}

void
MemoryAudit::add(const std::string &name, std::uint64_t bytes,
                 std::uint64_t count)
{
    if (count == 0)
        return;
    components.push_back({name, bytes, count});
}

void
MemoryAudit::writeJson(JsonWriter &w) const
{
    w.beginObject();
    w.keyValue("tiles", tiles);
    w.keyValue("total_bytes", totalBytes());
    w.keyValue("bytes_per_tile", bytesPerTile());
    w.key("components").beginArray();
    for (const Component &c : components) {
        w.beginObject();
        w.keyValue("name", c.name);
        w.keyValue("bytes", c.bytes);
        w.keyValue("count", c.count);
        w.keyValue("bytes_per_tile",
                   tiles > 0 ? static_cast<double>(c.bytes) /
                                   static_cast<double>(tiles)
                             : 0.0);
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

std::string
MemoryAudit::table() const
{
    char buf[160];
    std::string out;
    std::snprintf(buf, sizeof(buf), "%-18s %14s %8s %14s\n", "component",
                  "bytes", "count", "bytes/tile");
    out += buf;
    for (const Component &c : components) {
        std::snprintf(buf, sizeof(buf), "%-18s %14llu %8llu %14.1f\n",
                      c.name.c_str(),
                      static_cast<unsigned long long>(c.bytes),
                      static_cast<unsigned long long>(c.count),
                      tiles > 0 ? static_cast<double>(c.bytes) /
                                      static_cast<double>(tiles)
                                : 0.0);
        out += buf;
    }
    std::snprintf(buf, sizeof(buf), "%-18s %14llu %8s %14.1f\n", "total",
                  static_cast<unsigned long long>(totalBytes()), "",
                  bytesPerTile());
    out += buf;
    return out;
}

} // namespace hnoc
