/**
 * @file
 * CMP bit-identity oracle: short fixed-seed runs of the 64-tile CMP
 * must reproduce these exact digests. The digest covers every
 * observable statistic of a run (per-core IPC bits, network and
 * round-trip latency moments, L1 misses, packets, message counts and
 * delivered flits), so any reordering of cache replacement, directory
 * transactions, sharer invalidations or same-cycle controller events
 * shifts it. A zero-latency configuration pins the order of events
 * scheduled for the cycle being drained or an already drained one.
 * If a change is meant to alter CMP behaviour, regenerate
 * the constants (printed on failure) and say so in the commit.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>

#include "heteronoc/layout.hh"
#include "sys/cmp_system.hh"
#include "sys/workloads.hh"

namespace hnoc
{
namespace
{

/** FNV-1a over the bit patterns of simulated statistics. */
struct Digest
{
    std::uint64_t h = 1469598103934665603ULL;

    void
    bytes(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 1099511628211ULL;
        }
    }

    void u64(std::uint64_t v) { bytes(&v, sizeof v); }
    void f64(double v) { bytes(&v, sizeof v); }

    void
    stat(const RunningStat &s)
    {
        u64(s.count());
        f64(s.mean());
        f64(s.stddev());
    }
};

std::string
hex(std::uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

CmpConfig
goldenConfig()
{
    CmpConfig cfg;
    cfg.seed = 20261017;
    return cfg;
}

/** warmCaches(4000) -> run(500) -> resetStats -> run(2000). */
std::uint64_t
cmpDigest(const std::string &app, LayoutKind kind,
          const CmpConfig &cfg = goldenConfig())
{
    CmpSystem sys(makeLayoutConfig(kind), cfg);
    sys.assignWorkloadAll(workloadByName(app));
    sys.warmCaches(4000);
    sys.run(500);
    sys.resetStats();
    sys.run(2000);

    Digest d;
    int tiles = sys.network().topology().numNodes();
    for (NodeId c = 0; c < tiles; ++c)
        d.f64(sys.ipc(c));
    const NetLatencyStats &lat = sys.netLatency();
    for (const RunningStat *s : {&lat.totalNs, &lat.queuingNs,
                                 &lat.blockingNs, &lat.transferNs,
                                 &sys.roundTripCoreCycles()})
        d.stat(*s);
    d.u64(sys.l1Misses());
    d.u64(sys.packetsSent());
    for (int t = 0; t <= static_cast<int>(MsgType::MemData); ++t)
        d.u64(sys.msgCount(static_cast<MsgType>(t)));
    d.u64(sys.network().flitsDelivered());
    return d.h;
}

struct GoldenCase
{
    const char *app;
    LayoutKind kind;
    std::uint64_t digest;
};

void
PrintTo(const GoldenCase &g, std::ostream *os)
{
    *os << g.app << "/" << static_cast<int>(g.kind);
}

class CmpGolden : public ::testing::TestWithParam<GoldenCase>
{
};

TEST_P(CmpGolden, DigestIsPinned)
{
    const GoldenCase &g = GetParam();
    std::uint64_t got = cmpDigest(g.app, g.kind);
    EXPECT_EQ(got, g.digest) << g.app << " digest is " << hex(got);
}

TEST(CmpGoldenEvents, ZeroLatencyControllers)
{
    // With zero controller latencies, same-tile messages are scheduled
    // for the cycle being drained and DRAM responses for a cycle that
    // has already drained. Both must run in the order one time-sorted
    // FIFO queue gives them.
    CmpConfig cfg = goldenConfig();
    cfg.l1LatencyCoreCycles = 0;
    cfg.l2LatencyCoreCycles = 0;
    cfg.dramLatencyCoreCycles = 0;
    std::uint64_t got = cmpDigest("SAP", LayoutKind::Baseline, cfg);
    EXPECT_EQ(got, 0x12e81fa11bd32e1eULL) << "digest is " << hex(got);
}

INSTANTIATE_TEST_SUITE_P(
    AppsByLayout, CmpGolden,
    ::testing::Values(
        GoldenCase{"SAP", LayoutKind::Baseline, 0x59923c9f3bb4bccdULL},
        GoldenCase{"SAP", LayoutKind::DiagonalBL, 0x81e5eb1e04a73329ULL},
        GoldenCase{"vips", LayoutKind::Baseline, 0xffabf4c00d028abdULL},
        GoldenCase{"vips", LayoutKind::DiagonalBL, 0x0f41a3b4f826e181ULL},
        GoldenCase{"libquantum", LayoutKind::Baseline,
                   0x65bfc6844226b011ULL},
        GoldenCase{"libquantum", LayoutKind::DiagonalBL,
                   0x9937f0ff6c526fd8ULL}),
    [](const ::testing::TestParamInfo<GoldenCase> &info) {
        std::string name = info.param.app;
        name += info.param.kind == LayoutKind::Baseline ? "_Baseline"
                                                        : "_DiagonalBL";
        return name;
    });

} // namespace
} // namespace hnoc
