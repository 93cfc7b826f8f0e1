/**
 * @file
 * Benchmark binary: runs one named workload through the simulator's
 * public API for a host-time budget, checks every simulation point
 * against the model's invariants, and prints the end-to-end metrics
 * (untraced) or the per-layer metrics (traced) as the last line of
 * stdout. perfbench/run.py builds and runs it; perfbench/README.md
 * describes the workloads and every metric.
 *
 *   hnoc_perfbench --workload <noc_ur_sweep|noc_mesh32|cmp_apps>
 *                    --seed N --seconds S --trace 0|1
 *                    [--threads N] [--commit SHA] [--source SHA256]
 *                    [--trace-out FILE]
 */

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/job_pool.hh"
#include "common/portability.hh"
#include "heteronoc/layout.hh"
#include "noc/network.hh"
#include "noc/observer.hh"
#include "noc/sim_harness.hh"
#include "sys/cmp_system.hh"
#include "sys/protocol.hh"
#include "sys/workloads.hh"
#include "telemetry/profiler.hh"

using namespace hnoc;

namespace
{

using Clock = std::chrono::steady_clock;

/** Process-relative time base shared by every span. */
const Clock::time_point kProcessStart = Clock::now();

double
nowS()
{
    return std::chrono::duration<double>(Clock::now() - kProcessStart)
        .count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ------------------------------------------------------------ digest --

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
    f64s(const std::vector<double> &v)
    {
        u64(v.size());
        for (double x : v)
            f64(x);
    }
};

std::string
hex(std::uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

// ------------------------------------------------------------ points --

/** Message classes reported per 1k cycles on cmp_apps. */
constexpr std::array<const char *, 6> kMsgClasses = {
    "request", "forward", "invalidate", "data", "writeback", "memory"};

std::size_t
msgClass(MsgType t)
{
    switch (t) {
      case MsgType::GetS:
      case MsgType::GetX:
      case MsgType::UpgradeAck:
        return 0;
      case MsgType::FwdGetS:
      case MsgType::FwdGetX:
        return 1;
      case MsgType::Inv:
      case MsgType::InvAck:
        return 2;
      case MsgType::DataS:
      case MsgType::DataE:
      case MsgType::DataM:
      case MsgType::OwnerWb:
        return 3;
      case MsgType::PutM:
      case MsgType::WbAck:
        return 4;
      case MsgType::MemRead:
      case MsgType::MemWrite:
      case MsgType::MemData:
        return 5;
    }
    return 0;
}

constexpr int kNumMsgTypes = static_cast<int>(MsgType::MemData) + 1;

/** Fig 11 recipe lengths (bench/bench_util.hh runCmpExperiment). */
constexpr int kCmpWarmMemops = 40000;
constexpr Cycle kCmpWarmCycles = 3000;
constexpr Cycle kCmpMeasureCycles = 12000;

/** One CMP point: an application on a layout. */
struct CmpPoint
{
    NetworkConfig config;
    WorkloadProfile app;
    std::uint64_t seed = 1;
};

/** The workload's point set; exactly one of the vectors is filled. */
struct Plan
{
    std::vector<BatchPoint> noc;
    std::vector<LayoutKind> nocKinds; ///< layout of each noc point
    std::vector<CmpPoint> cmp;
    /** Host seconds of one repetition on a 4-core x86 host. */
    double nominalRepS = 1.0;

    std::size_t size() const { return noc.size() + cmp.size(); }
};

const std::vector<double> kUrRates = {0.004, 0.012, 0.020, 0.028, 0.036,
                                      0.044, 0.052, 0.060, 0.068};

/** Every point arms the watchdog; a trip fails the point. */
constexpr Cycle kWatchdogWindow = 20000;

Plan
makePlan(const std::string &workload, std::uint64_t seed)
{
    Plan plan;
    std::uint64_t index = 0;
    auto add_noc = [&](LayoutKind kind, const NetworkConfig &cfg,
                       SimPointOptions opts) {
        opts.seed = derivePointSeed(seed, index++);
        opts.watchdogWindow = kWatchdogWindow;
        BatchPoint bp;
        bp.config = cfg;
        bp.pattern = TrafficPattern::UniformRandom;
        bp.opts = opts;
        plan.noc.push_back(std::move(bp));
        plan.nocKinds.push_back(kind);
    };

    if (workload == "noc_ur_sweep") {
        // Fig 7: bench_util.hh runLayoutSweeps with reference windows.
        plan.nominalRepS = 18.0;
        SimPointOptions sweep;
        sweep.warmupCycles = 6000;
        sweep.measureCycles = 15000;
        sweep.drainCycles = 30000;
        for (LayoutKind kind : allLayouts()) {
            NetworkConfig cfg = makeLayoutConfig(kind);
            for (double r : kUrRates) {
                SimPointOptions o = sweep;
                o.injectionRate = r;
                add_noc(kind, cfg, o);
            }
            SimPointOptions zl; // zeroLoadLatencyNs windows
            zl.injectionRate = 0.001;
            add_noc(kind, cfg, zl);
        }
    } else if (workload == "noc_mesh32") {
        // bench/scaling_curve.cc constant-fraction load: 0.2 flits/
        // node/cycle at radix 8, scaled by 8/radix.
        constexpr int kRadix = 32;
        constexpr int kSeeds = 2;
        plan.nominalRepS = 3.5;
        for (LayoutKind kind :
             {LayoutKind::Baseline, LayoutKind::DiagonalBL}) {
            NetworkConfig cfg = makeLayoutConfig(kind, kRadix);
            for (int s = 0; s < kSeeds; ++s) {
                SimPointOptions o;
                o.injectionRate =
                    0.2 * (8.0 / kRadix) / cfg.dataPacketFlits();
                o.warmupCycles = 1000;
                o.measureCycles = 2500;
                o.drainCycles = 10000;
                add_noc(kind, cfg, o);
            }
        }
    } else if (workload == "cmp_apps") {
        plan.nominalRepS = 4.8;
        for (const char *name :
             {"SAP", "TPC-C", "vips", "fsim", "libquantum"}) {
            for (LayoutKind kind :
                 {LayoutKind::Baseline, LayoutKind::DiagonalBL}) {
                CmpPoint p;
                p.config = makeLayoutConfig(kind);
                p.app = workloadByName(name);
                p.seed = derivePointSeed(seed, index++);
                plan.cmp.push_back(std::move(p));
            }
        }
    }
    return plan;
}

// ----------------------------------------------------------- tracing --

/** Counts delivered flits (traced runs only). */
class FlitCounter : public NetworkObserver
{
  public:
    void
    onPacketDelivered(const Packet &pkt, Cycle) override
    {
        flits += static_cast<std::uint64_t>(pkt.numFlits);
    }

    std::uint64_t flits = 0;
};

/** Forwards to CmpSystem and accumulates host time in its callbacks. */
class TimedClient : public NetworkClient
{
  public:
    explicit TimedClient(CmpSystem &sys) : sys_(sys) {}

    void
    preCycle(Network &net, Cycle now) override
    {
        auto t0 = Clock::now();
        sys_.preCycle(net, now);
        ns += elapsedNs(t0);
    }

    void
    onPacketDelivered(Network &net, Packet &pkt, Cycle now) override
    {
        auto t0 = Clock::now();
        sys_.onPacketDelivered(net, pkt, now);
        ns += elapsedNs(t0);
    }

    std::uint64_t ns = 0;

  private:
    static std::uint64_t
    elapsedNs(Clock::time_point t0)
    {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - t0)
                .count());
    }

    CmpSystem &sys_;
};

/** A timed interval in process-relative seconds. */
struct Interval
{
    double start = 0.0;
    double end = 0.0;

    double dur() const { return end - start; }
};

/** Everything one point reports back to the batch loop. */
struct PointRecord
{
    Interval span;
    std::thread::id worker;
    std::string failure; ///< empty = every invariant held
    std::uint64_t digest = 0;

    double tileCycles = 0.0; ///< simulated cycles x tiles
    std::uint64_t simCycles = 0;
    std::uint64_t drainCycles = 0;
    bool saturated = false;

    /** Headline inputs. */
    SimPointResult noc;      ///< open-loop points
    double cmpLatencyNs = 0; ///< CMP points
    double cmpIpc = 0;

    /** @name Layer data (reported by traced runs) */
    ///@{
    std::uint64_t flits = 0;
    double netS = 0.0; ///< host time stepping the network
    std::shared_ptr<Profiler> profile;
    double netBytesPerTile = 0.0;
    double cmpBytesPerTile = 0.0;
    Interval warm;
    std::vector<Interval> runs;   ///< CmpSystem::run calls
    std::vector<double> clientS;  ///< client time inside each run
    std::array<std::uint64_t, 6> windowMsgs{};
    std::uint64_t allMsgs = 0;   ///< every message sent in both runs
    std::uint64_t l1Misses = 0;  ///< measurement window
    ///@}
};

bool
allFinite(std::initializer_list<double> xs)
{
    for (double x : xs)
        if (!std::isfinite(x))
            return false;
    return true;
}

bool
allFinite(const std::vector<double> &xs)
{
    for (double x : xs)
        if (!std::isfinite(x))
            return false;
    return true;
}

PointRecord
runNocPoint(const BatchPoint &p, bool traced)
{
    PointRecord rec;
    rec.worker = std::this_thread::get_id();
    SimPointOptions opts = p.opts;
    FlitCounter flits;
    if (traced) {
        opts.profile = true;
        opts.observer = &flits;
    }
    rec.span.start = nowS();
    SimPointResult r = runOpenLoop(p.config, p.pattern, opts);
    rec.span.end = nowS();

    int tiles = p.config.numNodes();
    rec.simCycles = r.simulatedCycles;
    rec.drainCycles =
        r.simulatedCycles - r.warmupCyclesUsed - r.measureCyclesUsed;
    rec.saturated = r.saturated;
    rec.tileCycles = static_cast<double>(r.simulatedCycles) * tiles;
    rec.flits = flits.flits;
    rec.netS = rec.span.dur();
    if (r.memory)
        rec.netBytesPerTile = r.memory->bytesPerTile();
    rec.profile = r.profile;

    if (!allFinite({r.offeredRate, r.acceptedRate, r.avgLatencyCycles,
                    r.avgLatencyNs, r.avgQueuingNs, r.avgBlockingNs,
                    r.avgTransferNs, r.p95LatencyNs, r.networkPowerW,
                    r.combineRate}) ||
        !allFinite(r.bufferUtilPct) || !allFinite(r.linkUtilPct) ||
        !allFinite(r.latencyByHopsNs))
        rec.failure = "non-finite statistic";
    else if (r.trackedCreated == 0)
        rec.failure = "no tracked packets";
    else if (r.trackedDelivered != r.trackedCreated && !r.saturated &&
             !r.drainTruncated)
        rec.failure = "tracked delivered != created";
    else if (r.watchdogTrips != 0)
        rec.failure = "watchdog tripped";

    Digest d;
    d.f64(r.offeredRate);
    d.f64(r.acceptedRate);
    d.f64(r.avgLatencyCycles);
    d.f64(r.avgLatencyNs);
    d.f64(r.avgQueuingNs);
    d.f64(r.avgBlockingNs);
    d.f64(r.avgTransferNs);
    d.f64(r.p95LatencyNs);
    d.f64(r.networkPowerW);
    d.f64(r.combineRate);
    d.u64(r.saturated);
    d.u64(r.drainTruncated);
    d.u64(r.simulatedCycles);
    d.u64(r.warmupCyclesUsed);
    d.u64(r.measureCyclesUsed);
    d.u64(r.trackedCreated);
    d.u64(r.trackedDelivered);
    d.f64s(r.bufferUtilPct);
    d.f64s(r.linkUtilPct);
    d.f64s(r.latencyByHopsNs);
    rec.digest = d.h;

    r.profile.reset();
    r.memory.reset();
    rec.noc = std::move(r);
    return rec;
}

/** The Fig 11 recipe on one CMP; fills everything but rec.span. */
void
simulateCmp(const CmpPoint &p, bool traced, PointRecord &rec)
{
    Profiler prof;
    FlitCounter flits;
    CmpConfig cmp;
    cmp.seed = p.seed;
    CmpSystem sys(p.config, cmp);
    TimedClient client(sys);
    if (traced) {
        sys.network().setClient(&client);
        sys.network().setObserver(&flits);
        sys.network().attachProfiler(&prof);
    }
    sys.assignWorkloadAll(p.app);

    rec.warm.start = nowS();
    sys.warmCaches(kCmpWarmMemops);
    rec.warm.end = nowS();

    auto msg_counts = [&] {
        std::array<std::uint64_t, kNumMsgTypes> c{};
        for (int t = 0; t < kNumMsgTypes; ++t)
            c[static_cast<std::size_t>(t)] =
                sys.msgCount(static_cast<MsgType>(t));
        return c;
    };
    auto timed_run = [&](Cycle cycles) {
        std::uint64_t client_before = client.ns;
        Interval iv;
        iv.start = nowS();
        sys.run(cycles);
        iv.end = nowS();
        rec.runs.push_back(iv);
        rec.clientS.push_back(
            static_cast<double>(client.ns - client_before) * 1e-9);
    };

    auto msgs_start = msg_counts();
    timed_run(kCmpWarmCycles);
    sys.resetStats();
    auto msgs_window = msg_counts();
    std::uint64_t l1_window = sys.l1Misses();
    timed_run(kCmpMeasureCycles);
    auto msgs_end = msg_counts();

    int tiles = sys.network().topology().numNodes();
    Cycle cycles = kCmpWarmCycles + kCmpMeasureCycles;
    rec.tileCycles = static_cast<double>(cycles) * tiles;
    rec.flits = flits.flits;
    for (std::size_t i = 0; i < rec.runs.size(); ++i)
        rec.netS += rec.runs[i].dur() - rec.clientS[i];
    for (int t = 0; t < kNumMsgTypes; ++t) {
        auto i = static_cast<std::size_t>(t);
        rec.windowMsgs[msgClass(static_cast<MsgType>(t))] +=
            msgs_end[i] - msgs_window[i];
        rec.allMsgs += msgs_end[i] - msgs_start[i];
    }
    rec.l1Misses = sys.l1Misses() - l1_window;
    if (traced) {
        rec.profile = std::make_shared<Profiler>(prof);
        rec.netBytesPerTile = sys.network().memoryAudit().bytesPerTile();
        rec.cmpBytesPerTile = sys.memoryAudit().bytesPerTile();
    }

    const NetLatencyStats &lat = sys.netLatency();
    rec.cmpLatencyNs = lat.totalNs.mean();
    rec.cmpIpc = sys.avgIpc();

    Digest d;
    d.f64(rec.cmpIpc);
    for (NodeId c = 0; c < tiles; ++c) {
        double ipc = sys.ipc(c);
        d.f64(ipc);
        if (rec.failure.empty() && !(std::isfinite(ipc) && ipc > 0.0))
            rec.failure = "core " + std::to_string(c) +
                          " retired nothing or has a non-finite IPC";
    }
    for (const RunningStat *s :
         {&lat.totalNs, &lat.queuingNs, &lat.blockingNs, &lat.transferNs,
          &sys.roundTripCoreCycles()}) {
        d.u64(s->count());
        d.f64(s->mean());
        d.f64(s->stddev());
    }
    if (rec.failure.empty() &&
        (lat.totalNs.count() == 0 ||
         !allFinite({rec.cmpLatencyNs, rec.cmpIpc,
                     sys.roundTripCoreCycles().mean()})))
        rec.failure = "no finite network or round-trip latency";
    d.u64(sys.l1Misses());
    d.u64(sys.packetsSent());
    for (std::uint64_t c : msgs_end)
        d.u64(c);
    d.f64(sys.networkPower().total());
    d.u64(sys.network().flitsDelivered());
    rec.digest = d.h;
}

PointRecord
runCmpPoint(const CmpPoint &p, bool traced)
{
    PointRecord rec;
    rec.worker = std::this_thread::get_id();
    rec.span.start = nowS();
    simulateCmp(p, traced, rec); // the span includes CmpSystem teardown
    rec.span.end = nowS();
    return rec;
}

/** One pass over the workload's whole point set. */
struct Rep
{
    bool traced = false;
    Interval batch; ///< the JobPool fan-out
    std::vector<PointRecord> points;

    double tileCycles() const
    {
        double t = 0.0;
        for (const auto &p : points)
            t += p.tileCycles;
        return t;
    }
};

Rep
runRep(const Plan &plan, JobPool &pool, bool traced)
{
    Rep rep;
    rep.traced = traced;
    rep.batch.start = nowS();
    if (!plan.noc.empty())
        rep.points = runPointsParallel(
            plan.noc,
            [traced](const BatchPoint &p) { return runNocPoint(p, traced); },
            &pool);
    else
        rep.points = runPointsParallel(
            plan.cmp,
            [traced](const CmpPoint &p) { return runCmpPoint(p, traced); },
            &pool);
    rep.batch.end = nowS();
    return rep;
}

/** Length of the union of @p ivs clipped to @p within. */
double
coveredS(std::vector<Interval> ivs, Interval within)
{
    std::sort(ivs.begin(), ivs.end(),
              [](const Interval &a, const Interval &b) {
                  return a.start < b.start;
              });
    double covered = 0.0;
    double reach = within.start;
    for (const Interval &iv : ivs) {
        double s = std::max(iv.start, reach);
        double e = std::min(iv.end, within.end);
        if (e > s) {
            covered += e - s;
            reach = e;
        }
    }
    return covered;
}

/**
 * JobPool tail: from the first worker that found the queue empty (its
 * last point ended, or it never got one) to the end of the batch.
 */
double
poolTailS(const Rep &rep, int threads)
{
    std::map<std::thread::id, double> last_end;
    for (const auto &p : rep.points) {
        double &e = last_end[p.worker];
        e = std::max(e, p.span.end);
    }
    double first_idle = rep.batch.end;
    if (static_cast<int>(last_end.size()) < threads)
        first_idle = rep.batch.start;
    for (const auto &[id, e] : last_end)
        first_idle = std::min(first_idle, e);
    return rep.batch.end - first_idle;
}

// ------------------------------------------------------------ output --

/** Metrics in print order: name -> (value, unit). */
class MetricSet
{
  public:
    void
    add(const std::string &name, double value, const std::string &unit)
    {
        rows_.push_back({name, value, unit});
    }

    std::string
    json() const
    {
        std::ostringstream os;
        os << "{";
        for (std::size_t i = 0; i < rows_.size(); ++i) {
            char buf[64];
            std::snprintf(buf, sizeof buf, "%.17g", rows_[i].value);
            os << (i ? ", " : "") << "\"" << rows_[i].name
               << "\": {\"value\": " << buf << ", \"unit\": \""
               << rows_[i].unit << "\"}";
        }
        os << "}";
        return os.str();
    }

  private:
    struct Row
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Row> rows_;
};

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out;
}

std::string
readFirstLine(const std::string &path, const std::string &prefix = "")
{
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (prefix.empty())
            return line;
        if (line.rfind(prefix, 0) == 0) {
            auto colon = line.find(':');
            std::string v = line.substr(colon + 1);
            v.erase(0, v.find_first_not_of(" \t"));
            return v;
        }
    }
    return "unknown";
}

std::string
envOr(const char *name, const char *fallback)
{
    const char *v = std::getenv(name);
    return v ? v : fallback;
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    int threads = 0;
    std::string commit = "unknown";
    std::string source = "unknown"; ///< digest of the simulator sources
    std::string traceOut;
};

std::string
provenanceJson(const Args &args, int threads)
{
    std::string llc = "/sys/devices/system/cpu/cpu0/cache/index3/size";
    std::ostringstream os;
    os << "{\"commit\": \"" << jsonEscape(args.commit) << "\""
       << ", \"source_sha256\": \"" << jsonEscape(args.source) << "\""
       << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\""
       << ", \"hnoc_telemetry\": " << (PERFBENCH_TELEMETRY ? "true" : "false")
       << ", \"threads\": " << threads
       << ", \"nproc\": " << std::thread::hardware_concurrency()
       << ", \"cpu_model\": \""
       << jsonEscape(readFirstLine("/proc/cpuinfo", "model name")) << "\""
       << ", \"llc\": \"" << jsonEscape(readFirstLine(llc)) << "\""
       << ", \"hnoc_sim_scale\": \"" << jsonEscape(envOr("HNOC_SIM_SCALE", "unset"))
       << "\", \"sim_scale_applied\": " << simScale()
       << ", \"workload\": \"" << jsonEscape(args.workload) << "\""
       << ", \"seed\": " << args.seed << ", \"seconds\": " << args.seconds
       << ", \"trace\": " << (args.trace ? 1 : 0) << "}";
    return os.str();
}

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string k = argv[i];
        std::string v = argv[i + 1];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (k == "--seconds")
            a.seconds = std::atof(v.c_str());
        else if (k == "--trace")
            a.trace = v == "1";
        else if (k == "--threads")
            a.threads = std::atoi(v.c_str());
        else if (k == "--commit")
            a.commit = v;
        else if (k == "--source")
            a.source = v;
        else if (k == "--trace-out")
            a.traceOut = v;
        else
            return false;
    }
    return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0.0 &&
           a.threads >= 0;
}

/** Setup repetitions whose median is setup_s. */
constexpr int kSetupReps = 21;

/**
 * Everything before the first simulated cycle: config and layout
 * building (power and heteronoc models included), JobPool start-up,
 * and the first Network or CmpSystem construction.
 */
double
setupOnce(const Args &args, int threads)
{
    double t0 = nowS();
    Plan plan = makePlan(args.workload, args.seed);
    JobPool pool(threads);
    if (!plan.noc.empty()) {
        Network net(plan.noc.front().config);
    } else {
        CmpConfig cmp;
        cmp.seed = plan.cmp.front().seed;
        CmpSystem sys(plan.cmp.front().config, cmp);
    }
    return nowS() - t0;
}

/**
 * Repetitions that fit in @p seconds at the workload's nominal cost.
 * A count fixed by the arguments, rather than a deadline, keeps every
 * statistic over the same number of points from run to run.
 */
int
repsFor(const Plan &plan, double seconds)
{
    return std::max(1, static_cast<int>(seconds / plan.nominalRepS));
}

void
runReps(const Plan &plan, JobPool &pool, bool traced, int count,
        std::vector<Rep> &reps)
{
    for (int i = 0; i < count; ++i) {
        reps.push_back(runRep(plan, pool, traced));
        const Rep &r = reps.back();
        std::printf("repetition %zu%s: wall %.4f s, %.6g tile-cycles/s\n",
                    reps.size(), traced ? " (traced)" : "", r.batch.dur(),
                    r.tileCycles() / r.batch.dur());
    }
}

void
printHeadline(const Args &args, const Plan &plan, const Rep &rep)
{
    auto pct = [](double base, double v) {
        return base != 0.0 ? 100.0 * (v - base) / base : 0.0;
    };
    if (!plan.noc.empty()) {
        std::map<LayoutKind, std::vector<const SimPointResult *>> curves;
        for (std::size_t i = 0; i < rep.points.size(); ++i) {
            const SimPointResult &r = rep.points[i].noc;
            // Zero-load points sit outside the Fig 7 rate grid.
            if (args.workload == "noc_ur_sweep" &&
                r.offeredRate < kUrRates.front())
                continue;
            curves[plan.nocKinds[i]].push_back(&r);
        }
        // Average over the rates both layouts sustain, as Fig 7(b)
        // does (bench_util.hh runSyntheticComparison).
        const auto &base = curves[LayoutKind::Baseline];
        const auto &diag = curves[LayoutKind::DiagonalBL];
        double base_ns = 0.0, diag_ns = 0.0;
        for (std::size_t i = 0; i < std::min(base.size(), diag.size());
             ++i) {
            auto stable = [](const SimPointResult *p) {
                return !p->saturated &&
                       p->acceptedRate >= 0.95 * p->offeredRate;
            };
            if (!stable(base[i]) || !stable(diag[i]))
                break;
            base_ns += base[i]->avgLatencyNs;
            diag_ns += diag[i]->avgLatencyNs;
        }
        std::printf("model: Diagonal+BL vs Baseline average latency over "
                    "the common stable loads %+.1f%%%s\n",
                    pct(base_ns, diag_ns),
                    args.workload == "noc_ur_sweep"
                        ? "; paper: -23% (8x8 UR)"
                        : "; no paper figure at 32x32");
    } else {
        std::vector<double> changes;
        for (std::size_t i = 0; i + 1 < rep.points.size(); i += 2) {
            double base = rep.points[i].cmpLatencyNs;
            double diag = rep.points[i + 1].cmpLatencyNs;
            changes.push_back(pct(base, diag));
            std::printf("model: %-10s Diagonal+BL vs Baseline network "
                        "latency %+.1f%%, IPC %+.1f%%\n",
                        plan.cmp[i].app.name.c_str(), changes.back(),
                        pct(rep.points[i].cmpIpc,
                            rep.points[i + 1].cmpIpc));
        }
        double mean = 0.0;
        for (double c : changes)
            mean += c / static_cast<double>(changes.size());
        std::printf("model: mean network latency change %+.1f%%; paper: "
                    "-18.5%% over its application set\n",
                    mean);
    }
    std::printf("model: figures above are simulated and unvalidated "
                "against hardware\n");
}

void
addEndToEnd(MetricSet &m, const std::vector<Rep> &reps, double setup_s)
{
    std::vector<double> walls, rates, point_s;
    for (const Rep &r : reps) {
        walls.push_back(r.batch.dur());
        rates.push_back(r.tileCycles() / r.batch.dur());
        for (const auto &p : r.points)
            point_s.push_back(p.span.dur());
    }
    std::sort(point_s.begin(), point_s.end());
    std::size_t n = point_s.size();
    // Highest percentile with at least ten points beyond it.
    std::size_t tail_idx = n > 10 ? n - 11 : n - 1;
    double tail_pct =
        n > 10 ? 100.0 * static_cast<double>(n - 10) /
                     static_cast<double>(n)
               : 100.0;
    double peak_mb =
        static_cast<double>(peakRssBytes()) / (1024.0 * 1024.0);

    std::printf("point_p50_s over %zu points; point_tail_s is p%.1f "
                "(%zu points beyond it)\n",
                n, tail_pct, n - 1 - tail_idx);
    m.add("wall_s", median(walls), "s");
    m.add("tile_cycles_per_s", median(rates), "1/s");
    m.add("point_p50_s", median(point_s), "s");
    m.add("point_tail_s", point_s[tail_idx], "s");
    m.add("peak_rss_mb", peak_mb, "MB");
    m.add("setup_s", setup_s, "s");
}

/** Per-layer metrics from the traced repetitions. */
void
addPerLayer(MetricSet &m, const std::vector<Rep> &reps, int threads)
{
    std::vector<double> untraced, traced, tails;
    double busy = 0.0, pool_wall = 0.0;
    double batch_s = 0.0, uncovered_s = 0.0;
    double sim_cycles = 0.0, drain = 0.0, saturated = 0.0;
    double net_s = 0.0, net_tile_cycles = 0.0, flits = 0.0;
    double net_bytes = 0.0, cmp_bytes = 0.0;
    double warm_s = 0.0, point_s = 0.0, client_s = 0.0, run_s = 0.0;
    double all_msgs = 0.0, window_kcycles = 0.0, l1 = 0.0;
    std::array<double, 6> msgs{};
    Profiler prof;
    int traced_reps = 0;

    for (const Rep &r : reps) {
        (r.traced ? traced : untraced).push_back(r.batch.dur());
        if (!r.traced)
            continue;
        ++traced_reps;
        pool_wall += threads * r.batch.dur();
        tails.push_back(poolTailS(r, threads));
        std::vector<Interval> point_spans;
        for (const auto &p : r.points)
            point_spans.push_back(p.span);
        batch_s += r.batch.dur();
        uncovered_s += r.batch.dur() - coveredS(point_spans, r.batch);
        for (const auto &p : r.points) {
            busy += p.span.dur();
            net_s += p.netS;
            net_tile_cycles += p.tileCycles;
            flits += static_cast<double>(p.flits);
            net_bytes = std::max(net_bytes, p.netBytesPerTile);
            cmp_bytes = std::max(cmp_bytes, p.cmpBytesPerTile);
            if (p.profile)
                prof.merge(*p.profile);
            if (p.runs.empty()) { // an open-loop sim_harness point
                sim_cycles += static_cast<double>(p.simCycles);
                drain += static_cast<double>(p.drainCycles);
                saturated += p.saturated ? 1.0 : 0.0;
                continue;
            }
            warm_s += p.warm.dur();
            point_s += p.span.dur();
            for (std::size_t i = 0; i < p.runs.size(); ++i) {
                run_s += p.runs[i].dur();
                client_s += p.clientS[i];
            }
            all_msgs += static_cast<double>(p.allMsgs);
            window_kcycles += static_cast<double>(kCmpMeasureCycles) / 1e3;
            l1 += static_cast<double>(p.l1Misses);
            for (std::size_t c = 0; c < msgs.size(); ++c)
                msgs[c] += static_cast<double>(p.windowMsgs[c]);
        }
    }
    auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
    double reps_n = std::max(traced_reps, 1);
    int cmp_points = 0;
    for (const auto &p : reps.back().points)
        cmp_points += p.runs.empty() ? 0 : 1;

    m.add("common.job_pool.busy_pct", 100.0 * ratio(busy, pool_wall), "%");
    m.add("common.job_pool.tail_s", median(tails), "s");
    m.add("noc.sim_harness.sim_cycles", sim_cycles / reps_n, "count");
    m.add("noc.sim_harness.drain_cycles_pct",
          100.0 * ratio(drain, sim_cycles), "%");
    m.add("noc.sim_harness.saturated_points", saturated / reps_n, "count");
    m.add("noc.network.ns_per_tile_cycle",
          1e9 * ratio(net_s, net_tile_cycles), "ns");
    m.add("noc.network.flits_per_tile_cycle", ratio(flits, net_tile_cycles),
          "flit/tile/cyc");
    m.add("noc.network.ns_per_flit", 1e9 * ratio(net_s, flits), "ns");
    double step = static_cast<double>(prof.ns(ProfPhase::StepTotal));
    auto share = [&](std::initializer_list<ProfPhase> ps) {
        double ns = 0.0;
        for (ProfPhase p : ps)
            ns += static_cast<double>(prof.ns(p));
        return 100.0 * ratio(ns, step);
    };
    m.add("noc.network.channel_delivery_pct",
          share({ProfPhase::ChannelDelivery}), "%");
    m.add("noc.network.route_compute_pct", share({ProfPhase::RouteCompute}),
          "%");
    m.add("noc.network.vc_allocate_pct", share({ProfPhase::VcAllocate}),
          "%");
    m.add("noc.network.switch_allocate_pct",
          share({ProfPhase::SwitchAllocate}), "%");
    m.add("noc.network.ni_pct", share({ProfPhase::NiEject, ProfPhase::NiInject}),
          "%");
    m.add("noc.network.scan_overhead_pct",
          100.0 * ratio(static_cast<double>(prof.unattributedNs()), step),
          "%");
    m.add("noc.network.bytes_per_tile", net_bytes, "B");
    m.add("sys.cmp_system.warm_s", ratio(warm_s, cmp_points * reps_n), "s");
    m.add("sys.cmp_system.warm_pct", 100.0 * ratio(warm_s, point_s), "%");
    m.add("sys.cmp_system.client_pct", 100.0 * ratio(client_s, run_s), "%");
    m.add("sys.cmp_system.client_ns_per_msg", 1e9 * ratio(client_s, all_msgs),
          "ns");
    for (std::size_t c = 0; c < msgs.size(); ++c)
        m.add(std::string("sys.cmp_system.msgs.") + kMsgClasses[c],
              ratio(msgs[c], window_kcycles), "msg/kcycle");
    m.add("sys.cmp_system.l1_misses", l1 / reps_n, "count");
    m.add("sys.cmp_system.bytes_per_tile", cmp_bytes, "B");
    m.add("traced.overhead_pct",
          100.0 * (ratio(median(traced), median(untraced)) - 1.0), "%");
    m.add("traced.unattributed_pct", 100.0 * ratio(uncovered_s, batch_s),
          "%");
}

/**
 * Write every span of the traced repetitions, with per-name self time
 * (span minus the union of its children).
 */
void
writeTrace(const std::string &path, const std::string &provenance,
           const std::vector<Rep> &reps)
{
    struct Span
    {
        std::string name;
        Interval iv;
        int parent;
        int point;
        bool aggregated = false;
    };
    std::vector<Span> spans;
    for (const Rep &r : reps) {
        if (!r.traced)
            continue;
        int batch_id = static_cast<int>(spans.size());
        spans.push_back({"common.job_pool.batch", r.batch, -1, -1});
        for (std::size_t i = 0; i < r.points.size(); ++i) {
            const PointRecord &p = r.points[i];
            int pt = static_cast<int>(i);
            int pid = static_cast<int>(spans.size());
            if (p.runs.empty()) {
                spans.push_back({"noc.sim_harness.run_open_loop", p.span,
                                 batch_id, pt});
                continue;
            }
            spans.push_back({"sys.cmp_system.point", p.span, batch_id, pt});
            spans.push_back({"sys.cmp_system.warm_caches", p.warm, pid, pt});
            for (std::size_t k = 0; k < p.runs.size(); ++k) {
                int run_id = static_cast<int>(spans.size());
                spans.push_back({"sys.cmp_system.run", p.runs[k], pid, pt});
                Interval client{p.runs[k].start,
                                p.runs[k].start + p.clientS[k]};
                spans.push_back({"sys.cmp_system.client", client, run_id,
                                 pt, true});
            }
        }
    }

    std::vector<std::vector<Interval>> children(spans.size());
    for (const Span &s : spans)
        if (s.parent >= 0)
            children[static_cast<std::size_t>(s.parent)].push_back(s.iv);
    std::map<std::string, double> self_s;
    for (std::size_t i = 0; i < spans.size(); ++i)
        self_s[spans[i].name] +=
            spans[i].iv.dur() - coveredS(children[i], spans[i].iv);

    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "cannot write trace %s\n", path.c_str());
        return;
    }
    out << "{\"provenance\": " << provenance << ",\n\"self_s\": {";
    std::size_t k = 0;
    for (const auto &[name, s] : self_s) {
        out << (k++ ? ", " : "") << "\"" << name << "\": " << s;
        std::printf("self time %-32s %.4f s\n", name.c_str(), s);
    }
    out << "},\n\"spans\": [\n";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "{\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, "
                      "\"end_s\": %.9f, \"parent\": %d, \"point\": %d%s}",
                      i, s.name.c_str(), s.iv.start, s.iv.end, s.parent,
                      s.point, s.aggregated ? ", \"aggregated\": true" : "");
        out << buf << (i + 1 < spans.size() ? ",\n" : "\n");
    }
    out << "]}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: hnoc_perfbench --workload W --seed N "
                     "--seconds S --trace 0|1 [--threads N] "
                     "[--commit SHA] [--source SHA256] "
                     "[--trace-out FILE]\n");
        return 2;
    }
    if (makePlan(args.workload, args.seed).size() == 0) {
        std::fprintf(stderr, "unknown workload '%s'\n",
                     args.workload.c_str());
        return 2;
    }
    int threads = args.threads > 0
                      ? args.threads
                      : static_cast<int>(std::max(
                            1u, std::thread::hardware_concurrency()));
    std::string provenance = provenanceJson(args, threads);
    std::printf("provenance %s\n", provenance.c_str());

    std::vector<double> setups;
    for (int i = 0; i < kSetupReps; ++i)
        setups.push_back(setupOnce(args, threads));
    double setup_s = median(setups);

    Plan plan = makePlan(args.workload, args.seed);
    JobPool pool(threads);
    std::vector<Rep> reps;
    int count = repsFor(plan, args.seconds);
    if (args.trace) {
        // Untraced repetitions first: the traced run reports its
        // overhead against them.
        runReps(plan, pool, false, std::max(1, count / 2), reps);
        runReps(plan, pool, true, std::max(1, count - count / 2), reps);
    } else {
        runReps(plan, pool, false, count, reps);
    }

    // Invariants per point, and every repetition must reproduce the
    // first one's simulated statistics point for point.
    std::size_t attempted = 0, failed = 0;
    for (const Rep &r : reps) {
        for (std::size_t i = 0; i < r.points.size(); ++i) {
            const PointRecord &p = r.points[i];
            ++attempted;
            std::string why = p.failure;
            if (why.empty() && p.digest != reps.front().points[i].digest)
                why = "digest differs from the first repetition";
            if (!why.empty()) {
                ++failed;
                std::printf("FAILED point %zu: %s\n", i, why.c_str());
            }
        }
    }
    Digest workload_digest;
    for (const auto &p : reps.front().points)
        workload_digest.u64(p.digest);
    std::printf("workload %s seed %llu: %zu points x %zu repetitions, "
                "digest %s\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), plan.size(),
                reps.size(), hex(workload_digest.h).c_str());
    printHeadline(args, plan, reps.front());

    MetricSet metrics;
    if (args.trace) {
        addPerLayer(metrics, reps, threads);
        if (!args.traceOut.empty())
            writeTrace(args.traceOut, provenance, reps);
    } else {
        addEndToEnd(metrics, reps, setup_s);
    }
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": %s}\n",
                failed == 0 ? "true" : "false", attempted, failed,
                metrics.json().c_str());
    return 0;
}
