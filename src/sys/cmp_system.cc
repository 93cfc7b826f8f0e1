#include "sys/cmp_system.hh"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/logging.hh"

namespace hnoc
{

CmpSystem::CmpSystem(const NetworkConfig &net_config,
                     const CmpConfig &config)
    : config_(config), net_(std::make_unique<Network>(net_config))
{
    if (config_.blockBytes < 4 ||
        !std::has_single_bit(static_cast<unsigned>(config_.blockBytes)))
        fatal("CmpConfig: blockBytes %d must be a power of two of at "
              "least 4",
              config_.blockBytes);
    if (config_.maxOutstanding < 1 ||
        (config_.asymmetric && config_.smallMaxOutstanding < 1))
        fatal("CmpConfig: maxOutstanding (%d) and, on asymmetric CMPs, "
              "smallMaxOutstanding (%d) must be at least 1",
              config_.maxOutstanding, config_.smallMaxOutstanding);

    net_->setClient(this);
    clkRatio_ = config_.coreClockGHz / net_->clockGHz();

    // One bucket per cycle of the longest controller latency (capped),
    // so every scheduled event lands in its own cycle's bucket.
    Cycle span = std::max({coreToNet(config_.dramLatencyCoreCycles),
                           coreToNet(config_.l2LatencyCoreCycles),
                           coreToNet(config_.l1LatencyCoreCycles),
                           Cycle{1}});
    ring_.resize(std::bit_ceil(std::min<Cycle>(span + 1, 4096)));

    int nodes = net_->topology().numNodes();
    cores_.resize(static_cast<std::size_t>(nodes));
    banks_.resize(static_cast<std::size_t>(nodes));
    mcs_.resize(static_cast<std::size_t>(nodes));

    for (int n = 0; n < nodes; ++n) {
        Core &core = cores_[static_cast<std::size_t>(n)];
        core.l1 = std::make_unique<CacheArray>(
            config_.l1Bytes, config_.l1Ways, config_.blockBytes);

        bool large = true;
        if (config_.asymmetric) {
            large = std::find(config_.largeCoreTiles.begin(),
                              config_.largeCoreTiles.end(),
                              n) != config_.largeCoreTiles.end();
        }
        if (large) {
            core.issueRate = config_.issueWidth * clkRatio_;
            core.window = config_.windowInstrs;
            core.maxOutstanding = config_.maxOutstanding;
        } else {
            core.issueRate = config_.smallIssueWidth * clkRatio_;
            core.window = config_.smallWindowInstrs;
            core.maxOutstanding = config_.smallMaxOutstanding;
        }
        auto max_out = static_cast<std::size_t>(core.maxOutstanding);
        core.loads.reserve(max_out);
        core.mshrs.blocks.reserve(max_out);
        core.mshrs.entries.reserve(max_out);

        banks_[static_cast<std::size_t>(n)].l2 =
            std::make_unique<CacheArray>(config_.l2BankBytes,
                                         config_.l2Ways,
                                         config_.blockBytes);
    }

    mcTiles_ = mcTiles(config_.mcPlacement, net_config.radixX);
    for (NodeId t : mcTiles_)
        mcs_[static_cast<std::size_t>(t)].present = true;
}

CmpSystem::~CmpSystem() = default;

void
CmpSystem::assignWorkloadAll(const WorkloadProfile &profile)
{
    for (std::size_t n = 0; n < cores_.size(); ++n)
        assignWorkload(static_cast<NodeId>(n), profile);
}

void
CmpSystem::assignWorkload(NodeId core, const WorkloadProfile &profile)
{
    Core &c = cores_[static_cast<std::size_t>(core)];
    c.gen = std::make_unique<TraceGenerator>(profile, core, config_.seed,
                                             config_.blockBytes);
    c.idle = false;
}

void
CmpSystem::idleCore(NodeId core)
{
    Core &c = cores_[static_cast<std::size_t>(core)];
    c.gen.reset();
    c.idle = true;
}

void
CmpSystem::warmCaches(int memops_per_core)
{
    // The walk is memory-latency bound: each operation lands on a
    // random L2 set and directory slot among megabytes of them. The
    // trace does not depend on cache state, so it is generated
    // kLookahead operations ahead and each one's home-bank lines are
    // prefetched; operations still apply strictly in trace order.
    constexpr int kLookahead = 8;
    struct Op
    {
        TraceRecord rec;
        Addr block;
        Bank *bank;
        CacheArray::Loc l2;
    };
    std::array<Op, kLookahead> ahead;

    Addr victim = 0;
    CacheState vstate = CacheState::Invalid;
    for (std::size_t n = 0; n < cores_.size(); ++n) {
        Core &core = cores_[n];
        if (core.idle || !core.gen)
            continue;
        // A twin generator replays the same distribution without
        // consuming the timed trace stream.
        TraceGenerator twin(core.gen->profile(), static_cast<int>(n),
                            config_.seed ^ 0x5eedULL, config_.blockBytes);
        // Home tile and L2 set are computed once per operation.
        auto fetch = [&](Op &op) {
            op.rec = twin.next();
            op.block = core.l1->blockAddr(op.rec.addr);
            op.bank = &banks_[static_cast<std::size_t>(homeTile(op.block))];
            op.l2 = op.bank->l2->locate(op.block);
            op.bank->l2->prefetch(op.l2);
            op.bank->dir.prefetch(op.block);
        };
        for (int i = 0; i < std::min(kLookahead, memops_per_core); ++i)
            fetch(ahead[static_cast<std::size_t>(i)]);

        for (int i = 0; i < memops_per_core; ++i) {
            Op &next = ahead[static_cast<std::size_t>(i % kLookahead)];
            const TraceRecord rec = next.rec;
            const Addr block = next.block;
            Bank &bank = *next.bank;
            const CacheArray::Loc l2 = next.l2;
            if (i + kLookahead < memops_per_core)
                fetch(next);

            // Every L1 has the same geometry: one Loc serves the
            // requester and any peer it invalidates or demotes.
            CacheArray::Loc l1 = core.l1->locate(block);
            bank.l2->insert(l2, CacheState::Shared, victim, vstate);
            DirEntry &entry = bank.dir[block];
            if (rec.isWrite) {
                for (NodeId s : entry.sharers)
                    cores_[static_cast<std::size_t>(s)].l1->invalidate(l1);
                if (entry.exclusive && entry.owner != INVALID_NODE &&
                    entry.owner != static_cast<NodeId>(n))
                    cores_[static_cast<std::size_t>(entry.owner)]
                        .l1->invalidate(l1);
                entry.sharers.clear();
                entry.exclusive = true;
                entry.owner = static_cast<NodeId>(n);
                core.l1->insert(l1, CacheState::Modified, victim, vstate);
            } else {
                if (entry.exclusive &&
                    entry.owner != static_cast<NodeId>(n)) {
                    if (entry.owner != INVALID_NODE) {
                        Core &oc = cores_[static_cast<std::size_t>(
                            entry.owner)];
                        if (oc.l1->lookup(l1) != CacheState::Invalid)
                            oc.l1->setState(l1, CacheState::Shared);
                        entry.sharers.push_back(entry.owner);
                    }
                    entry.exclusive = false;
                    entry.owner = INVALID_NODE;
                }
                if (core.l1->lookup(l1) == CacheState::Invalid) {
                    bool first = entry.sharers.empty() &&
                                 !entry.exclusive;
                    if (first) {
                        entry.exclusive = true;
                        entry.owner = static_cast<NodeId>(n);
                        core.l1->insert(l1, CacheState::Exclusive, victim,
                                        vstate);
                    } else {
                        if (std::find(entry.sharers.begin(),
                                      entry.sharers.end(),
                                      static_cast<NodeId>(n)) ==
                            entry.sharers.end())
                            entry.sharers.push_back(
                                static_cast<NodeId>(n));
                        core.l1->insert(l1, CacheState::Shared, victim,
                                        vstate);
                    }
                } else {
                    core.l1->touch(l1);
                }
            }
        }
    }
}

Cycle
CmpSystem::coreToNet(int core_cycles) const
{
    return static_cast<Cycle>(
        std::ceil(static_cast<double>(core_cycles) / clkRatio_));
}

NodeId
CmpSystem::homeTile(Addr block) const
{
    Addr blk = block >> std::countr_zero(
                   static_cast<unsigned>(config_.blockBytes));
    // Fold in high bits so private regions spread over all banks.
    Addr mixed = blk ^ (blk >> 12) ^ (blk >> 28);
    return static_cast<NodeId>(
        mixed % static_cast<Addr>(cores_.size()));
}

Msg *
CmpSystem::allocMsg(const Msg &proto)
{
    Msg *m;
    if (!msgFree_.empty()) {
        m = msgFree_.back();
        msgFree_.pop_back();
    } else {
        msgArena_.push_back(std::make_unique<Msg>());
        m = msgArena_.back().get();
    }
    *m = proto;
    return m;
}

void
CmpSystem::freeMsg(Msg *msg)
{
    msgFree_.push_back(msg);
}

void
CmpSystem::run(Cycle net_cycles)
{
    net_->run(net_cycles);
}

void
CmpSystem::resetStats()
{
    net_->resetMeasurement();
    netStats_.reset();
    roundTrip_.reset();
    statsStart_ = net_->now();
    packetsSent_ = 0;
    for (Core &core : cores_)
        core.retiredAtReset = core.retired;
}

double
CmpSystem::ipc(NodeId core) const
{
    const Core &c = cores_[static_cast<std::size_t>(core)];
    Cycle net_cycles = net_->now() - statsStart_;
    if (net_cycles == 0)
        return 0.0;
    double core_cycles = static_cast<double>(net_cycles) * clkRatio_;
    return static_cast<double>(c.retired - c.retiredAtReset) / core_cycles;
}

double
CmpSystem::avgIpc() const
{
    double sum = 0.0;
    int n = 0;
    for (std::size_t i = 0; i < cores_.size(); ++i) {
        if (cores_[i].idle)
            continue;
        sum += ipc(static_cast<NodeId>(i));
        ++n;
    }
    return n ? sum / n : 0.0;
}

std::uint64_t
CmpSystem::l1Misses() const
{
    std::uint64_t n = 0;
    for (const Core &c : cores_)
        n += c.l1Misses;
    return n;
}

// ----------------------------------------------------------- stepping --

void
CmpSystem::preCycle(Network &, Cycle now)
{
    // 1. Deliver due controller events.
    drainEvents(now);

    // 2. Memory-controller service: start DRAM accesses.
    for (NodeId t : mcTiles_) {
        MemController &mc = mcs_[static_cast<std::size_t>(t)];
        while (!mc.queue.empty() && now >= mc.nextFree) {
            Msg req = mc.queue.front();
            mc.queue.pop_front();
            mc.nextFree = now + static_cast<Cycle>(
                config_.mcServiceInterval);
            // DRAM access completes after the access latency; then the
            // data packet is sent back to the home bank.
            Msg resp;
            resp.type = MsgType::MemData;
            resp.block = req.block;
            resp.sender = t;
            resp.requester = req.requester; // home tile
            Event ev;
            ev.at = now + coreToNet(config_.dramLatencyCoreCycles);
            ev.tile = req.requester;
            ev.msg = resp;
            ev.isSend = true;
            ev.src = t;
            schedule(ev);
        }
    }

    // 3. Cores issue instructions.
    for (std::size_t n = 0; n < cores_.size(); ++n) {
        Core &core = cores_[n];
        if (!core.idle)
            stepCore(static_cast<NodeId>(n), core, now);
    }
}

void
CmpSystem::stepCore(NodeId id, Core &core, Cycle now)
{
    core.budget += core.issueRate;
    // A stalled core cannot bank issue slots beyond one cycle's worth.
    core.budget = std::min(core.budget, core.issueRate + 3.0);

    while (core.budget >= 1.0) {
        // Reorder-window stall: the oldest outstanding load blocks
        // retirement once it is `window` instructions old.
        if (!core.loads.empty() &&
            core.retired - core.loads.front().atInstr >=
                static_cast<std::uint64_t>(core.window))
            break;

        if (!core.hasPending) {
            core.pending = core.gen->next();
            core.nonMemLeft = core.pending.nonMemInstrs;
            core.hasPending = true;
        }
        if (core.nonMemLeft > 0) {
            --core.nonMemLeft;
            ++core.retired;
            core.budget -= 1.0;
            continue;
        }
        if (!issueMemOp(id, core, core.pending, now))
            break; // structural stall (MSHRs / conflicting miss)
        ++core.retired;
        core.budget -= 1.0;
        core.hasPending = false;
    }
}

bool
CmpSystem::issueMemOp(NodeId id, Core &core, const TraceRecord &rec,
                      Cycle now)
{
    Addr block = core.l1->blockAddr(rec.addr);

    if (const Mshr *pending = core.mshrs.find(block)) {
        // Miss already outstanding for this block.
        if (!rec.isWrite) {
            if (static_cast<int>(core.loads.size()) >=
                core.maxOutstanding)
                return false;
            core.loads.push_back({core.nextReqId++, block, core.retired});
            return true; // coalesced load
        }
        if (pending->isWrite)
            return true; // store coalesces into pending GetX
        return false;    // write after pending read: stall
    }

    CacheArray::Loc loc = core.l1->locate(block);
    CacheState state = core.l1->lookup(loc);
    if (!rec.isWrite) {
        if (state != CacheState::Invalid) {
            core.l1->touch(loc);
            ++core.l1Hits;
            return true;
        }
    } else {
        if (state == CacheState::Modified) {
            core.l1->touch(loc);
            ++core.l1Hits;
            return true;
        }
        if (state == CacheState::Exclusive) {
            core.l1->setState(loc, CacheState::Modified);
            ++core.l1Hits;
            return true;
        }
        // Shared: upgrade miss. Invalid: plain write miss.
    }

    // L1 miss: allocate an MSHR and send the request to the home bank.
    if (core.mshrs.size() >= core.maxOutstanding)
        return false;
    if (!rec.isWrite &&
        static_cast<int>(core.loads.size()) >= core.maxOutstanding)
        return false;

    Mshr mshr;
    mshr.isWrite = rec.isWrite;
    mshr.issuedAt = now;
    core.mshrs.add(block, mshr);
    ++core.l1Misses;

    if (!rec.isWrite)
        core.loads.push_back({core.nextReqId++, block, core.retired});

    Msg msg;
    msg.type = rec.isWrite ? MsgType::GetX : MsgType::GetS;
    msg.block = block;
    msg.sender = id;
    msg.requester = id;
    sendMsg(id, homeTile(block), msg, now);
    return true;
}

void
CmpSystem::installLine(NodeId id, Core &core, Addr block, CacheState state,
                       Cycle now)
{
    Addr victim = 0;
    CacheState victim_state = CacheState::Invalid;
    if (core.l1->insert(block, state, victim, victim_state)) {
        if (victim_state == CacheState::Modified) {
            Msg wb;
            wb.type = MsgType::PutM;
            wb.block = victim;
            wb.sender = id;
            wb.requester = id;
            sendMsg(id, homeTile(victim), wb, now);
        }
        // Exclusive/Shared victims are dropped silently; the directory
        // tolerates stale sharers/owners (see dirStartTxn).
    }
}

void
CmpSystem::completeLoads(NodeId id, Core &core, Addr block, Cycle now)
{
    (void)id;
    std::erase_if(core.loads, [block](const OutstandingLoad &l) {
        return l.block == block;
    });
    if (const Mshr *mshr = core.mshrs.find(block))
        roundTrip_.add(static_cast<double>(now - mshr->issuedAt) *
                       clkRatio_);
}

// -------------------------------------------------------------- events --

void
CmpSystem::schedule(const Event &ev)
{
    if (ev.at < nextCycle_)
        late_.push_back(ev);
    else
        ring_[ev.at & (ring_.size() - 1)].push_back(ev);
}

void
CmpSystem::drainEvents(Cycle now)
{
    // Same order as one time-ordered FIFO queue: late events first
    // (their cycle precedes every ring cycle), then each cycle's bucket
    // in scheduling order. A handler may append a delay-0 event to the
    // bucket being drained; the index loop picks it up in turn.
    for (std::size_t i = 0; i < late_.size(); ++i) {
        Event ev = late_[i];
        dispatch(ev, now);
    }
    late_.clear();
    for (; nextCycle_ <= now; ++nextCycle_) {
        std::vector<Event> &bucket = ring_[nextCycle_ & (ring_.size() - 1)];
        std::size_t keep = 0;
        for (std::size_t i = 0; i < bucket.size(); ++i) {
            if (bucket[i].at != nextCycle_) {
                bucket[keep++] = bucket[i];
                continue;
            }
            Event ev = bucket[i];
            dispatch(ev, now);
        }
        bucket.resize(keep);
    }
}

void
CmpSystem::dispatch(const Event &ev, Cycle now)
{
    if (ev.isSend)
        sendMsg(ev.src, ev.tile, ev.msg, now);
    else
        handleMsg(ev.tile, ev.msg, now);
}

// ----------------------------------------------------------- messaging --

void
CmpSystem::sendMsg(NodeId src, NodeId dst, const Msg &msg, Cycle now)
{
    ++msgCounts_[static_cast<std::size_t>(msg.type)];
    if (src == dst) {
        // Same-tile access: no network traversal; charge the bank
        // access latency.
        Event ev;
        ev.at = now + coreToNet(config_.l2LatencyCoreCycles);
        ev.tile = dst;
        ev.msg = msg;
        schedule(ev);
        return;
    }
    int flits = carriesData(msg.type) ? net_->dataPacketFlits() : 1;
    Msg *m = allocMsg(msg);
    net_->enqueuePacket(src, dst, flits, 0, m);
    ++packetsSent_;
}

void
CmpSystem::onPacketDelivered(Network &net, Packet &pkt, Cycle now)
{
    Msg *m = static_cast<Msg *>(pkt.context);
    if (!m)
        panic("CmpSystem: packet without message context");

    // Network latency accounting (Fig 11).
    double ns = net.nsPerCycle();
    auto total = static_cast<double>(pkt.ejectedAt - pkt.createdAt);
    auto queuing = static_cast<double>(pkt.queuingLatency());
    auto transfer = static_cast<double>(
        net.minTransferCycles(pkt.src, pkt.dst, pkt.numFlits));
    double blocking = std::max(0.0, total - queuing - transfer);
    netStats_.totalNs.add(total * ns);
    netStats_.queuingNs.add(queuing * ns);
    netStats_.transferNs.add(transfer * ns);
    netStats_.blockingNs.add(blocking * ns);

    // Charge the receiving controller's access latency, then handle.
    Cycle delay;
    switch (m->type) {
      case MsgType::GetS:
      case MsgType::GetX:
      case MsgType::PutM:
      case MsgType::InvAck:
      case MsgType::OwnerWb:
        delay = coreToNet(config_.l2LatencyCoreCycles);
        break;
      case MsgType::MemRead:
      case MsgType::MemWrite:
      case MsgType::MemData:
        delay = 1;
        break;
      default:
        delay = coreToNet(config_.l1LatencyCoreCycles);
        break;
    }
    Event ev;
    ev.at = now + delay;
    ev.tile = pkt.dst;
    ev.msg = *m;
    schedule(ev);
    freeMsg(m);
}

void
CmpSystem::handleMsg(NodeId tile, const Msg &msg, Cycle now)
{
    switch (msg.type) {
      case MsgType::GetS:
      case MsgType::GetX:
      case MsgType::PutM:
      case MsgType::InvAck:
      case MsgType::OwnerWb:
      case MsgType::MemData:
        dirHandle(tile, msg, now);
        break;
      case MsgType::DataS:
      case MsgType::DataE:
      case MsgType::DataM:
      case MsgType::UpgradeAck:
      case MsgType::Inv:
      case MsgType::FwdGetS:
      case MsgType::FwdGetX:
      case MsgType::WbAck:
        coreHandle(tile, msg, now);
        break;
      case MsgType::MemRead:
      case MsgType::MemWrite:
        mcHandle(tile, msg, now);
        break;
    }
}

// --------------------------------------------------------------- cores --

void
CmpSystem::coreHandle(NodeId tile, const Msg &msg, Cycle now)
{
    Core &core = cores_[static_cast<std::size_t>(tile)];
    Addr block = msg.block;

    switch (msg.type) {
      case MsgType::DataS:
      case MsgType::DataE:
      case MsgType::DataM:
      case MsgType::UpgradeAck: {
        CacheState state = msg.type == MsgType::DataS
                               ? CacheState::Shared
                               : (msg.type == MsgType::DataE
                                      ? CacheState::Exclusive
                                      : CacheState::Modified);
        installLine(tile, core, block, state, now);
        completeLoads(tile, core, block, now);
        if (Mshr *mshr = core.mshrs.find(block)) {
            if (mshr->invalidatedWhilePending) {
                // The data is used once (the miss that requested it)
                // and the line is dropped to respect the later
                // invalidation that overtook it in the network.
                core.l1->invalidate(block);
            }
            core.mshrs.erase(mshr);
        }
        break;
      }
      case MsgType::Inv: {
        if (Mshr *mshr = core.mshrs.find(block))
            mshr->invalidatedWhilePending = true;
        else
            core.l1->invalidate(block);
        Msg ack;
        ack.type = MsgType::InvAck;
        ack.block = block;
        ack.sender = tile;
        ack.requester = msg.requester;
        sendMsg(tile, msg.sender, ack, now);
        break;
      }
      case MsgType::FwdGetS: {
        // Demote to Shared and return the line to the home bank.
        CacheState st = core.l1->lookup(block);
        if (st == CacheState::Modified || st == CacheState::Exclusive)
            core.l1->setState(block, CacheState::Shared);
        Msg wb;
        wb.type = MsgType::OwnerWb;
        wb.block = block;
        wb.sender = tile;
        wb.requester = msg.requester;
        sendMsg(tile, msg.sender, wb, now);
        break;
      }
      case MsgType::FwdGetX: {
        core.l1->invalidate(block);
        Msg wb;
        wb.type = MsgType::OwnerWb;
        wb.block = block;
        wb.sender = tile;
        wb.requester = msg.requester;
        sendMsg(tile, msg.sender, wb, now);
        break;
      }
      case MsgType::WbAck:
        // Writebacks hold no core state: the line left the L1 when
        // the PutM was sent.
        break;
      default:
        panic("coreHandle: unexpected message type %d",
              static_cast<int>(msg.type));
    }
}

// ----------------------------------------------------------- directory --

void
CmpSystem::dirHandle(NodeId tile, const Msg &msg, Cycle now)
{
    Bank &bank = banks_[static_cast<std::size_t>(tile)];
    Addr block = msg.block;

    switch (msg.type) {
      case MsgType::GetS:
      case MsgType::GetX:
      case MsgType::PutM:
        dirStartTxn(tile, msg, now);
        break;
      case MsgType::InvAck: {
        Txn *txn = bank.busy.find(block);
        if (!txn)
            break; // ack for an already-satisfied (stale-sharer) inv
        if (--txn->pendingInvAcks <= 0)
            dirRespond(tile, block, *txn, now);
        break;
      }
      case MsgType::OwnerWb: {
        // Fill the L2 with the owner's (possibly dirty) line.
        Addr victim = 0;
        CacheState vstate = CacheState::Invalid;
        if (bank.l2->insert(block, CacheState::Modified, victim, vstate) &&
            vstate == CacheState::Modified) {
            Msg mw;
            mw.type = MsgType::MemWrite;
            mw.block = victim;
            mw.sender = tile;
            mw.requester = tile;
            sendMsg(tile, mcForBlock(victim, config_.blockBytes, mcTiles_),
                    mw, now);
        }
        if (Txn *txn = bank.busy.find(block)) {
            txn->waitingOwner = false;
            dirRespond(tile, block, *txn, now);
        }
        break;
      }
      case MsgType::MemData: {
        Addr victim = 0;
        CacheState vstate = CacheState::Invalid;
        if (bank.l2->insert(block, CacheState::Shared, victim, vstate) &&
            vstate == CacheState::Modified) {
            Msg mw;
            mw.type = MsgType::MemWrite;
            mw.block = victim;
            mw.sender = tile;
            mw.requester = tile;
            sendMsg(tile, mcForBlock(victim, config_.blockBytes, mcTiles_),
                    mw, now);
        }
        if (Txn *txn = bank.busy.find(block)) {
            txn->waitingMem = false;
            dirRespond(tile, block, *txn, now);
        }
        break;
      }
      default:
        panic("dirHandle: unexpected message type %d",
              static_cast<int>(msg.type));
    }
}

void
CmpSystem::dirStartTxn(NodeId tile, const Msg &msg, Cycle now)
{
    Bank &bank = banks_[static_cast<std::size_t>(tile)];
    Addr block = msg.block;

    if (Txn *busy = bank.busy.find(block)) {
        busy->deferred.push_back(msg);
        return;
    }

    if (msg.type == MsgType::PutM) {
        // Writebacks complete immediately (no transaction).
        const DirEntry *dir = bank.dir.find(block);
        if (dir && dir->exclusive && dir->owner == msg.sender) {
            Addr victim = 0;
            CacheState vstate = CacheState::Invalid;
            if (bank.l2->insert(block, CacheState::Modified, victim,
                                vstate) &&
                vstate == CacheState::Modified) {
                Msg mw;
                mw.type = MsgType::MemWrite;
                mw.block = victim;
                mw.sender = tile;
                mw.requester = tile;
                sendMsg(tile,
                        mcForBlock(victim, config_.blockBytes, mcTiles_),
                        mw, now);
            }
            bank.dir.erase(block);
        }
        // Stale PutM (owner changed since): data is already current.
        Msg ack;
        ack.type = MsgType::WbAck;
        ack.block = block;
        ack.sender = tile;
        ack.requester = msg.sender;
        sendMsg(tile, msg.sender, ack, now);
        return;
    }

    Txn txn;
    txn.req = msg.type;
    txn.requester = msg.sender;
    txn.reqId = msg.reqId;

    // Creates an Uncached entry if new. Nothing before dirRespond
    // inserts into or erases from bank.dir, so the reference holds.
    DirEntry &entry = bank.dir[block];

    // A silently-dropped Exclusive line can leave the requester itself
    // registered as owner: treat as unowned.
    if (entry.exclusive && entry.owner == txn.requester) {
        entry.exclusive = false;
        entry.owner = INVALID_NODE;
    }

    if (msg.type == MsgType::GetS) {
        if (entry.exclusive) {
            txn.waitingOwner = true;
            Msg fwd;
            fwd.type = MsgType::FwdGetS;
            fwd.block = block;
            fwd.sender = tile;
            fwd.requester = txn.requester;
            sendMsg(tile, entry.owner, fwd, now);
        } else if (bank.l2->lookup(block) == CacheState::Invalid) {
            txn.waitingMem = true;
            Msg mr;
            mr.type = MsgType::MemRead;
            mr.block = block;
            mr.sender = tile;
            mr.requester = tile;
            sendMsg(tile, mcForBlock(block, config_.blockBytes, mcTiles_),
                    mr, now);
        } else {
            bank.l2->touch(block);
        }
    } else { // GetX
        txn.upgrade =
            std::find(entry.sharers.begin(), entry.sharers.end(),
                      txn.requester) != entry.sharers.end();
        if (entry.exclusive) {
            txn.waitingOwner = true;
            Msg fwd;
            fwd.type = MsgType::FwdGetX;
            fwd.block = block;
            fwd.sender = tile;
            fwd.requester = txn.requester;
            sendMsg(tile, entry.owner, fwd, now);
        } else {
            for (NodeId s : entry.sharers) {
                if (s == txn.requester)
                    continue;
                ++txn.pendingInvAcks;
                Msg inv;
                inv.type = MsgType::Inv;
                inv.block = block;
                inv.sender = tile;
                inv.requester = txn.requester;
                sendMsg(tile, s, inv, now);
            }
            if (!txn.upgrade &&
                bank.l2->lookup(block) == CacheState::Invalid) {
                txn.waitingMem = true;
                Msg mr;
                mr.type = MsgType::MemRead;
                mr.block = block;
                mr.sender = tile;
                mr.requester = tile;
                sendMsg(tile,
                        mcForBlock(block, config_.blockBytes, mcTiles_),
                        mr, now);
            }
        }
    }

    Txn &open = bank.busy[block];
    open = std::move(txn);
    dirRespond(tile, block, open, now);
}

void
CmpSystem::dirRespond(NodeId tile, Addr block, Txn &txn, Cycle now)
{
    if (txn.waitingMem || txn.waitingOwner || txn.pendingInvAcks > 0)
        return;

    Bank &bank = banks_[static_cast<std::size_t>(tile)];
    // dirFinishTxn (last) may insert into bank.dir and erases @p txn;
    // neither reference is used after it.
    DirEntry &entry = bank.dir[block];

    Msg resp;
    resp.block = block;
    resp.sender = tile;
    resp.requester = txn.requester;

    if (txn.req == MsgType::GetS) {
        bool was_owned = entry.exclusive;
        if (entry.sharers.empty() && !was_owned) {
            // First reader gets Exclusive (the E of MESI).
            resp.type = MsgType::DataE;
            entry.exclusive = true;
            entry.owner = txn.requester;
        } else {
            resp.type = MsgType::DataS;
            if (was_owned) {
                // Owner was demoted by FwdGetS.
                entry.sharers.push_back(entry.owner);
                entry.exclusive = false;
                entry.owner = INVALID_NODE;
            }
            if (std::find(entry.sharers.begin(), entry.sharers.end(),
                          txn.requester) == entry.sharers.end())
                entry.sharers.push_back(txn.requester);
        }
    } else { // GetX
        resp.type = txn.upgrade ? MsgType::UpgradeAck : MsgType::DataM;
        entry.sharers.clear();
        entry.exclusive = true;
        entry.owner = txn.requester;
    }

    sendMsg(tile, txn.requester, resp, now);
    dirFinishTxn(tile, block, now);
}

void
CmpSystem::dirFinishTxn(NodeId tile, Addr block, Cycle now)
{
    Bank &bank = banks_[static_cast<std::size_t>(tile)];
    Txn *txn = bank.busy.find(block);
    if (!txn)
        return;
    std::vector<Msg> deferred = std::move(txn->deferred);
    bank.busy.erase(block);
    // Replay deferred requests in arrival order; each may re-block.
    for (const Msg &m : deferred)
        dirStartTxn(tile, m, now);
}

// -------------------------------------------------------------- memory --

void
CmpSystem::mcHandle(NodeId tile, const Msg &msg, Cycle now)
{
    (void)now;
    MemController &mc = mcs_[static_cast<std::size_t>(tile)];
    if (!mc.present)
        panic("memory message at tile %d without a controller", tile);
    if (msg.type == MsgType::MemRead)
        mc.queue.push_back(msg);
    // MemWrite is absorbed (write drains modeled as free).
}

MemoryAudit
CmpSystem::memoryAudit() const
{
    MemoryAudit a = net_->memoryAudit();

    std::uint64_t b = 0;
    std::uint64_t n = 0;
    for (const Core &c : cores_) {
        if (c.l1) {
            b += c.l1->footprintBytes();
            ++n;
        }
    }
    a.add("l1_caches", b, n);

    b = 0;
    n = 0;
    for (const Bank &bank : banks_) {
        if (bank.l2) {
            b += bank.l2->footprintBytes();
            ++n;
        }
    }
    a.add("l2_banks", b, n);

    // Full-map MESI directory, exact: every slot of each bank's flat
    // table (block key + inline DirEntry, empty slots included) plus
    // each spilled sharer list's heap capacity, which grows toward
    // O(tiles) per widely shared line — the scaling blocker this audit
    // measures.
    std::uint64_t entries = 0;
    b = 0;
    for (const Bank &bank : banks_) {
        b += bank.dir.capacity() * bank.dir.slotBytes();
        bank.dir.forEach([&b](Addr, const DirEntry &e) {
            b += e.sharers.capacity() * sizeof(NodeId);
        });
        entries += bank.dir.size();
    }
    a.add("mesi_directory", b, entries);

    // Open transactions: every slot plus each deferred-request queue.
    b = 0;
    std::uint64_t txns = 0;
    for (const Bank &bank : banks_) {
        b += bank.busy.capacity() * bank.busy.slotBytes();
        bank.busy.forEach([&b](Addr, const Txn &t) {
            b += t.deferred.capacity() * sizeof(Msg);
        });
        txns += bank.busy.size();
    }
    a.add("directory_txns", b, txns);

    a.add("msg_arena",
          msgArena_.size() * (sizeof(std::unique_ptr<Msg>) + sizeof(Msg)) +
              msgFree_.capacity() * sizeof(Msg *),
          msgArena_.size());
    return a;
}

} // namespace hnoc
