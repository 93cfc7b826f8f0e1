/**
 * @file
 * CacheArray unit tests: lookup/insert/invalidate semantics, LRU
 * replacement, state transitions, set-index mixing, geometry
 * validation, and a differential replay against the original
 * timestamp-LRU line array.
 */

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "sys/cache.hh"

namespace hnoc
{
namespace
{

constexpr int BLOCK = 128;

TEST(CacheArray, MissThenHit)
{
    CacheArray c(4 * 1024, 4, BLOCK);
    Addr victim;
    CacheState vstate;
    EXPECT_EQ(c.lookup(0x1000), CacheState::Invalid);
    EXPECT_FALSE(c.insert(0x1000, CacheState::Shared, victim, vstate));
    EXPECT_EQ(c.lookup(0x1000), CacheState::Shared);
    // Same block, different offset.
    EXPECT_EQ(c.lookup(0x1000 + 64), CacheState::Shared);
    // Different block.
    EXPECT_EQ(c.lookup(0x1000 + BLOCK), CacheState::Invalid);
}

TEST(CacheArray, StateUpdateInPlace)
{
    CacheArray c(4 * 1024, 4, BLOCK);
    Addr victim;
    CacheState vstate;
    c.insert(0x2000, CacheState::Exclusive, victim, vstate);
    c.setState(0x2000, CacheState::Modified);
    EXPECT_EQ(c.lookup(0x2000), CacheState::Modified);
}

TEST(CacheArray, InvalidateRemoves)
{
    CacheArray c(4 * 1024, 4, BLOCK);
    Addr victim;
    CacheState vstate;
    c.insert(0x3000, CacheState::Modified, victim, vstate);
    c.invalidate(0x3000);
    EXPECT_EQ(c.lookup(0x3000), CacheState::Invalid);
    c.invalidate(0x3000); // idempotent on absent lines
}

TEST(CacheArray, LruEvictsColdestWay)
{
    // Direct construction of set conflicts is awkward with index
    // mixing, so fill far beyond capacity and verify eviction
    // accounting instead.
    CacheArray c(2 * 1024, 2, BLOCK); // 16 lines
    Addr victim;
    CacheState vstate;
    int evictions = 0;
    for (int i = 0; i < 64; ++i) {
        if (c.insert(static_cast<Addr>(i) * BLOCK, CacheState::Shared,
                     victim, vstate))
            ++evictions;
    }
    EXPECT_GE(evictions, 64 - 16);
    EXPECT_EQ(c.evictions, static_cast<std::uint64_t>(evictions));
}

TEST(CacheArray, TouchProtectsFromEviction)
{
    // Behavioral LRU check robust to index mixing: a continuously
    // touched line must survive a stream of conflicting inserts.
    Addr victim;
    CacheState vstate;
    CacheArray lru(4 * 1024, 4, BLOCK);
    lru.insert(0x100 * BLOCK, CacheState::Shared, victim, vstate);
    for (int i = 0; i < 200; ++i) {
        lru.touch(0x100 * BLOCK);
        lru.insert(static_cast<Addr>(i) * BLOCK, CacheState::Shared,
                   victim, vstate);
    }
    EXPECT_NE(lru.lookup(0x100 * BLOCK), CacheState::Invalid)
        << "continuously touched line must stay resident";
}

TEST(CacheArray, HighBitsDontAlias)
{
    // Per-core private bases differ only above bit 32; they must not
    // all collapse into the same sets.
    CacheArray c(32 * 1024, 4, BLOCK); // 256 lines
    Addr victim;
    CacheState vstate;
    int evictions = 0;
    for (int core = 0; core < 64; ++core) {
        Addr base = static_cast<Addr>(core + 1) << 32;
        for (int b = 0; b < 4; ++b)
            if (c.insert(base + static_cast<Addr>(b) * BLOCK,
                         CacheState::Shared, victim, vstate))
                ++evictions;
    }
    // 256 inserts into 256 lines: with good index mixing, few
    // evictions; with aliasing, ~192.
    EXPECT_LT(evictions, 120);
}

TEST(CacheArray, BlockAlignment)
{
    CacheArray c(4 * 1024, 4, BLOCK);
    EXPECT_EQ(c.blockAddr(0x12345), static_cast<Addr>(0x12345) & ~0x7FULL);
    EXPECT_EQ(c.blockBytes(), BLOCK);
}

TEST(CacheArrayDeathTest, RejectsNonPowerOfTwoBlock)
{
    // blockAddr masks with blockBytes - 1: a 96 B block would map
    // address 96 to block 32 and alias distinct blocks silently.
    EXPECT_DEATH(CacheArray(96 * 64, 4, 96), "power of two");
    EXPECT_DEATH(CacheArray(4 * 1024, 4, 2), "at least 4");
    EXPECT_DEATH(CacheArray(4 * 1024, 0, BLOCK), "invalid geometry");
}

/**
 * The line array as it was before keys were packed: one {tag, state,
 * lastUse} record per way, a resident scan, a free-way scan and a
 * timestamp-LRU victim scan. The packed array must match it exactly.
 */
class ReferenceCache
{
  public:
    ReferenceCache(std::uint64_t size_bytes, int ways, int block_bytes)
        : ways_(ways), blockBytes_(block_bytes)
    {
        std::uint64_t lines =
            size_bytes / static_cast<std::uint64_t>(block_bytes);
        numSets_ = static_cast<std::size_t>(
            lines / static_cast<std::uint64_t>(ways));
        if (numSets_ == 0)
            numSets_ = 1;
        lines_.resize(numSets_ * static_cast<std::size_t>(ways_));
    }

    CacheState
    lookup(Addr addr) const
    {
        const Line *l = findLine(addr);
        return l ? l->state : CacheState::Invalid;
    }

    bool
    resident(Addr addr) const
    {
        return findLine(addr) != nullptr;
    }

    void
    setState(Addr addr, CacheState state)
    {
        Line *l = const_cast<Line *>(findLine(addr));
        l->state = state;
        l->lastUse = ++useClock_;
    }

    bool
    insert(Addr addr, CacheState state, Addr &victim_addr,
           CacheState &victim_state)
    {
        Addr tag = blockAddr(addr);
        Line *set = &lines_[setIndex(addr) * static_cast<std::size_t>(ways_)];
        for (int w = 0; w < ways_; ++w) {
            if (set[w].state != CacheState::Invalid && set[w].tag == tag) {
                set[w].state = state;
                set[w].lastUse = ++useClock_;
                return false;
            }
        }
        for (int w = 0; w < ways_; ++w) {
            if (set[w].state == CacheState::Invalid) {
                set[w] = {tag, state, ++useClock_};
                return false;
            }
        }
        int victim = 0;
        for (int w = 1; w < ways_; ++w) {
            if (set[w].lastUse < set[victim].lastUse)
                victim = w;
        }
        victim_addr = set[victim].tag;
        victim_state = set[victim].state;
        set[victim] = {tag, state, ++useClock_};
        ++evictions;
        return true;
    }

    void
    invalidate(Addr addr)
    {
        if (Line *l = const_cast<Line *>(findLine(addr)))
            l->state = CacheState::Invalid;
    }

    void
    touch(Addr addr)
    {
        if (Line *l = const_cast<Line *>(findLine(addr)))
            l->lastUse = ++useClock_;
    }

    std::uint64_t evictions = 0;

  private:
    struct Line
    {
        Addr tag = 0;
        CacheState state = CacheState::Invalid;
        std::uint64_t lastUse = 0;
    };

    Addr
    blockAddr(Addr addr) const
    {
        return addr & ~static_cast<Addr>(blockBytes_ - 1);
    }

    std::size_t
    setIndex(Addr addr) const
    {
        Addr h = addr / static_cast<Addr>(blockBytes_);
        h ^= h >> 33;
        h *= 0xff51afd7ed558ccdULL;
        h ^= h >> 33;
        h *= 0xc4ceb9fe1a85ec53ULL;
        h ^= h >> 33;
        return static_cast<std::size_t>(h % numSets_);
    }

    const Line *
    findLine(Addr addr) const
    {
        Addr tag = blockAddr(addr);
        const Line *set =
            &lines_[setIndex(addr) * static_cast<std::size_t>(ways_)];
        for (int w = 0; w < ways_; ++w) {
            if (set[w].state != CacheState::Invalid && set[w].tag == tag)
                return &set[w];
        }
        return nullptr;
    }

    int ways_;
    int blockBytes_;
    std::size_t numSets_;
    std::vector<Line> lines_;
    std::uint64_t useClock_ = 0;
};

/** Replay one seeded random operation stream against both arrays. */
void
replayAgainstReference(int ways, std::size_t sets, std::uint64_t seed)
{
    const std::uint64_t size =
        static_cast<std::uint64_t>(sets) * static_cast<std::uint64_t>(ways) *
        BLOCK;
    CacheArray packed(size, ways, BLOCK);
    ReferenceCache ref(size, ways, BLOCK);

    // A pool of 3x capacity blocks forces evictions; block 0 and
    // private-region-style high addresses are always in it.
    std::mt19937_64 rng(seed);
    std::vector<Addr> pool = {0, static_cast<Addr>(1) << 56};
    std::size_t lines = sets * static_cast<std::size_t>(ways);
    while (pool.size() < 3 * lines + 2) {
        Addr base = (rng() % 4) << 32;
        pool.push_back(base + (rng() % (8 * lines)) * BLOCK);
    }
    const CacheState states[] = {CacheState::Invalid, CacheState::Shared,
                                 CacheState::Exclusive,
                                 CacheState::Modified};

    for (int op = 0; op < 20000; ++op) {
        Addr addr = pool[rng() % pool.size()] + rng() % BLOCK;
        // Invalid is rare on fills and updates, as in the protocol.
        CacheState st = states[1 + rng() % 3];
        if (rng() % 64 == 0)
            st = CacheState::Invalid;
        switch (rng() % 8) {
          case 0:
          case 1:
          case 2: {
            Addr va = 1, vb = 2;
            CacheState sa = CacheState::Shared, sb = CacheState::Modified;
            bool ea = packed.insert(addr, st, va, sa);
            bool eb = ref.insert(addr, st, vb, sb);
            ASSERT_EQ(ea, eb) << "op " << op;
            if (ea) {
                ASSERT_EQ(va, vb) << "victim of op " << op;
                ASSERT_EQ(sa, sb) << "victim state of op " << op;
            }
            break;
          }
          case 3:
            if (ref.resident(addr)) {
                packed.setState(addr, st);
                ref.setState(addr, st);
            }
            break;
          case 4:
            packed.touch(addr);
            ref.touch(addr);
            break;
          case 5:
            packed.invalidate(addr);
            ref.invalidate(addr);
            break;
          default:
            break;
        }
        ASSERT_EQ(packed.lookup(addr), ref.lookup(addr)) << "op " << op;
    }
    for (Addr a : pool)
        ASSERT_EQ(packed.lookup(a), ref.lookup(a));
    EXPECT_EQ(packed.evictions, ref.evictions);
    EXPECT_GT(ref.evictions, 0u);
}

TEST(CacheArrayDifferential, MatchesTimestampLru)
{
    for (int ways : {1, 2, 4, 16}) {
        // Power-of-two set counts take the mask path, the others the
        // modulo path; 1 set is fully associative.
        for (std::size_t sets : {1, 6, 8, 24, 64}) {
            SCOPED_TRACE(testing::Message()
                         << ways << " ways x " << sets << " sets");
            replayAgainstReference(ways, sets, 1000 + ways * 100 + sets);
        }
    }
}

TEST(CacheArray, LocServesArraysOfSameGeometry)
{
    CacheArray a(4 * 1024, 4, BLOCK);
    CacheArray b(4 * 1024, 4, BLOCK);
    Addr victim;
    CacheState vstate;
    CacheArray::Loc loc = a.locate(0x7000 + 5);
    b.insert(0x7000, CacheState::Shared, victim, vstate);
    EXPECT_EQ(b.lookup(loc), CacheState::Shared);
    b.invalidate(loc);
    EXPECT_EQ(b.lookup(0x7000), CacheState::Invalid);
}

} // namespace
} // namespace hnoc
