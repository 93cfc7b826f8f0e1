/**
 * @file
 * Directory container tests. FlatTable: seeded insert/find/erase
 * replays against std::unordered_map, probe chains that wrap past the
 * last slot, backward-shift erase inside such chains, and growth.
 * SharerList: seeded replays against std::vector, across the inline
 * to heap spill and through moves.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <unordered_map>
#include <vector>

#include "sys/flat_table.hh"
#include "sys/sharer_list.hh"

namespace hnoc
{
namespace
{

/** Every reference key must be found with its value, nothing else. */
void
expectSameContents(const FlatTable<int> &t,
                   const std::unordered_map<Addr, int> &ref)
{
    ASSERT_EQ(t.size(), ref.size());
    for (const auto &[k, v] : ref) {
        const int *got = t.find(k);
        ASSERT_NE(got, nullptr) << "key " << k;
        EXPECT_EQ(*got, v) << "key " << k;
    }
    std::size_t seen = 0;
    t.forEach([&](Addr k, int v) {
        ++seen;
        auto it = ref.find(k);
        ASSERT_NE(it, ref.end()) << "stray key " << k;
        EXPECT_EQ(it->second, v);
    });
    EXPECT_EQ(seen, ref.size());
}

TEST(FlatTable, DifferentialAgainstUnorderedMap)
{
    for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
        SCOPED_TRACE(seed);
        std::mt19937_64 rng(seed);
        FlatTable<int> t(2);
        std::unordered_map<Addr, int> ref;
        // A small pool keeps hits, misses, re-inserts and erases of
        // present keys all frequent; block-aligned like the directory.
        std::vector<Addr> pool;
        for (int i = 0; i < 96; ++i)
            pool.push_back(((rng() % 8) << 40) + (rng() % 4096) * 128);
        pool.push_back(0);

        for (int op = 0; op < 40000; ++op) {
            Addr k = pool[rng() % pool.size()];
            switch (rng() % 4) {
              case 0:
              case 1: {
                int v = static_cast<int>(rng() % 1000);
                t[k] = v;
                ref[k] = v;
                break;
              }
              case 2:
                ASSERT_EQ(t.erase(k), ref.erase(k) == 1) << "op " << op;
                break;
              default: {
                const int *got = t.find(k);
                auto it = ref.find(k);
                ASSERT_EQ(got != nullptr, it != ref.end()) << "op " << op;
                if (got) {
                    ASSERT_EQ(*got, it->second) << "op " << op;
                }
              }
            }
            ASSERT_EQ(t.size(), ref.size()) << "op " << op;
            ASSERT_LE(t.size() * 4, t.capacity() * 3);
            if (op % 1000 == 0)
                expectSameContents(t, ref);
        }
        expectSameContents(t, ref);
    }
}

TEST(FlatTable, DefaultInsertAndReservedKey)
{
    FlatTable<std::vector<int>> t;
    t[128].push_back(7);
    EXPECT_EQ(t.size(), 1u);
    ASSERT_NE(t.find(128), nullptr);
    EXPECT_EQ(t.find(128)->size(), 1u);
    EXPECT_TRUE(t[256].empty()); // new entries are value-initialized
    EXPECT_EQ(t.find(384), nullptr);
    EXPECT_DEATH(t[FlatTable<int>::kEmpty], "reserved");
}

/** Keys whose probe starts at @p slot in a table of @p cap slots. */
std::vector<Addr>
keysHomedAt(std::size_t slot, std::size_t cap, std::size_t n)
{
    FlatTable<int> probe(cap);
    std::vector<Addr> keys;
    for (Addr k = 128; keys.size() < n; k += 128) {
        if (probe.homeSlot(k) == slot)
            keys.push_back(k);
    }
    return keys;
}

TEST(FlatTable, EraseInsideWrappedChain)
{
    // Cap 16 holds 12 keys before growing. Three keys homed at the
    // last slot and two homed at slot 0 build one chain that wraps:
    // 15 -> 0 -> 1 -> 2 -> 3. Erasing each position in turn must pull
    // later members back across the wrap without losing any.
    constexpr std::size_t kCap = 16;
    std::vector<Addr> last = keysHomedAt(kCap - 1, kCap, 3);
    std::vector<Addr> first = keysHomedAt(0, kCap, 2);
    std::vector<Addr> chain = last;
    chain.insert(chain.end(), first.begin(), first.end());

    for (std::size_t victim = 0; victim < chain.size(); ++victim) {
        SCOPED_TRACE(victim);
        FlatTable<int> t(kCap);
        std::unordered_map<Addr, int> ref;
        for (std::size_t i = 0; i < chain.size(); ++i) {
            t[chain[i]] = static_cast<int>(i);
            ref[chain[i]] = static_cast<int>(i);
        }
        ASSERT_EQ(t.capacity(), kCap);
        EXPECT_TRUE(t.erase(chain[victim]));
        ref.erase(chain[victim]);
        expectSameContents(t, ref);
        EXPECT_FALSE(t.erase(chain[victim]));
        // The freed slot is reusable and nothing else moved out of reach.
        t[chain[victim]] = 99;
        ref[chain[victim]] = 99;
        expectSameContents(t, ref);
    }
}

TEST(FlatTable, GrowthKeepsEveryEntry)
{
    FlatTable<int> t(2);
    std::unordered_map<Addr, int> ref;
    for (int i = 0; i < 5000; ++i) {
        Addr k = (static_cast<Addr>(i % 64 + 1) << 32) +
                 static_cast<Addr>(i) * 128;
        t[k] = i;
        ref[k] = i;
        ASSERT_LE(t.size() * 4, t.capacity() * 3);
    }
    EXPECT_EQ(t.capacity() & (t.capacity() - 1), 0u);
    EXPECT_GE(t.capacity(), 8192u);
    expectSameContents(t, ref);
    // Draining it through erase leaves an empty, still usable table.
    for (const auto &[k, v] : ref)
        ASSERT_TRUE(t.erase(k));
    EXPECT_EQ(t.size(), 0u);
    t[128] = 1;
    EXPECT_EQ(*t.find(128), 1);
}

void
expectSameSharers(const SharerList &list, const std::vector<NodeId> &ref)
{
    ASSERT_EQ(list.size(), ref.size());
    EXPECT_EQ(list.empty(), ref.empty());
    EXPECT_TRUE(std::equal(list.begin(), list.end(), ref.begin()));
}

TEST(SharerList, InlineThenHeapInRegistrationOrder)
{
    static_assert(sizeof(SharerList) == 16, "inline list fills 16 bytes");
    SharerList list;
    std::vector<NodeId> ref;
    for (NodeId n : {5, 3}) {
        list.push_back(n);
        ref.push_back(n);
    }
    EXPECT_EQ(list.capacity(), 0u) << "two sharers stay inline";
    expectSameSharers(list, ref);
    for (NodeId n : {9, 0, 63}) {
        list.push_back(n);
        ref.push_back(n);
    }
    EXPECT_EQ(list.capacity(), 8u);
    expectSameSharers(list, ref);
    list.clear();
    EXPECT_TRUE(list.empty());
    EXPECT_EQ(list.capacity(), 8u) << "clear keeps the heap array";
}

TEST(SharerList, DifferentialAgainstVectorThroughMoves)
{
    std::mt19937_64 rng(7);
    std::vector<SharerList> lists(4);
    std::vector<std::vector<NodeId>> refs(4);
    for (int op = 0; op < 20000; ++op) {
        std::size_t a = rng() % lists.size();
        std::size_t b = rng() % lists.size();
        switch (rng() % 8) {
          case 0:
            lists[a].clear();
            refs[a].clear();
            break;
          case 1: // move-assign (self-move included)
            lists[a] = std::move(lists[b]);
            if (a != b) {
                refs[a] = std::move(refs[b]);
                refs[b].clear();
            }
            break;
          case 2: { // move-construct, as a FlatTable slot shift does
            SharerList moved(std::move(lists[a]));
            expectSameSharers(moved, refs[a]);
            expectSameSharers(lists[a], {});
            lists[a] = std::move(moved);
            break;
          }
          default: {
            auto n = static_cast<NodeId>(rng() % 64);
            lists[a].push_back(n);
            refs[a].push_back(n);
          }
        }
        for (std::size_t i = 0; i < lists.size(); ++i)
            expectSameSharers(lists[i], refs[i]);
    }
}

} // namespace
} // namespace hnoc
