/**
 * @file
 * Differential test of the bitmap ActiveList against a std::set model.
 *
 * Seeded random sequences of insert (wake), erase (busy flip to idle)
 * and visit run against both. The visit contract under test: members
 * are visited in ascending id, and a member is visited iff it is in
 * the set when the cursor reaches it — so wakes issued from inside
 * the visit callback above the cursor are seen in the same scan, and
 * those at or below it wait for the next one.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "common/rng.hh"
#include "noc/active_set.hh"

namespace hnoc
{
namespace
{

/** A membership change: insert (wake) or erase (idle) of one id. */
struct Op
{
    bool insert;
    std::size_t member; ///< index into the member id table
};

class ActiveListModel : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(ActiveListModel, MatchesSetModelUnderRandomChurn)
{
    Rng rng(GetParam());

    // Non-contiguous member ids spanning several bitmap words, like a
    // block's injection ends interleaved with its other channel ends.
    std::vector<std::uint32_t> ids;
    std::uint32_t next = static_cast<std::uint32_t>(rng.below(5));
    for (int i = 0; i < 150; ++i) {
        ids.push_back(next);
        next += 1 + static_cast<std::uint32_t>(rng.below(4));
    }
    ActiveList list;
    std::vector<ActivitySlot> slots(ids.size());
    for (std::size_t i = 0; i < ids.size(); ++i) {
        std::uint32_t local = list.add(ids[i]);
        ASSERT_EQ(local, i);
        slots[i].bind(&list, local);
    }

    auto apply = [&](const Op &op, std::set<std::uint32_t> &model) {
        if (op.insert) {
            slots[op.member].markBusy();
            model.insert(ids[op.member]);
        } else {
            slots[op.member].markIdle();
            model.erase(ids[op.member]);
        }
    };
    auto random_op = [&]() {
        return Op{rng.chance(0.5),
                  static_cast<std::size_t>(rng.below(ids.size()))};
    };

    std::set<std::uint32_t> model;
    int wakes_above = 0;
    int wakes_below = 0;
    for (int round = 0; round < 300; ++round) {
        // Churn between scans, including repeated (idempotent) wakes
        // and idles of members that are already idle.
        int churn = static_cast<int>(rng.below(40));
        for (int k = 0; k < churn; ++k) {
            Op op = random_op();
            apply(op, model);
            if (op.insert && rng.chance(0.3))
                apply(op, model);
        }
        ASSERT_EQ(list.size(), model.size());

        // Pre-draw the ops each visit issues from inside the callback,
        // so the model scan and the real scan replay the same script.
        std::vector<std::vector<Op>> script(ids.size() + 1);
        for (auto &ops : script) {
            int n = static_cast<int>(rng.below(3));
            for (int k = 0; k < n; ++k)
                ops.push_back(random_op());
        }

        // Model scan: next visit = smallest member above the cursor.
        std::set<std::uint32_t> expect_set = model;
        std::vector<std::uint32_t> expect;
        for (auto it = expect_set.begin(); it != expect_set.end();) {
            std::uint32_t cur = *it;
            std::size_t k = expect.size();
            expect.push_back(cur);
            for (const Op &op : script[std::min(k, ids.size())]) {
                if (op.insert && !expect_set.count(ids[op.member]))
                    (ids[op.member] > cur ? wakes_above : wakes_below)++;
                if (op.insert)
                    expect_set.insert(ids[op.member]);
                else
                    expect_set.erase(ids[op.member]);
            }
            it = expect_set.upper_bound(cur);
        }

        std::vector<std::uint32_t> got;
        auto visit = [&](std::uint32_t id) {
            std::size_t k = got.size();
            got.push_back(id);
            for (const Op &op : script[std::min(k, ids.size())])
                apply(op, model);
        };
        list.forEachActive(visit);
        ASSERT_EQ(got, expect) << "round " << round;
        ASSERT_EQ(model, expect_set);
        ASSERT_EQ(list.size(), model.size());
    }
    // Both in-scan wake cases were exercised.
    EXPECT_GT(wakes_above, 0);
    EXPECT_GT(wakes_below, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ActiveListModel,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

TEST(ActiveList, VisitIsAscendingAndDropsIdleMembers)
{
    ActiveList list;
    for (std::uint32_t id : {2u, 9u, 64u, 65u, 200u})
        list.add(id);
    list.insert(4); // id 200
    list.insert(0); // id 2
    list.insert(2); // id 64
    list.insert(2); // idempotent
    EXPECT_EQ(list.size(), 3u);
    list.erase(2); // idles before the scan: not visited
    list.erase(1); // never busy: no-op
    std::vector<std::uint32_t> got;
    list.forEachActive([&](std::uint32_t id) { got.push_back(id); });
    EXPECT_EQ(got, (std::vector<std::uint32_t>{2, 200}));
    EXPECT_EQ(list.size(), 2u);
}

TEST(ActiveList, InsertAllMarksExactlyTheMembers)
{
    // 65 members: one full word plus a one-bit tail word; no bit past
    // the last member may be set.
    ActiveList list;
    for (std::uint32_t id = 0; id < 65; ++id)
        list.add(3 * id);
    list.insertAll();
    EXPECT_EQ(list.size(), 65u);
    std::vector<std::uint32_t> got;
    list.forEachActive([&](std::uint32_t id) {
        got.push_back(id);
        list.erase(id / 3);
    });
    ASSERT_EQ(got.size(), 65u);
    EXPECT_EQ(got.back(), 192u);
    EXPECT_EQ(list.size(), 0u);
}

TEST(ActiveList, MembersRegisterInAscendingOrder)
{
    ActiveList list;
    list.add(5);
    EXPECT_DEATH(list.add(5), "registered after");
}

} // namespace
} // namespace hnoc
