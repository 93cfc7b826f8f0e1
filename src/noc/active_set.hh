/**
 * @file
 * Active-set scheduling hooks shared by routers, channels, and NIs.
 *
 * Each component owns an ActivitySlot bound to one ActiveList — the
 * set of busy components of its kind — and flips
 * its own membership on its idle/busy transitions:
 *
 *  - a channel is busy while its flit pipe is non-empty (credits are
 *    pulled by their consumer and never wake anything, DESIGN.md §6i);
 *  - a router is busy while any input VC holds a flit (flitCount_ > 0
 *    over the SoA core's FIFOs; a flitless router has empty rcMask /
 *    vaReqMask / saReqMask request sets, so RC, VA, SA and occupancy
 *    sampling are all provably no-ops — see DESIGN.md "Active-set
 *    cycle scheduling" and "SoA router core");
 *  - an NI is busy while its source queue or an in-progress packet
 *    stream has work.
 *
 * The flags are exact, not heuristic: a wakeup is just the producer
 * side of an event (flit send, packet enqueue) marking the consumer's
 * slot busy before the consumer's next scan.
 *
 * Dense active lists: an ActiveList is one bitmap over a dense local
 * index. Members register at wiring time in
 * ascending global id, so local order is global order and a bitmap
 * walk visits members in ascending-id order — the canonical order
 * that bit-identity of the simulation depends on.
 * Iteration costs O(members / 64) words plus one visit per set bit.
 * All storage is sized at registration, so the steady state allocates
 * nothing.
 */

#ifndef HNOC_NOC_ACTIVE_SET_HH
#define HNOC_NOC_ACTIVE_SET_HH

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/logging.hh"

namespace hnoc
{

/**
 * Bitmap set of busy members, visited in ascending member id.
 *
 * insert/erase are idempotent and O(1). forEachActive re-reads the
 * live bitmap after every visit, so its contract is: a member is
 * visited iff it is in the set when the cursor reaches it. A member
 * inserted during a scan above the cursor is therefore visited in the
 * same scan; one inserted at or below it waits for the next scan; one
 * erased above the cursor is skipped.
 */
class ActiveList
{
  public:
    /**
     * Register member @p id (strictly above every earlier id) and
     * return its dense local index. Wiring time only: this is the one
     * call that grows storage.
     */
    std::uint32_t
    add(std::uint32_t id)
    {
        if (!ids_.empty() && id <= ids_.back())
            panic("active list: member %u registered after %u", id,
                  ids_.back());
        auto local = static_cast<std::uint32_t>(ids_.size());
        ids_.push_back(id);
        bits_.resize((ids_.size() + 63) / 64, 0);
        return local;
    }

    /** Mark local member @p l busy (idempotent). */
    void
    insert(std::uint32_t l)
    {
        std::uint64_t &w = bits_[l >> 6];
        std::uint64_t b = std::uint64_t{1} << (l & 63);
        count_ += (w & b) == 0;
        w |= b;
    }

    /** Mark every registered member busy. */
    void
    insertAll()
    {
        std::fill(bits_.begin(), bits_.end(), ~std::uint64_t{0});
        if (ids_.size() % 64 != 0)
            bits_.back() = (std::uint64_t{1} << (ids_.size() % 64)) - 1;
        count_ = ids_.size();
    }

    /** Mark local member @p l idle (idempotent). */
    void
    erase(std::uint32_t l)
    {
        std::uint64_t &w = bits_[l >> 6];
        std::uint64_t b = std::uint64_t{1} << (l & 63);
        count_ -= (w & b) != 0;
        w &= ~b;
    }

    /** Visit every busy member's global id in ascending order. */
    template <typename Fn>
    void
    forEachActive(Fn &&fn)
    {
        for (std::size_t w = 0, n = bits_.size(); w < n; ++w) {
            std::uint64_t m = bits_[w];
            while (m) {
                int b = std::countr_zero(m);
                fn(ids_[w * 64 + static_cast<std::size_t>(b)]);
                m = bits_[w] & above(b);
            }
        }
    }

    /** Busy member count. */
    std::size_t size() const { return count_; }

    /** Steady-state storage (sized at registration; memory audit). */
    std::uint64_t
    footprintBytes() const
    {
        return bits_.capacity() * sizeof(std::uint64_t) +
               ids_.capacity() * sizeof(std::uint32_t);
    }

  private:
    /** Mask of the bits strictly above bit @p b. */
    static std::uint64_t
    above(int b)
    {
        return (~std::uint64_t{0} << b) << 1;
    }

    std::vector<std::uint64_t> bits_; ///< busy bit per local index
    std::vector<std::uint32_t> ids_;  ///< local index -> global id
    std::size_t count_ = 0;
};

/** One component's membership in its ActiveList. */
class ActivitySlot
{
  public:
    /** Bind to local index @p local of @p list. The list must outlive
     *  the slot and never move. */
    void
    bind(ActiveList *list, std::uint32_t local)
    {
        list_ = list;
        local_ = local;
    }

    /** Mark busy (idempotent). No-op while unbound. */
    void
    markBusy()
    {
        if (list_)
            list_->insert(local_);
    }

    /** Mark idle (idempotent). No-op while unbound. */
    void
    markIdle()
    {
        if (list_)
            list_->erase(local_);
    }

  private:
    ActiveList *list_ = nullptr;
    std::uint32_t local_ = 0;
};

} // namespace hnoc

#endif // HNOC_NOC_ACTIVE_SET_HH
