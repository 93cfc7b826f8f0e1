/**
 * @file
 * FlatTable: an open-addressing hash map from block address to a value
 * held inline in its slot. Linear probing, backward-shift erase (no
 * tombstones), power-of-two capacity that doubles past 3/4 load. Used
 * for the CMP directory and its transaction table, where a lookup is
 * one or two adjacent cache lines instead of a bucket + node chase.
 *
 * Key ~0 marks an empty slot and is never a valid key; block addresses
 * are multiples of the block size, so they cannot take it.
 *
 * Reference contract: a pointer or reference to a value is invalid
 * after any insert (operator[] may grow and rehash) or erase (which
 * shifts later entries of the probe chain back). find() never moves
 * entries.
 */

#ifndef HNOC_SYS_FLAT_TABLE_HH
#define HNOC_SYS_FLAT_TABLE_HH

#include <bit>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace hnoc
{

template <typename V>
class FlatTable
{
  public:
    static constexpr Addr kEmpty = ~static_cast<Addr>(0);

    /** @param capacity initial slot count, rounded up to a power of 2 */
    explicit FlatTable(std::size_t capacity = 16)
        : slots_(std::bit_ceil(capacity < 2 ? std::size_t{2} : capacity))
    {
    }

    /** @return the value stored under @p key, or nullptr. */
    V *
    find(Addr key)
    {
        for (std::size_t i = homeSlot(key);; i = (i + 1) & mask()) {
            Slot &s = slots_[i];
            if (s.key == key)
                return &s.value;
            if (s.key == kEmpty)
                return nullptr;
        }
    }

    const V *
    find(Addr key) const
    {
        return const_cast<FlatTable *>(this)->find(key);
    }

    /** Start loading the slot where a probe for @p key starts (a
     *  hint; no effect on contents). */
    void
    prefetch(Addr key) const
    {
        __builtin_prefetch(slots_.data() + homeSlot(key));
    }

    /** @return the value under @p key, default-constructed if new. */
    V &
    operator[](Addr key)
    {
        if (key == kEmpty)
            panic("FlatTable: reserved key");
        std::size_t i = homeSlot(key);
        for (;; i = (i + 1) & mask()) {
            if (slots_[i].key == key)
                return slots_[i].value;
            if (slots_[i].key == kEmpty)
                break;
        }
        if ((size_ + 1) * 4 > slots_.size() * 3) {
            grow();
            for (i = homeSlot(key); slots_[i].key != kEmpty;
                 i = (i + 1) & mask()) {
            }
        }
        slots_[i].key = key;
        ++size_;
        return slots_[i].value;
    }

    /** Remove @p key if present. @return whether it was present. */
    bool
    erase(Addr key)
    {
        std::size_t hole = homeSlot(key);
        for (;; hole = (hole + 1) & mask()) {
            if (slots_[hole].key == key)
                break;
            if (slots_[hole].key == kEmpty)
                return false;
        }
        // Backward shift: pull each later chain member whose home does
        // not lie cyclically in (hole, j] back into the hole.
        for (std::size_t j = (hole + 1) & mask();
             slots_[j].key != kEmpty; j = (j + 1) & mask()) {
            std::size_t h = homeSlot(slots_[j].key);
            if (((j - h) & mask()) >= ((j - hole) & mask())) {
                slots_[hole] = std::move(slots_[j]);
                hole = j;
            }
        }
        slots_[hole] = Slot{};
        --size_;
        return true;
    }

    /** @return the slot where a probe for @p key starts. */
    std::size_t
    homeSlot(Addr key) const
    {
        key ^= key >> 33;
        key *= 0xff51afd7ed558ccdULL;
        key ^= key >> 33;
        return static_cast<std::size_t>(key) & mask();
    }

    std::size_t size() const { return size_; }
    std::size_t capacity() const { return slots_.size(); }

    /** Bytes of one slot (key + inline value). */
    static constexpr std::size_t slotBytes() { return sizeof(Slot); }

    /** Call @p f(key, value) for every entry, in slot order. */
    template <typename F>
    void
    forEach(F &&f) const
    {
        for (const Slot &s : slots_) {
            if (s.key != kEmpty)
                f(s.key, s.value);
        }
    }

  private:
    struct Slot
    {
        Addr key = kEmpty;
        V value{};
    };

    std::size_t mask() const { return slots_.size() - 1; }

    void
    grow()
    {
        std::vector<Slot> old(slots_.size() * 2);
        old.swap(slots_);
        for (Slot &s : old) {
            if (s.key == kEmpty)
                continue;
            std::size_t i = homeSlot(s.key);
            while (slots_[i].key != kEmpty)
                i = (i + 1) & mask();
            slots_[i] = std::move(s);
        }
    }

    std::vector<Slot> slots_;
    std::size_t size_ = 0;
};

} // namespace hnoc

#endif // HNOC_SYS_FLAT_TABLE_HH
