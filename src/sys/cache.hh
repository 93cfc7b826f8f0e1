/**
 * @file
 * Set-associative cache arrays with per-line coherence state and LRU
 * replacement. Used for both the private L1s and the shared L2 banks
 * of Table 2(a).
 */

#ifndef HNOC_SYS_CACHE_HH
#define HNOC_SYS_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace hnoc
{

/** MESI line states (L1) / presence states (L2 data array). */
enum class CacheState : std::uint8_t
{
    Invalid,
    Shared,
    Exclusive,
    Modified,
};

/**
 * A set-associative array of coherence-tracked lines.
 * Pure state container: controllers decide what to do on evictions.
 *
 * Layout: one packed key per way, `blockAddr | state`, with an Invalid
 * way stored as 0, so a tag/state probe of a 16-way set reads 128
 * bytes (two or three cache lines) instead of 384. Recency lives in a
 * parallel `lastUse_` array (a global use clock) that only hits and
 * fills write and only evictions scan.
 */
class CacheArray
{
  public:
    /**
     * @param size_bytes total capacity
     * @param ways associativity
     * @param block_bytes line size; a power of two of at least 4, so
     *        block addresses leave the two low key bits for the state
     */
    CacheArray(std::uint64_t size_bytes, int ways, int block_bytes);

    /**
     * A block's tag and set, computed once per operation. It is valid
     * on every array with the same geometry (size, ways, block), so
     * one Loc serves a core's L1 and invalidations in its peers' L1s.
     */
    struct Loc
    {
        Addr tag;
        std::size_t base; ///< first way of the set in keys_/lastUse_
    };

    /** @return the tag and set of @p addr. */
    Loc
    locate(Addr addr) const
    {
        return {blockAddr(addr), setIndex(addr) * ways_};
    }

    /** Start loading the keys of @p loc's set (a hint; no effect on
     *  state). */
    void
    prefetch(Loc loc) const
    {
        __builtin_prefetch(keys_.data() + loc.base);
        __builtin_prefetch(keys_.data() + loc.base + ways_ - 1);
    }

    /** @return line state (Invalid if absent). */
    CacheState lookup(Loc loc) const;
    CacheState lookup(Addr addr) const { return lookup(locate(addr)); }

    /** Update the state of a resident line; touch LRU. */
    void setState(Loc loc, CacheState state);
    void
    setState(Addr addr, CacheState state)
    {
        setState(locate(addr), state);
    }

    /**
     * Install the block with @p state: update it if resident, else
     * fill the first free way, else evict the least recently used way.
     * @param victim_addr out: evicted block address (valid lines only)
     * @param victim_state out: its state
     * @return true if a valid line was evicted
     */
    bool insert(Loc loc, CacheState state, Addr &victim_addr,
                CacheState &victim_state);
    bool
    insert(Addr addr, CacheState state, Addr &victim_addr,
           CacheState &victim_state)
    {
        return insert(locate(addr), state, victim_addr, victim_state);
    }

    /** Drop the line (invalidate) if present. */
    void invalidate(Loc loc);
    void invalidate(Addr addr) { invalidate(locate(addr)); }

    /** Mark as most-recently used. */
    void touch(Loc loc);
    void touch(Addr addr) { touch(locate(addr)); }

    int blockBytes() const { return blockBytes_; }

    /** @return block-aligned address. */
    Addr
    blockAddr(Addr addr) const
    {
        return addr & ~static_cast<Addr>(blockBytes_ - 1);
    }

    /** @name Statistics */
    ///@{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    ///@}

    /** Simulator-memory footprint of the line array (tag/state/LRU
     *  metadata — no data payloads are simulated). */
    std::uint64_t
    footprintBytes() const
    {
        return static_cast<std::uint64_t>(sizeof(*this)) +
               keys_.capacity() * sizeof(Addr) +
               lastUse_.capacity() * sizeof(std::uint64_t);
    }

  private:
    /** Low key bits holding the state; valid states are 1..3. */
    static constexpr Addr kStateMask = 3;

    /** @return the packed key of a line; Invalid packs to 0. */
    static Addr
    pack(Addr tag, CacheState state)
    {
        return state == CacheState::Invalid
                   ? 0
                   : tag | static_cast<Addr>(state);
    }

    /** @return way index of the resident block, or -1. */
    long find(Loc loc) const;

    std::size_t setIndex(Addr addr) const;

    std::size_t ways_;
    int blockBytes_;
    int blockShift_;
    std::size_t numSets_;
    bool pow2Sets_; ///< set index is a mask, not a modulo
    std::vector<Addr> keys_;             ///< numSets * ways, tag | state
    std::vector<std::uint64_t> lastUse_; ///< numSets * ways
    std::uint64_t useClock_ = 0;
};

} // namespace hnoc

#endif // HNOC_SYS_CACHE_HH
