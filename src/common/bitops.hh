/**
 * @file
 * Bitmask arbitration primitives for the data-oriented router core.
 *
 * The router keeps its request sets (route-compute pending, VA
 * requesters, per-output-port SA candidates) as dense bitmasks with
 * one bit per (input port, VC) slot. Arbitration then becomes
 * "visit the set bits in rotating-priority order", implemented with
 * count-trailing-zeros instead of a loop over every candidate slot.
 *
 * For a single 64-bit word the classic trick is rotate-by-start +
 * ctz; masking off the bits below the start index and falling back to
 * the unmasked word is exactly equivalent for rings shorter than the
 * word (rotr only works when nbits == 64) and costs the same two ctz
 * ops, so that is the form used here. Masks wider than one word scan
 * word-by-word from the start word.
 *
 * Invariant shared by all helpers: bits at index >= nbits are zero.
 * The helpers never set them, and the top-word trim in the iteration
 * paths keeps a violated invariant from visiting ghost slots.
 */

#ifndef HNOC_COMMON_BITOPS_HH
#define HNOC_COMMON_BITOPS_HH

#include <bit>
#include <cstdint>

namespace hnoc
{
namespace bitops
{

constexpr int kWordBits = 64;

/** Words needed for an @p nbits -wide mask. */
constexpr int
maskWords(int nbits)
{
    return (nbits + kWordBits - 1) / kWordBits;
}

inline bool
maskTest(const std::uint64_t *words, int i)
{
    return (words[i >> 6] >> (i & 63)) & 1u;
}

inline void
maskSet(std::uint64_t *words, int i)
{
    words[i >> 6] |= std::uint64_t{1} << (i & 63);
}

inline void
maskClear(std::uint64_t *words, int i)
{
    words[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
}

/** @return true if any of the @p nwords words has a set bit. */
inline bool
maskAny(const std::uint64_t *words, int nwords)
{
    std::uint64_t acc = 0;
    for (int i = 0; i < nwords; ++i)
        acc |= words[i];
    return acc != 0;
}

/** Set bits across all words (population count). */
inline int
maskCount(const std::uint64_t *words, int nwords)
{
    int n = 0;
    for (int i = 0; i < nwords; ++i)
        n += std::popcount(words[i]);
    return n;
}

/** All-ones mask covering bit indices [lo, hi] of one word; empty
 *  when the range is (hi < lo or lo past the word). */
inline std::uint64_t
rangeMask64(int lo, int hi)
{
    if (lo > hi || lo >= kWordBits)
        return 0;
    std::uint64_t above = hi >= 63 ? ~std::uint64_t{0}
                                   : (std::uint64_t{1} << (hi + 1)) - 1;
    return above & (~std::uint64_t{0} << lo);
}

/** Lowest clear bit of @p mask within [lo, hi], or -1 if none. */
inline int
firstClearInRange64(std::uint64_t mask, int lo, int hi)
{
    std::uint64_t free = ~mask & rangeMask64(lo, hi);
    return free ? std::countr_zero(free) : -1;
}

/**
 * Round-robin pick: the first set bit of the cyclic order
 * start, start+1, ..., nbits-1, 0, ..., start-1; -1 when empty.
 * Equivalent to rotating the mask right by @p start and taking
 * countr_zero of the result (mod nbits), for any ring width.
 */
inline int
pickRoundRobin(const std::uint64_t *words, int nwords, int nbits,
               int start)
{
    if (nwords == 1) {
        std::uint64_t m = words[0];
        if (m == 0)
            return -1;
        std::uint64_t hi = m & (~std::uint64_t{0} << start);
        return std::countr_zero(hi ? hi : m);
    }
    int w = start >> 6;
    std::uint64_t cur = words[w] & (~std::uint64_t{0} << (start & 63));
    for (int i = w; i < nwords; ++i) {
        std::uint64_t m = i == w ? cur : words[i];
        if (m) {
            int bit = (i << 6) + std::countr_zero(m);
            if (bit < nbits)
                return bit;
        }
    }
    for (int i = 0; i <= w; ++i) {
        std::uint64_t m = words[i];
        if (i == w)
            m &= ~(~std::uint64_t{0} << (start & 63));
        if (m)
            return (i << 6) + std::countr_zero(m);
    }
    return -1;
}

/**
 * Visit every set bit in the same cyclic order as pickRoundRobin,
 * calling visit(index) for each; visit returns false to stop early.
 * Bits the visitor clears at or below its own index do not disturb
 * the iteration (each word is snapshotted into a register), and bits
 * it clears ahead of the cursor are simply not visited — exactly the
 * semantics the SA grant loop needs when a tail flit retires its VC.
 */
template <typename Visit>
inline void
forEachSetCyclic(const std::uint64_t *words, int nwords, int nbits,
                 int start, Visit &&visit)
{
    std::uint64_t top = (nbits & 63) != 0
                            ? (std::uint64_t{1} << (nbits & 63)) - 1
                            : ~std::uint64_t{0};
    int w = start >> 6;
    for (int i = w; i < nwords; ++i) {
        std::uint64_t m = words[i];
        if (i == w)
            m &= ~std::uint64_t{0} << (start & 63);
        if (i == nwords - 1)
            m &= top;
        while (m) {
            int bit = (i << 6) + std::countr_zero(m);
            if (!visit(bit))
                return;
            m &= m - 1;
            // Re-fetch nothing: the snapshot keeps iteration stable
            // even if visit() mutates the mask.
        }
    }
    for (int i = 0; i <= w && i < nwords; ++i) {
        std::uint64_t m = words[i];
        if (i == w)
            m &= ~(~std::uint64_t{0} << (start & 63));
        if (i == nwords - 1)
            m &= top;
        while (m) {
            int bit = (i << 6) + std::countr_zero(m);
            if (!visit(bit))
                return;
            m &= m - 1;
        }
    }
}

} // namespace bitops
} // namespace hnoc

#endif // HNOC_COMMON_BITOPS_HH
