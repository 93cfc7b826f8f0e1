#include "sys/cache.hh"

#include <bit>

#include "common/logging.hh"

namespace hnoc
{

CacheArray::CacheArray(std::uint64_t size_bytes, int ways, int block_bytes)
    : blockBytes_(block_bytes)
{
    if (ways <= 0 || block_bytes <= 0 || size_bytes == 0)
        fatal("CacheArray: invalid geometry");
    if (block_bytes < 4 ||
        !std::has_single_bit(static_cast<unsigned>(block_bytes)))
        fatal("CacheArray: block size %d B must be a power of two of at "
              "least 4 B",
              block_bytes);
    ways_ = static_cast<std::size_t>(ways);
    blockShift_ = std::countr_zero(static_cast<unsigned>(block_bytes));
    std::uint64_t lines = size_bytes / static_cast<std::uint64_t>(block_bytes);
    numSets_ = static_cast<std::size_t>(lines / static_cast<std::uint64_t>(ways));
    if (numSets_ == 0)
        numSets_ = 1;
    pow2Sets_ = std::has_single_bit(numSets_);
    keys_.assign(numSets_ * ways_, 0);
    lastUse_.assign(numSets_ * ways_, 0);
}

std::size_t
CacheArray::setIndex(Addr addr) const
{
    // Full avalanche mix (fmix64) so per-core private regions — which
    // differ only above bit 32 in the synthetic address map — spread
    // over all sets instead of aliasing onto the same few.
    Addr h = addr >> blockShift_;
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ULL;
    h ^= h >> 33;
    return pow2Sets_ ? static_cast<std::size_t>(h & (numSets_ - 1))
                     : static_cast<std::size_t>(h % numSets_);
}

long
CacheArray::find(Loc loc) const
{
    // A resident key is tag | state with state in 1..3, so key ^ tag
    // is 1..3 exactly for the matching valid way (tags are multiples
    // of 4; Invalid ways hold 0).
    const Addr *set = keys_.data() + loc.base;
    for (std::size_t w = 0; w < ways_; ++w) {
        if ((set[w] ^ loc.tag) - 1 < kStateMask)
            return static_cast<long>(w);
    }
    return -1;
}

CacheState
CacheArray::lookup(Loc loc) const
{
    long w = find(loc);
    if (w < 0)
        return CacheState::Invalid;
    return static_cast<CacheState>(
        keys_[loc.base + static_cast<std::size_t>(w)] & kStateMask);
}

void
CacheArray::setState(Loc loc, CacheState state)
{
    long w = find(loc);
    if (w < 0)
        panic("CacheArray::setState: line %llx not resident",
              static_cast<unsigned long long>(loc.tag));
    std::size_t i = loc.base + static_cast<std::size_t>(w);
    keys_[i] = pack(loc.tag, state);
    lastUse_[i] = ++useClock_;
}

bool
CacheArray::insert(Loc loc, CacheState state, Addr &victim_addr,
                   CacheState &victim_state)
{
    // One pass over the keys: the resident way wins, else remember
    // the first free way.
    Addr *set = keys_.data() + loc.base;
    std::size_t way = ways_;
    for (std::size_t w = 0; w < ways_; ++w) {
        if ((set[w] ^ loc.tag) - 1 < kStateMask) {
            set[w] = pack(loc.tag, state);
            lastUse_[loc.base + w] = ++useClock_;
            return false;
        }
        if (set[w] == 0 && way == ways_)
            way = w;
    }
    if (way < ways_) {
        set[way] = pack(loc.tag, state);
        lastUse_[loc.base + way] = ++useClock_;
        return false;
    }

    // Evict the LRU way: the first way with the oldest use stamp.
    const std::uint64_t *use = lastUse_.data() + loc.base;
    way = 0;
    for (std::size_t w = 1; w < ways_; ++w) {
        if (use[w] < use[way])
            way = w;
    }
    victim_addr = set[way] & ~kStateMask;
    victim_state = static_cast<CacheState>(set[way] & kStateMask);
    set[way] = pack(loc.tag, state);
    lastUse_[loc.base + way] = ++useClock_;
    ++evictions;
    return true;
}

void
CacheArray::invalidate(Loc loc)
{
    long w = find(loc);
    if (w >= 0)
        keys_[loc.base + static_cast<std::size_t>(w)] = 0;
}

void
CacheArray::touch(Loc loc)
{
    long w = find(loc);
    if (w >= 0)
        lastUse_[loc.base + static_cast<std::size_t>(w)] = ++useClock_;
}

} // namespace hnoc
