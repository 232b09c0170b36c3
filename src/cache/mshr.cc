/**
 * @file
 * MshrTable implementation.
 */

#include "cache/mshr.hh"

#include <bit>
#include <vector>

#include "common/log.hh"

namespace tenoc
{

MshrTable::MshrTable(unsigned entries, unsigned max_merged)
    : entries_(entries), max_merged_(max_merged),
      buckets_(std::bit_ceil(2 * entries))
{
    tenoc_assert(entries_ >= 1 && entries_ < 0x8000 && max_merged_ >= 1,
                 "bad MSHR geometry");
    bucket_mask_ = static_cast<unsigned>(buckets_.size()) - 1;
    hash_shift_ = 64 - static_cast<unsigned>(
        std::countr_zero(buckets_.size()));
}

bool
MshrTable::canAllocate(Addr line) const
{
    const unsigned b = find(line);
    if (b != NONE)
        return slots_[buckets_[b] - 1].count < max_merged_;
    return used_ < entries_;
}

bool
MshrTable::allocate(Addr line, std::uint64_t waiter)
{
    ++generation_;
    unsigned b = find(line);
    const bool fresh = b == NONE;
    if (fresh) {
        tenoc_assert(used_ < entries_, "MSHR table overflow");
        unsigned s;
        if (free_head_ != NONE) {
            s = free_head_;
            free_head_ = slots_[s].nextFree;
            slots_[s] = Slot{line};
        } else {
            s = static_cast<unsigned>(slots_.size());
            slots_.push_back(Slot{line});
        }
        b = home(line);
        while (buckets_[b] != 0)
            b = (b + 1) & bucket_mask_;
        buckets_[b] = static_cast<std::uint16_t>(s + 1);
        ++used_;
        ++allocations_;
    } else {
        ++merges_;
    }
    const unsigned s = buckets_[b] - 1u;
    const std::uint32_t k = slots_[s].count++;
    tenoc_assert(k < max_merged_, "MSHR merge overflow");
    if (waiters_.size() <= static_cast<std::size_t>(k) * entries_) {
        waiters_.resize(waiters_.size() + entries_);
        released_.resize(k + 1);
    }
    waiters_[waiterAt(s, k)] = waiter;
    return fresh;
}

std::span<const std::uint64_t>
MshrTable::release(Addr line)
{
    const unsigned b = find(line);
    tenoc_assert(b != NONE, "release of unknown MSHR line");
    ++generation_;
    const unsigned s = buckets_[b] - 1u;
    unlink(b);
    slots_[s].nextFree = free_head_;
    free_head_ = s;
    --used_;
    for (std::uint32_t k = 0; k < slots_[s].count; ++k)
        released_[k] = waiters_[waiterAt(s, k)];
    return {released_.data(), slots_[s].count};
}

void
MshrTable::unlink(unsigned bucket)
{
    // Pull each later member of the probe run back into the hole
    // unless its home lies cyclically in (hole, member].
    unsigned hole = bucket;
    for (unsigned b = (hole + 1) & bucket_mask_; buckets_[b] != 0;
         b = (b + 1) & bucket_mask_) {
        const unsigned h = home(slots_[buckets_[b] - 1].line);
        if (((b - h) & bucket_mask_) >= ((b - hole) & bucket_mask_)) {
            buckets_[hole] = buckets_[b];
            hole = b;
        }
    }
    buckets_[hole] = 0;
}

} // namespace tenoc
