/**
 * @file
 * SharerList: the sharers of one directory line, in registration
 * order (the order Inv messages go out). Most lines have at most two
 * sharers, so up to two node ids live inline and the list fills 16
 * bytes of the directory slot; a longer list moves to one heap array
 * that doubles as it grows. clear() keeps the capacity, like
 * std::vector.
 */

#ifndef HNOC_SYS_SHARER_LIST_HH
#define HNOC_SYS_SHARER_LIST_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "common/types.hh"

namespace hnoc
{

class SharerList
{
  public:
    SharerList() = default;
    SharerList(const SharerList &) = delete;
    SharerList &operator=(const SharerList &) = delete;

    SharerList(SharerList &&other) noexcept { take(other); }

    SharerList &
    operator=(SharerList &&other) noexcept
    {
        if (this != &other) {
            release();
            take(other);
        }
        return *this;
    }

    ~SharerList() { release(); }

    const NodeId *begin() const { return onHeap() ? heap_ : inline_; }
    const NodeId *end() const { return begin() + size_; }
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Heap elements held; 0 while the list is inline. */
    std::size_t capacity() const { return onHeap() ? cap_ : 0; }

    void clear() { size_ = 0; }

    void
    push_back(NodeId node)
    {
        if (size_ == cap_) {
            std::uint32_t cap = cap_ * 2;
            NodeId *data = new NodeId[cap];
            std::copy(begin(), end(), data);
            release();
            heap_ = data;
            cap_ = cap;
        }
        (onHeap() ? heap_ : inline_)[size_++] = node;
    }

  private:
    static constexpr std::uint32_t kInline = 2;

    bool onHeap() const { return cap_ > kInline; }

    void
    release()
    {
        if (onHeap())
            delete[] heap_;
        cap_ = kInline;
    }

    void
    take(SharerList &other)
    {
        if (other.onHeap())
            heap_ = other.heap_;
        else
            std::copy(other.inline_, other.inline_ + other.size_, inline_);
        size_ = other.size_;
        cap_ = other.cap_;
        other.size_ = 0;
        other.cap_ = kInline;
    }

    union
    {
        NodeId inline_[kInline];
        NodeId *heap_;
    };
    std::uint32_t size_ = 0;
    std::uint32_t cap_ = kInline;
};

} // namespace hnoc

#endif // HNOC_SYS_SHARER_LIST_HH
