#ifndef RAW_SUPPORT_EPOCH_MARKS_HPP
#define RAW_SUPPORT_EPOCH_MARKS_HPP

/**
 * @file
 * Marks over a dense id range that are all cleared in O(1): an id is
 * marked when its stamp equals the current epoch, so starting a new
 * epoch unmarks every id without touching the table.  Callers keep
 * per-id payloads in their own tables and trust an entry only where
 * the id is marked.
 */

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace raw {

class EpochMarks
{
  public:
    /** Cover ids [0, n); ids already covered keep their marks. */
    void resize(size_t n)
    {
        if (stamp_.size() < n)
            stamp_.resize(n, 0);
    }

    /** Unmark every id. */
    void next_epoch()
    {
        if (++epoch_ == 0) {
            std::fill(stamp_.begin(), stamp_.end(), 0u);
            epoch_ = 1;
        }
    }

    /** Mark @p id; true if it was not marked yet in this epoch. */
    bool mark(size_t id)
    {
        if (stamp_[id] == epoch_)
            return false;
        stamp_[id] = epoch_;
        return true;
    }

    bool marked(size_t id) const { return stamp_[id] == epoch_; }

  private:
    std::vector<uint32_t> stamp_;
    uint32_t epoch_ = 1;
};

} // namespace raw

#endif // RAW_SUPPORT_EPOCH_MARKS_HPP
