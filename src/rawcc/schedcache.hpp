#ifndef RAW_RAWCC_SCHEDCACHE_HPP
#define RAW_RAWCC_SCHEDCACHE_HPP

/**
 * @file
 * What is left of the deleted block-schedule cache: the surface that
 * perfbench still compiles against.
 *
 * RAWCC orchestrates every block of every compile; no compile state
 * outlives a compile.  perfbench includes this header, empties the
 * cache before each cold measurement and reads its hit/miss counters
 * (through VirtualProgram::cache and CompileStats::cache), so exactly
 * that surface is kept: clear_memory() does nothing and the counters
 * are always zero.  Kept only for perfbench, the same precedent as
 * SimResult::regions_entered.
 */

#include "rawcc/orchestrater.hpp"

namespace raw {

using SchedCacheCounters = ZeroCacheCounters;

class SchedCache
{
  public:
    static SchedCache &
    instance()
    {
        static SchedCache c;
        return c;
    }

    /** No-op: there is nothing to empty. */
    void clear_memory() {}
};

} // namespace raw

#endif // RAW_RAWCC_SCHEDCACHE_HPP
