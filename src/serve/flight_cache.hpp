#ifndef RAW_SERVE_FLIGHT_CACHE_HPP
#define RAW_SERVE_FLIGHT_CACHE_HPP

/**
 * @file
 * Concurrent shared LRU of whole-request compile results with
 * single-flight deduplication.
 *
 * The key is a 128-bit digest of (source, machine, options
 * fingerprint), the value the finished CompileOutput.  It is the
 * daemon's only compile cache: a miss runs a full compile, every
 * block orchestrated afresh.
 *
 * Single-flight: when N identical requests are in flight at once,
 * exactly one (the *leader*) runs the compile; the other N−1 wait on
 * the flight and share the leader's result.  Failure handoff: if the
 * leader throws, the error is NOT cached — the leader's own caller
 * sees the exception, and exactly one waiter is promoted to a fresh
 * leader and retries (a transient failure such as OOM must not fan
 * one error out to N clients).  A waiter whose deadline expires
 * before the leader finishes gets a kTimeout outcome; the flight
 * itself keeps running and still populates the cache.
 *
 * Eviction is LRU by entries and approximate bytes.  All methods are
 * thread-safe; one mutex guards the maps (operations are pointer
 * swaps and list splices — the compile itself runs unlocked).
 */

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "rawcc/compiler.hpp"

namespace raw {
namespace serve {

/** 128-bit content digest (two independent FNV-1a streams). */
struct Digest
{
    uint64_t h1 = 0;
    uint64_t h2 = 0;
    bool operator==(const Digest &o) const
    {
        return h1 == o.h1 && h2 == o.h2;
    }
    /** "h1h2" as 32 hex digits (protocol replies, log lines). */
    std::string hex() const;
};

struct DigestHasher
{
    size_t operator()(const Digest &d) const
    {
        return static_cast<size_t>(d.h1 ^ (d.h2 >> 1));
    }
};

/** Digest of a byte string (FNV-1a x2, independent bases). */
Digest digest_bytes(const std::string &s);

/** How a get_or_compute call was served. */
enum class FlightOutcome : uint8_t {
    kHit,     ///< already cached
    kLeader,  ///< this caller ran the compile
    kWaited,  ///< shared a concurrent leader's result
    kTimeout, ///< deadline expired while waiting on the leader
};

const char *flight_outcome_name(FlightOutcome o);

class FlightCache
{
  public:
    using Value = std::shared_ptr<const CompileOutput>;
    using Compute = std::function<Value()>;

    struct Stats
    {
        int64_t hits = 0;
        int64_t misses = 0; ///< leader compiles started
        int64_t compiles = 0; ///< leader compiles succeeded
        int64_t waits = 0; ///< calls served by waiting on a leader
        int64_t wait_timeouts = 0;
        int64_t leader_failures = 0;
        int64_t retries = 0; ///< waiters promoted after a failure
        int64_t evictions = 0;
        int64_t entries = 0; ///< current
        int64_t bytes = 0;   ///< current (approximate)
    };

    FlightCache(size_t max_entries, int64_t max_bytes);

    /**
     * Return the cached value for @p key, or run @p compute under
     * single-flight and cache its result.  Blocks at most until
     * @p deadline when another caller holds the flight; returns
     * nullptr with outcome kTimeout in that case.  Rethrows
     * compute's exception to the caller that ran it (leader or
     * promoted waiter); other waiters retry or time out.
     */
    Value get_or_compute(const Digest &key, const Compute &compute,
                         std::chrono::steady_clock::time_point deadline,
                         FlightOutcome &outcome);

    /** Cache lookup only (no flight, no blocking). */
    Value peek(const Digest &key);

    Stats stats() const;
    void clear();

  private:
    struct Flight
    {
        std::condition_variable cv;
        bool done = false;
        bool failed = false;
        Value value;
    };

    struct Entry
    {
        Value value;
        int64_t bytes = 0;
        std::list<Digest>::iterator lru_it;
    };

    void touch_locked(Entry &e, const Digest &key);
    void insert_locked(const Digest &key, const Value &v);

    mutable std::mutex mu_;
    std::unordered_map<Digest, Entry, DigestHasher> map_;
    std::unordered_map<Digest, std::shared_ptr<Flight>, DigestHasher>
        flights_;
    /** Most-recent first. */
    std::list<Digest> lru_;
    const size_t max_entries_;
    const int64_t max_bytes_;
    Stats stats_;
};

/** Approximate resident size of a compile result (LRU accounting). */
int64_t approx_output_bytes(const CompileOutput &out);

} // namespace serve
} // namespace raw

#endif // RAW_SERVE_FLIGHT_CACHE_HPP
