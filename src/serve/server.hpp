#ifndef RAW_SERVE_SERVER_HPP
#define RAW_SERVE_SERVER_HPP

/**
 * @file
 * `rawcc serve`: a hardened multi-tenant compile-and-simulate daemon.
 *
 * One process, one listening socket (Unix domain or loopback TCP),
 * line-delimited JSON in both directions (docs/serve.md has the full
 * protocol and error taxonomy).  The robustness contract:
 *
 *  - admission control: requests enter a bounded queue; when it is
 *    full the daemon replies `overloaded` immediately — no silent
 *    drops, no unbounded memory;
 *  - single-flight caching: identical concurrent compiles run once
 *    (serve/flight_cache.hpp), with leader-failure handoff;
 *  - per-request isolation: each request carries a wall-clock
 *    deadline; simulations are preempted at the deadline
 *    (SimTimeoutError), compiles are replied-to at the deadline by a
 *    reaper thread while the worker finishes and still populates the
 *    cache; any pipeline exception becomes a structured error reply,
 *    never a daemon crash;
 *  - graceful drain: SIGTERM/SIGINT stop admission, queued requests
 *    get `shutting_down` replies, in-flight work finishes, the
 *    process exits 0.
 */

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/flight_cache.hpp"
#include "serve/queue.hpp"

namespace raw {
namespace serve {

struct ServeOptions
{
    /** Unix-domain socket path; empty = TCP on 127.0.0.1:port. */
    std::string socket_path;
    int port = 0;
    /** Worker threads executing compile/simulate requests. */
    int workers = 2;
    /** Admission queue depth (beyond in-flight work). */
    int queue_depth = 16;
    /** Request-cache capacity. */
    int cache_entries = 64;
    int64_t cache_bytes = 256 << 20;
    /** Default / maximum per-request deadline (ms). */
    int64_t default_timeout_ms = 30000;
    int64_t max_timeout_ms = 120000;
    /** Wall budget for finishing in-flight work on drain (ms). */
    int64_t drain_ms = 5000;
    /** Hostile-input bound: longest accepted request line (bytes). */
    size_t max_line_bytes = 4 << 20;
    /** Concurrent connection cap (excess are refused with a reply). */
    int max_conns = 64;
    /** Log request lines to stderr. */
    bool verbose = false;
};

/** Aggregate daemon counters (all monotonic unless noted). */
struct ServeStats
{
    int64_t connections = 0;
    int64_t conns_refused = 0;
    int64_t requests = 0;
    int64_t admitted = 0;
    int64_t completed = 0;
    int64_t shed = 0;        ///< overloaded replies
    int64_t timeouts = 0;    ///< timeout replies (queue or run)
    int64_t bad_requests = 0;
    int64_t compile_errors = 0;
    int64_t sim_errors = 0;
    int64_t internal_errors = 0;
    int64_t cancelled = 0;   ///< shutting_down replies during drain
    int64_t detached = 0;    ///< workers that outlived their reply
};

class ServeServer
{
  public:
    explicit ServeServer(const ServeOptions &opts);
    ~ServeServer();

    ServeServer(const ServeServer &) = delete;
    ServeServer &operator=(const ServeServer &) = delete;

    /**
     * Bind, listen, spawn workers, and serve until stop() (or a
     * signal routed through request_stop()).  Prints one
     * "listening on ..." line to stdout when ready.  Returns the
     * process exit code (0 after a clean drain).
     */
    int serve_forever();

    /** Async-signal-safe stop request (callable from a handler). */
    void request_stop();

    ServeStats stats() const;
    FlightCache::Stats cache_stats() const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/** `rawcc serve` entry point (flag parsing + signal wiring). */
int serve_main(int argc, char **argv);

} // namespace serve
} // namespace raw

#endif // RAW_SERVE_SERVER_HPP
