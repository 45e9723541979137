#include "serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <condition_variable>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <set>
#include <unordered_set>

#include "harness/cli.hpp"
#include "programs/programs.hpp"
#include "rawcc/compiler.hpp"
#include "serve/json.hpp"
#include "sim/simulator.hpp"
#include "support/error.hpp"

namespace raw {
namespace serve {

namespace {

using Clock = std::chrono::steady_clock;

double
ms_between(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/** A request parameter the daemon refuses; replied as bad_request. */
class BadRequest : public FatalError
{
  public:
    using FatalError::FatalError;
};

/** Keys a request's "options" object may set. */
const std::set<std::string> kOptionKeys = {"pgo", "verify_ir",
                                           "sched_iters"};

/** One client connection; writes are serialized by wmu. */
struct Conn
{
    int fd = -1;
    std::mutex wmu;
    std::atomic<bool> open{true};

    ~Conn()
    {
        if (fd >= 0)
            ::close(fd);
    }

    /** Write one protocol line; false (and closed) on error. */
    bool
    send_line(const std::string &body)
    {
        std::string line = body;
        line.push_back('\n');
        std::lock_guard<std::mutex> lock(wmu);
        if (!open.load())
            return false;
        size_t off = 0;
        while (off < line.size()) {
            ssize_t n = ::send(fd, line.data() + off,
                               line.size() - off, MSG_NOSIGNAL);
            if (n <= 0) {
                if (n < 0 && errno == EINTR)
                    continue;
                open.store(false);
                return false;
            }
            off += static_cast<size_t>(n);
        }
        return true;
    }
};

/**
 * One admitted request.  The `replied` flag is the reply race: the
 * worker (success/error), the reaper (deadline) and the drain path
 * (cancellation) all try to claim it; exactly one wins, so the client
 * gets exactly one reply per request.
 */
struct Pending
{
    std::shared_ptr<Conn> conn;
    uint64_t seq = 0;          ///< server-assigned, for logs
    std::string client_id;     ///< echoed "id" field, may be empty
    std::string op;
    Json body;
    Clock::time_point arrival{};
    Clock::time_point deadline{};
    std::atomic<bool> replied{false};

    /** Claim the reply slot; true if this caller won. */
    bool claim() { return !replied.exchange(true); }
};

using PendingPtr = std::shared_ptr<Pending>;

} // namespace

// ---------------------------------------------------------------
// Impl
// ---------------------------------------------------------------

struct ServeServer::Impl
{
    ServeOptions opts;
    AdmissionQueue<PendingPtr> queue;
    FlightCache cache;

    int listen_fd = -1;
    int wake_rd = -1, wake_wr = -1;
    std::atomic<bool> draining{false};
    std::atomic<bool> reaper_stop{false};
    std::atomic<bool> drain_done{false};
    Clock::time_point started = Clock::now();
    std::atomic<uint64_t> next_seq{1};

    std::vector<std::thread> workers;
    std::thread reaper;
    std::vector<std::thread> conn_threads;
    std::mutex conns_mu;
    std::vector<std::shared_ptr<Conn>> conns;

    std::mutex pending_mu;
    std::vector<PendingPtr> pending;

    mutable std::mutex stats_mu;
    ServeStats st;

    explicit Impl(const ServeOptions &o)
        : opts(o),
          queue(static_cast<size_t>(std::max(1, o.queue_depth))),
          cache(static_cast<size_t>(std::max(1, o.cache_entries)),
                o.cache_bytes)
    {
    }

    // -- logging ------------------------------------------------

    void
    logf(const char *fmt, ...)
    {
        char buf[512];
        va_list ap;
        va_start(ap, fmt);
        std::vsnprintf(buf, sizeof buf, fmt, ap);
        va_end(ap);
        std::fprintf(stderr, "[serve] %s\n", buf);
    }

    void
    log_req(const Pending &p, const char *what)
    {
        if (opts.verbose)
            logf("req=%llu op=%s %s",
                 static_cast<unsigned long long>(p.seq),
                 p.op.c_str(), what);
    }

    // -- replies ------------------------------------------------

    JsonBuilder
    reply_head(const Pending &p)
    {
        JsonBuilder b;
        if (!p.client_id.empty())
            b.kv("id", p.client_id);
        b.kv("req", static_cast<int64_t>(p.seq));
        b.kv("op", p.op);
        return b;
    }

    /** Structured error reply; returns true if this caller won. */
    bool
    reply_error(Pending &p, const char *kind, const std::string &msg)
    {
        if (!p.claim())
            return false;
        JsonBuilder b = reply_head(p);
        b.kv("ok", false).kv("error", kind).kv("message", msg);
        p.conn->send_line(b.str());
        if (opts.verbose)
            logf("req=%llu op=%s error=%s %s",
                 static_cast<unsigned long long>(p.seq),
                 p.op.c_str(), kind, msg.c_str());
        return true;
    }

    void
    count(int64_t ServeStats::*field, int64_t by = 1)
    {
        std::lock_guard<std::mutex> lock(stats_mu);
        st.*field += by;
    }

    // -- request parsing ----------------------------------------

    /** Resolve the deadline of @p body (clamped to the max). */
    Clock::time_point
    request_deadline(const Json &body, Clock::time_point arrival)
    {
        int64_t ms = body.int_or("timeout_ms", opts.default_timeout_ms);
        if (ms <= 0)
            ms = opts.default_timeout_ms;
        ms = std::min(ms, opts.max_timeout_ms);
        return arrival + std::chrono::milliseconds(ms);
    }

    /**
     * Source text of a compile/simulate request: inline "source" or
     * a built-in "bench" name.  Throws FatalError on bad requests.
     */
    static std::string
    request_source(const Json &body)
    {
        const Json *src = body.find("source");
        if (src && src->is_string() && !src->string.empty())
            return src->string;
        std::string bench = body.str_or("bench", "");
        if (!bench.empty())
            return benchmark(bench).source; // fatal if unknown
        throw FatalError("request needs \"source\" or \"bench\"");
    }

    static MachineConfig
    request_machine(const Json &body)
    {
        int64_t tiles = body.int_or("tiles", 4);
        if (tiles < 1 || tiles > 64)
            throw FatalError("\"tiles\" must be in [1, 64]");
        std::string kind = body.str_or("machine", "base");
        int n = static_cast<int>(tiles);
        if (kind == "base")
            return MachineConfig::base(n);
        if (kind == "inf_reg")
            return MachineConfig::inf_reg(n);
        if (kind == "one_cycle")
            return MachineConfig::one_cycle(n);
        throw FatalError("unknown \"machine\": " + kind);
    }

    CompilerOptions
    request_options(const Json &body)
    {
        CompilerOptions copts;
        // Per-request concurrency comes from the worker pool, not
        // from per-compile fan-out.
        copts.orch.jobs = 1;
        const Json *o = body.find("options");
        if (!o)
            return copts;
        if (!o->is_object())
            throw BadRequest("\"options\" must be an object");
        for (const auto &member : o->object)
            if (!kOptionKeys.count(member.first))
                throw BadRequest("unknown option: \"" + member.first +
                                 "\"");
        copts.pgo = o->bool_or("pgo", false);
        copts.verify_ir = o->bool_or("verify_ir", true);
        int64_t iters = o->int_or("sched_iters", 0);
        if (iters < 0 || iters > kMaxSchedIters)
            throw BadRequest("\"sched_iters\" must be in [0, " +
                             std::to_string(kMaxSchedIters) + "]");
        copts.orch.sched.sched_iters = static_cast<int>(iters);
        return copts;
    }

    static Digest
    request_digest(const std::string &source, const MachineConfig &m,
                   const CompilerOptions &copts)
    {
        std::string key;
        key.reserve(source.size() + 64);
        key += source;
        key.push_back('\0');
        key += m.name();
        key.push_back('/');
        key += std::to_string(m.num_registers);
        key.push_back('/');
        key += m.unit_latency ? '1' : '0';
        key.push_back('\0');
        key += options_fingerprint(copts);
        return digest_bytes(key);
    }

    // -- ops ----------------------------------------------------

    /** Compile through the single-flight cache; shared by ops. */
    FlightCache::Value
    cached_compile(Pending &p, const std::string &source,
                   const MachineConfig &machine,
                   const CompilerOptions &copts, Digest &key,
                   FlightOutcome &outcome)
    {
        key = request_digest(source, machine, copts);
        return cache.get_or_compute(
            key,
            [&]() -> FlightCache::Value {
                log_req(p, "compiling");
                return std::make_shared<const CompileOutput>(
                    compile_source(source, machine, copts));
            },
            p.deadline, outcome);
    }

    void
    do_compile(Pending &p)
    {
        std::string source = request_source(p.body);
        MachineConfig machine = request_machine(p.body);
        CompilerOptions copts = request_options(p.body);
        Digest key;
        FlightOutcome outcome;
        Clock::time_point t0 = Clock::now();
        FlightCache::Value out =
            cached_compile(p, source, machine, copts, key, outcome);
        if (!out) {
            if (reply_error(p, "timeout",
                            "deadline expired waiting for an "
                            "in-flight identical compile"))
                count(&ServeStats::timeouts);
            return;
        }
        if (!p.claim()) {
            count(&ServeStats::detached);
            return;
        }
        JsonBuilder b = reply_head(p);
        b.kv("ok", true)
            .kv("digest", key.hex())
            .kv("cache", flight_outcome_name(outcome))
            .kv("tiles", machine.n_tiles)
            .kv("static_instrs", out->stats.static_instrs)
            .kv("ir_instrs", out->stats.ir_instrs)
            .kv("est_makespan", out->stats.estimated_makespan())
            .kv("queue_ms", ms_between(p.arrival, t0))
            .kv("run_ms", ms_between(t0, Clock::now()));
        p.conn->send_line(b.str());
        count(&ServeStats::completed);
    }

    static FaultConfig
    request_faults(const Json &body)
    {
        FaultConfig f;
        const Json *o = body.find("faults");
        if (!o)
            return f;
        if (!o->is_object())
            throw FatalError("\"faults\" must be an object");
        f.miss_rate = o->num_or("miss_rate", 0.0);
        f.penalty = static_cast<int>(o->int_or("penalty", f.penalty));
        f.seed = static_cast<uint64_t>(o->int_or("seed", 0));
        f.route_stall_rate = o->num_or("route_stall_rate", 0.0);
        f.dyn_delay_rate = o->num_or("dyn_delay_rate", 0.0);
        f.jitter_rate = o->num_or("jitter_rate", 0.0);
        const double rates[] = {f.miss_rate, f.route_stall_rate,
                                f.dyn_delay_rate, f.jitter_rate};
        for (double r : rates)
            if (r < 0.0 || r > 1.0)
                throw FatalError("fault rates must be in [0, 1]");
        return f;
    }

    static CheckConfig
    request_checks(const Json &body)
    {
        CheckConfig c;
        const Json *o = body.find("checks");
        if (!o)
            return c;
        if (!o->is_object())
            throw FatalError("\"checks\" must be an object");
        c.provenance = o->bool_or("provenance", false);
        c.fifo_bounds = o->bool_or("fifo_bounds", false);
        return c;
    }

    void
    do_simulate(Pending &p)
    {
        std::string source = request_source(p.body);
        MachineConfig machine = request_machine(p.body);
        CompilerOptions copts = request_options(p.body);
        FaultConfig faults = request_faults(p.body);
        CheckConfig checks = request_checks(p.body);
        SimBackend backend = kDefaultSimBackend;
        if (p.body.find("backend")) {
            try {
                backend = sim_backend_from_string(
                    p.body.str_or("backend", ""));
            } catch (const FatalError &e) {
                throw BadRequest(e.what());
            }
        }
        int64_t max_cycles =
            p.body.int_or("max_cycles", 2000000000LL);
        if (max_cycles < 1)
            throw FatalError("\"max_cycles\" must be positive");

        Digest key;
        FlightOutcome outcome;
        Clock::time_point t0 = Clock::now();
        FlightCache::Value out =
            cached_compile(p, source, machine, copts, key, outcome);
        if (!out) {
            if (reply_error(p, "timeout",
                            "deadline expired waiting for an "
                            "in-flight identical compile"))
                count(&ServeStats::timeouts);
            return;
        }

        // The simulation honors the request deadline from the
        // inside: the sim polls the wall clock and throws
        // SimTimeoutError, which the firewall below turns into a
        // structured timeout reply.
        Simulator sim(out->program, faults, checks, backend);
        sim.set_wall_deadline(p.deadline);
        Clock::time_point t1 = Clock::now();
        SimResult r = sim.run(max_cycles);

        if (!p.claim()) {
            count(&ServeStats::detached);
            return;
        }
        char prov[24];
        std::snprintf(prov, sizeof prov, "%016llx",
                      static_cast<unsigned long long>(r.prov_hash));
        JsonBuilder b = reply_head(p);
        b.kv("ok", true)
            .kv("digest", key.hex())
            .kv("cache", flight_outcome_name(outcome))
            .kv("backend", sim_backend_name(backend))
            .kv("cycles", r.cycles)
            .kv("instrs", r.instrs_executed)
            .kv("words_routed", r.words_routed)
            .kv("dyn_messages", r.dyn_messages)
            .kv("prints", static_cast<int64_t>(r.prints.size()))
            .kv("check_failures", r.check_failure_count)
            .kv("prov_hash", prov)
            .kv("queue_ms", ms_between(p.arrival, t0))
            .kv("compile_ms", ms_between(t0, t1))
            .kv("sim_ms", ms_between(t1, Clock::now()));
        p.conn->send_line(b.str());
        count(&ServeStats::completed);
    }

    /** Debug op: hold a worker for N ms (deterministic overload). */
    void
    do_stall(Pending &p)
    {
        int64_t ms = p.body.int_or("ms", 100);
        if (ms < 0 || ms > 60000)
            throw FatalError("\"ms\" must be in [0, 60000]");
        // The stall is measured from execution start (not arrival):
        // the point of the op is to hold a *worker* for ms.
        Clock::time_point until =
            Clock::now() + std::chrono::milliseconds(ms);
        while (Clock::now() < until) {
            if (Clock::now() >= p.deadline) {
                if (reply_error(p, "timeout", "stall hit deadline"))
                    count(&ServeStats::timeouts);
                return;
            }
            std::this_thread::sleep_for(
                std::chrono::milliseconds(2));
        }
        if (!p.claim()) {
            count(&ServeStats::detached);
            return;
        }
        JsonBuilder b = reply_head(p);
        b.kv("ok", true).kv("stalled_ms", ms);
        p.conn->send_line(b.str());
        count(&ServeStats::completed);
    }

    // -- worker loop + exception firewall -----------------------

    void
    worker_loop()
    {
        PendingPtr p;
        while (queue.pop(p)) {
            run_one(*p);
            p.reset();
        }
    }

    void
    run_one(Pending &p)
    {
        if (p.replied.load()) {
            // Reaper (queue timeout) or drain cancelled it while it
            // sat in the queue; nothing left to do.
            return;
        }
        if (Clock::now() >= p.deadline) {
            if (reply_error(p, "timeout", "deadline expired in queue"))
                count(&ServeStats::timeouts);
            return;
        }
        // Exception firewall: nothing a request does may kill the
        // daemon.  Every failure mode maps to one taxonomy kind.
        try {
            if (p.op == "compile")
                do_compile(p);
            else if (p.op == "simulate")
                do_simulate(p);
            else
                do_stall(p);
        } catch (const SimTimeoutError &e) {
            if (reply_error(p, "timeout", e.what()))
                count(&ServeStats::timeouts);
        } catch (const DeadlockError &e) {
            if (reply_error(p, "sim_error", e.what()))
                count(&ServeStats::sim_errors);
        } catch (const BadRequest &e) {
            if (reply_error(p, "bad_request", e.what()))
                count(&ServeStats::bad_requests);
        } catch (const FatalError &e) {
            const char *kind =
                p.op == "simulate" ? "sim_error" : "compile_error";
            if (reply_error(p, kind, e.what())) {
                if (p.op == "simulate")
                    count(&ServeStats::sim_errors);
                else
                    count(&ServeStats::compile_errors);
            }
        } catch (const std::exception &e) {
            if (reply_error(p, "internal", e.what()))
                count(&ServeStats::internal_errors);
        } catch (...) {
            if (reply_error(p, "internal", "unknown exception"))
                count(&ServeStats::internal_errors);
        }
    }

    // -- reaper -------------------------------------------------

    void
    reaper_loop()
    {
        while (!reaper_stop.load()) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(10));
            Clock::time_point now = Clock::now();
            std::vector<PendingPtr> expired;
            {
                std::lock_guard<std::mutex> lock(pending_mu);
                auto keep = pending.begin();
                for (auto &p : pending) {
                    if (p->replied.load())
                        continue; // drop
                    if (now >= p->deadline)
                        expired.push_back(p);
                    *keep++ = p;
                }
                pending.erase(keep, pending.end());
            }
            for (auto &p : expired) {
                // The worker may finish concurrently; the claim
                // race decides.  A compile keeps running after this
                // reply and still populates the cache — the worker
                // is reclaimed when it finishes, not abandoned.
                if (reply_error(*p, "timeout",
                                "deadline expired during execution"))
                    count(&ServeStats::timeouts);
            }
        }
    }

    // -- per-connection protocol loop ---------------------------

    std::string
    stats_line(const Pending &p)
    {
        ServeStats s;
        {
            std::lock_guard<std::mutex> lock(stats_mu);
            s = st;
        }
        FlightCache::Stats cs = cache.stats();
        JsonBuilder c;
        c.kv("hits", cs.hits)
            .kv("misses", cs.misses)
            .kv("compiles", cs.compiles)
            .kv("waits", cs.waits)
            .kv("wait_timeouts", cs.wait_timeouts)
            .kv("leader_failures", cs.leader_failures)
            .kv("retries", cs.retries)
            .kv("evictions", cs.evictions)
            .kv("entries", cs.entries)
            .kv("bytes", cs.bytes);
        JsonBuilder b;
        if (!p.client_id.empty())
            b.kv("id", p.client_id);
        b.kv("req", static_cast<int64_t>(p.seq))
            .kv("op", "stats")
            .kv("ok", true)
            .kv("uptime_ms", ms_between(started, Clock::now()))
            .kv("connections", s.connections)
            .kv("requests", s.requests)
            .kv("admitted", s.admitted)
            .kv("completed", s.completed)
            .kv("shed", s.shed)
            .kv("timeouts", s.timeouts)
            .kv("bad_requests", s.bad_requests)
            .kv("compile_errors", s.compile_errors)
            .kv("sim_errors", s.sim_errors)
            .kv("internal_errors", s.internal_errors)
            .kv("cancelled", s.cancelled)
            .kv("detached", s.detached)
            .kv("queue_depth", static_cast<int64_t>(queue.size()))
            .kv("queue_cap", static_cast<int64_t>(queue.depth()))
            .kv("workers", opts.workers)
            .kv("draining", draining.load())
            .raw("cache", c.str());
        return b.str();
    }

    void
    handle_line(const std::shared_ptr<Conn> &conn,
                const std::string &line)
    {
        count(&ServeStats::requests);
        auto p = std::make_shared<Pending>();
        p->conn = conn;
        p->seq = next_seq.fetch_add(1);
        p->arrival = Clock::now();

        Json body;
        std::string err;
        if (!json_parse(line, body, err) || !body.is_object()) {
            p->op = "?";
            if (err.empty())
                err = "request must be a JSON object";
            if (reply_error(*p, "bad_request", err))
                count(&ServeStats::bad_requests);
            return;
        }
        p->body = std::move(body);
        p->client_id = p->body.str_or("id", "");
        p->op = p->body.str_or("op", "");
        p->deadline = request_deadline(p->body, p->arrival);
        log_req(*p, "received");

        if (p->op == "ping") {
            if (p->claim()) {
                JsonBuilder b = reply_head(*p);
                b.kv("ok", true);
                conn->send_line(b.str());
            }
            return;
        }
        if (p->op == "stats") {
            if (p->claim())
                conn->send_line(stats_line(*p));
            return;
        }
        if (p->op != "compile" && p->op != "simulate" &&
            p->op != "stall") {
            if (reply_error(*p, "bad_request",
                            "unknown op: " +
                                (p->op.empty() ? "(missing)"
                                               : p->op)))
                count(&ServeStats::bad_requests);
            return;
        }

        // Admission decision, synchronously at the front door.
        if (!queue.try_push(p)) {
            if (draining.load()) {
                if (reply_error(*p, "shutting_down",
                                "daemon is draining"))
                    count(&ServeStats::cancelled);
            } else {
                if (reply_error(
                        *p, "overloaded",
                        "queue full (depth " +
                            std::to_string(queue.depth()) +
                            "); retry with backoff"))
                    count(&ServeStats::shed);
            }
            return;
        }
        count(&ServeStats::admitted);
        std::lock_guard<std::mutex> lock(pending_mu);
        pending.push_back(std::move(p));
    }

    void
    conn_loop(std::shared_ptr<Conn> conn)
    {
        std::string buf;
        char chunk[16384];
        for (;;) {
            ssize_t n = ::recv(conn->fd, chunk, sizeof chunk, 0);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                break;
            buf.append(chunk, static_cast<size_t>(n));
            size_t start = 0;
            for (;;) {
                size_t nl = buf.find('\n', start);
                if (nl == std::string::npos)
                    break;
                std::string line =
                    buf.substr(start, nl - start);
                start = nl + 1;
                if (!line.empty() && line.back() == '\r')
                    line.pop_back();
                if (!line.empty())
                    handle_line(conn, line);
            }
            buf.erase(0, start);
            if (buf.size() > opts.max_line_bytes) {
                // Hostile input bound: a line that long is not a
                // protocol request.  Reply once and hang up.
                JsonBuilder b;
                b.kv("ok", false)
                    .kv("error", "bad_request")
                    .kv("message",
                        "request line exceeds " +
                            std::to_string(opts.max_line_bytes) +
                            " bytes");
                conn->send_line(b.str());
                count(&ServeStats::bad_requests);
                break;
            }
        }
        conn->open.store(false);
        ::shutdown(conn->fd, SHUT_RDWR);
    }

    // -- listener -----------------------------------------------

    int
    bind_and_listen(std::string &where)
    {
        int fd = -1;
        if (!opts.socket_path.empty()) {
            sockaddr_un addr;
            std::memset(&addr, 0, sizeof addr);
            addr.sun_family = AF_UNIX;
            if (opts.socket_path.size() >= sizeof addr.sun_path)
                throw FatalError("socket path too long: " +
                                 opts.socket_path);
            std::strncpy(addr.sun_path, opts.socket_path.c_str(),
                         sizeof addr.sun_path - 1);
            fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
            if (fd < 0)
                throw FatalError("socket(): " +
                                 std::string(std::strerror(errno)));
            ::unlink(opts.socket_path.c_str());
            if (::bind(fd, reinterpret_cast<sockaddr *>(&addr),
                       sizeof addr) != 0) {
                int e = errno;
                ::close(fd);
                throw FatalError("bind(" + opts.socket_path +
                                 "): " + std::strerror(e));
            }
            where = "unix:" + opts.socket_path;
        } else {
            fd = ::socket(AF_INET, SOCK_STREAM, 0);
            if (fd < 0)
                throw FatalError("socket(): " +
                                 std::string(std::strerror(errno)));
            int one = 1;
            ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one,
                         sizeof one);
            sockaddr_in addr;
            std::memset(&addr, 0, sizeof addr);
            addr.sin_family = AF_INET;
            addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
            addr.sin_port =
                htons(static_cast<uint16_t>(opts.port));
            if (::bind(fd, reinterpret_cast<sockaddr *>(&addr),
                       sizeof addr) != 0) {
                int e = errno;
                ::close(fd);
                throw FatalError("bind(127.0.0.1:" +
                                 std::to_string(opts.port) +
                                 "): " + std::strerror(e));
            }
            socklen_t len = sizeof addr;
            ::getsockname(fd, reinterpret_cast<sockaddr *>(&addr),
                          &len);
            where = "tcp:127.0.0.1:" +
                    std::to_string(ntohs(addr.sin_port));
        }
        if (::listen(fd, 64) != 0) {
            int e = errno;
            ::close(fd);
            throw FatalError("listen(): " +
                             std::string(std::strerror(e)));
        }
        return fd;
    }

    void
    accept_one()
    {
        int cfd = ::accept(listen_fd, nullptr, nullptr);
        if (cfd < 0)
            return;
        // Bound a stuck client's damage: writes give up after 5s.
        timeval tv{5, 0};
        ::setsockopt(cfd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);

        size_t active;
        {
            std::lock_guard<std::mutex> lock(conns_mu);
            conns.erase(
                std::remove_if(conns.begin(), conns.end(),
                               [](const std::shared_ptr<Conn> &c) {
                                   return !c->open.load();
                               }),
                conns.end());
            active = conns.size();
        }
        if (active >= static_cast<size_t>(opts.max_conns)) {
            JsonBuilder b;
            b.kv("ok", false)
                .kv("error", "overloaded")
                .kv("message",
                    "connection limit (" +
                        std::to_string(opts.max_conns) +
                        ") reached");
            std::string line = b.str();
            line.push_back('\n');
            (void)!::send(cfd, line.data(), line.size(),
                          MSG_NOSIGNAL);
            ::close(cfd);
            count(&ServeStats::conns_refused);
            return;
        }
        auto conn = std::make_shared<Conn>();
        conn->fd = cfd;
        {
            std::lock_guard<std::mutex> lock(conns_mu);
            conns.push_back(conn);
        }
        count(&ServeStats::connections);
        conn_threads.emplace_back(
            [this, conn] { conn_loop(conn); });
    }

    // -- drain --------------------------------------------------

    int
    drain()
    {
        logf("drain: admission closed, %zu queued, draining for "
             "up to %lld ms",
             queue.size(),
             static_cast<long long>(opts.drain_ms));
        draining.store(true);
        queue.close_admission();

        // Anything still queued is cancelled with a structured
        // reply — a drained daemon never ghosts a client.
        PendingPtr p;
        while (queue.try_pop(p)) {
            if (reply_error(*p, "shutting_down",
                            "daemon is draining"))
                count(&ServeStats::cancelled);
        }
        queue.close();

        // Hard backstop: if an in-flight request outlives the drain
        // budget, exit anyway (still 0 — the work owed to clients
        // was already replied-to or cancelled above).
        std::thread watchdog([this] {
            Clock::time_point give_up =
                Clock::now() +
                std::chrono::milliseconds(opts.drain_ms);
            while (Clock::now() < give_up) {
                if (drain_done.load())
                    return;
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(20));
            }
            if (!drain_done.load()) {
                logf("drain deadline exceeded; exiting");
                std::fflush(nullptr);
                ::_exit(0);
            }
        });

        for (auto &w : workers)
            w.join();
        reaper_stop.store(true);
        if (reaper.joinable())
            reaper.join();

        // Release connection threads blocked in recv().
        {
            std::lock_guard<std::mutex> lock(conns_mu);
            for (auto &c : conns) {
                c->open.store(false);
                ::shutdown(c->fd, SHUT_RDWR);
            }
        }
        for (auto &t : conn_threads)
            t.join();

        drain_done.store(true);
        watchdog.join();

        FlightCache::Stats cs = cache.stats();
        ServeStats s;
        {
            std::lock_guard<std::mutex> lock(stats_mu);
            s = st;
        }
        logf("exit: %lld completed, %lld shed, %lld timeouts, "
             "%lld cancelled; cache %lld hits / %lld compiles",
             static_cast<long long>(s.completed),
             static_cast<long long>(s.shed),
             static_cast<long long>(s.timeouts),
             static_cast<long long>(s.cancelled),
             static_cast<long long>(cs.hits),
             static_cast<long long>(cs.compiles));
        return 0;
    }

    int
    serve_forever()
    {
        int pipefd[2];
        if (::pipe(pipefd) != 0)
            throw FatalError("pipe(): " +
                             std::string(std::strerror(errno)));
        wake_rd = pipefd[0];
        wake_wr = pipefd[1];

        std::string where;
        listen_fd = bind_and_listen(where);

        int nworkers = std::max(1, opts.workers);
        workers.reserve(static_cast<size_t>(nworkers));
        for (int i = 0; i < nworkers; i++)
            workers.emplace_back([this] { worker_loop(); });
        reaper = std::thread([this] { reaper_loop(); });

        // Readiness line on stdout: clients (and the smoke test)
        // block on this before connecting.
        std::printf("listening on %s workers=%d queue=%d\n",
                    where.c_str(), nworkers, opts.queue_depth);
        std::fflush(stdout);
        logf("up: %s", where.c_str());

        for (;;) {
            pollfd fds[2];
            fds[0] = {listen_fd, POLLIN, 0};
            fds[1] = {wake_rd, POLLIN, 0};
            int rc = ::poll(fds, 2, 200);
            if (rc < 0) {
                if (errno == EINTR)
                    continue;
                break;
            }
            if (fds[1].revents & POLLIN)
                break; // signal: drain
            if (fds[0].revents & POLLIN)
                accept_one();
        }

        ::close(listen_fd);
        listen_fd = -1;
        int code = drain();
        if (!opts.socket_path.empty())
            ::unlink(opts.socket_path.c_str());
        ::close(wake_rd);
        ::close(wake_wr);
        return code;
    }
};

// ---------------------------------------------------------------
// ServeServer facade
// ---------------------------------------------------------------

ServeServer::ServeServer(const ServeOptions &opts)
    : impl_(new Impl(opts))
{
}

ServeServer::~ServeServer() = default;

int
ServeServer::serve_forever()
{
    return impl_->serve_forever();
}

void
ServeServer::request_stop()
{
    // Async-signal-safe: one write(2), nothing else.
    if (impl_->wake_wr >= 0) {
        char c = 's';
        (void)!::write(impl_->wake_wr, &c, 1);
    }
}

ServeStats
ServeServer::stats() const
{
    std::lock_guard<std::mutex> lock(impl_->stats_mu);
    return impl_->st;
}

FlightCache::Stats
ServeServer::cache_stats() const
{
    return impl_->cache.stats();
}

// ---------------------------------------------------------------
// serve_main: flags + signals
// ---------------------------------------------------------------

namespace {

ServeServer *g_server = nullptr;

void
on_signal(int)
{
    if (g_server)
        g_server->request_stop();
}

void
serve_usage()
{
    std::fprintf(
        stderr,
        "usage: rawcc serve [options]\n"
        "  --socket PATH      listen on a Unix socket\n"
        "  --port N           listen on 127.0.0.1:N (0 = ephemeral)\n"
        "  --workers N        worker threads (default 2)\n"
        "  --queue-depth N    admission queue depth (default 16)\n"
        "  --cache-entries N  request-cache entries (default 64)\n"
        "  --cache-mb N       request-cache size cap (default 256)\n"
        "  --timeout MS       default per-request deadline\n"
        "  --max-timeout MS   per-request deadline ceiling\n"
        "  --drain MS         drain budget on SIGTERM/SIGINT\n"
        "  --max-conns N      concurrent connection cap\n"
        "  --verbose          log every request to stderr\n"
        "(protocol: docs/serve.md)\n");
}

} // namespace

int
serve_main(int argc, char **argv)
{
    ServeOptions opts;
    bool have_endpoint = false;
    const char *kTool = "rawcc serve";
    for (int i = 0; i < argc; i++) {
        std::string a = argv[i];
        auto next = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s: %s needs a value\n",
                             kTool, flag);
                std::exit(2);
            }
            return argv[++i];
        };
        auto num = [&](const char *flag, long lo, long hi,
                       const char *want) -> long {
            return cli::parse_long_in(kTool, next(flag), flag, lo,
                                      hi, want);
        };
        if (a == "--socket") {
            opts.socket_path = next("--socket");
            have_endpoint = true;
        } else if (a == "--port") {
            opts.port = static_cast<int>(
                num("--port", 0, 65535, "a port in [0, 65535]"));
            have_endpoint = true;
        } else if (a == "--workers") {
            opts.workers = static_cast<int>(
                num("--workers", 1, 256, "a count in [1, 256]"));
        } else if (a == "--queue-depth") {
            opts.queue_depth = static_cast<int>(num(
                "--queue-depth", 1, 65536, "a depth in [1, 65536]"));
        } else if (a == "--cache-entries") {
            opts.cache_entries = static_cast<int>(
                num("--cache-entries", 1, 1000000,
                    "a count in [1, 1000000]"));
        } else if (a == "--cache-mb") {
            opts.cache_bytes =
                static_cast<int64_t>(num("--cache-mb", 1, 65536,
                                         "MB in [1, 65536]"))
                << 20;
        } else if (a == "--timeout") {
            opts.default_timeout_ms =
                num("--timeout", 1, 86400000,
                    "milliseconds in [1, 86400000]");
        } else if (a == "--max-timeout") {
            opts.max_timeout_ms =
                num("--max-timeout", 1, 86400000,
                    "milliseconds in [1, 86400000]");
        } else if (a == "--drain") {
            opts.drain_ms = num("--drain", 1, 86400000,
                                "milliseconds in [1, 86400000]");
        } else if (a == "--max-conns") {
            opts.max_conns = static_cast<int>(num(
                "--max-conns", 1, 4096, "a count in [1, 4096]"));
        } else if (a == "--verbose") {
            opts.verbose = true;
        } else if (a == "--help" || a == "-h") {
            serve_usage();
            return 0;
        } else {
            std::fprintf(stderr, "unknown flag: %s\n", a.c_str());
            serve_usage();
            return 2;
        }
    }
    if (!have_endpoint) {
        std::fprintf(
            stderr,
            "rawcc serve: need --socket PATH or --port N\n");
        serve_usage();
        return 2;
    }
    if (opts.max_timeout_ms < opts.default_timeout_ms)
        opts.max_timeout_ms = opts.default_timeout_ms;

    ServeServer server(opts);
    g_server = &server;
    struct sigaction sa;
    std::memset(&sa, 0, sizeof sa);
    sa.sa_handler = on_signal;
    ::sigaction(SIGTERM, &sa, nullptr);
    ::sigaction(SIGINT, &sa, nullptr);
    ::signal(SIGPIPE, SIG_IGN);

    int code;
    try {
        code = server.serve_forever();
    } catch (const FatalError &e) {
        std::fprintf(stderr, "rawcc serve: %s\n", e.what());
        code = 1;
    }
    g_server = nullptr;
    return code;
}

} // namespace serve
} // namespace raw
