/**
 * @file
 * Closed-loop load generator for `rawcc serve`, exercising the
 * daemon's three robustness contracts end to end and writing
 * BENCH_serve.json (override with --json-out):
 *
 *  - warm:     a repeat-heavy client mix (few distinct workloads,
 *              many requests) must show a high cache hit rate and
 *              exactly one compile per distinct digest
 *              (single-flight);
 *  - overload: ~4x more concurrent stall work than the daemon's
 *              queue+workers can hold must shed the excess with
 *              structured `overloaded` replies while the p99 latency
 *              of *accepted* requests stays bounded by the queue
 *              depth, not by the offered load;
 *  - drain:    SIGTERM in the middle of the load must produce a
 *              clean exit 0 with every admitted request answered
 *              (completed, timeout, or cancelled — never silence).
 *
 * Each scenario forks its own daemon (fresh counters), drives it
 * with real sockets through serve::ServeClient, and asserts its
 * contract, so the --smoke run doubles as a correctness gate (ctest
 * label serve-smoke).
 *
 * Flags: --smoke shrinks the load for CI; --bin PATH overrides the
 * rawcc binary (default: the RAWCC_BIN this bench was built
 * against); --clients N / --requests N scale the full run.
 */

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "harness/cli.hpp"
#include "serve/client.hpp"
#include "serve/json.hpp"
#include "support/error.hpp"

#ifndef RAWCC_BIN
#define RAWCC_BIN "rawcc"
#endif

namespace {

using raw::serve::Json;
using raw::serve::JsonBuilder;
using raw::serve::ServeClient;
using raw::serve::ServeDaemon;
using Clock = std::chrono::steady_clock;

/** Outcomes of one scenario, aggregated across client threads. */
struct LoadResult
{
    std::mutex mu;
    std::vector<double> ok_ms;   ///< latency of accepted+completed
    int64_t sent = 0;
    int64_t ok = 0;
    int64_t shed = 0;
    int64_t timeouts = 0;
    int64_t cancelled = 0;
    int64_t errors = 0;      ///< compile/sim/bad_request/internal
    int64_t eof = 0;         ///< connection closed before a reply
    int64_t silent = 0;      ///< reply wait expired (contract breach)

    void
    record(const char *kind, double ms)
    {
        std::lock_guard<std::mutex> lock(mu);
        if (std::strcmp(kind, "ok") == 0) {
            ok++;
            ok_ms.push_back(ms);
        } else if (std::strcmp(kind, "overloaded") == 0)
            shed++;
        else if (std::strcmp(kind, "timeout") == 0)
            timeouts++;
        else if (std::strcmp(kind, "shutting_down") == 0)
            cancelled++;
        else if (std::strcmp(kind, "eof") == 0)
            eof++;
        else if (std::strcmp(kind, "silent") == 0)
            silent++;
        else
            errors++;
    }
};

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t idx = static_cast<size_t>(p * (v.size() - 1) + 0.5);
    return v[std::min(idx, v.size() - 1)];
}

/**
 * Fire @p n requests from one client over one connection, recording
 * each reply's taxonomy kind and latency.  @p make_line produces the
 * k-th request body.
 */
void
client_loop(const std::string &endpoint, int n,
            const std::function<std::string(int)> &make_line,
            LoadResult &out)
{
    ServeClient c;
    try {
        c.connect(endpoint);
    } catch (const raw::FatalError &) {
        std::lock_guard<std::mutex> lock(out.mu);
        out.eof += n;
        return;
    }
    for (int k = 0; k < n; k++) {
        Clock::time_point t0 = Clock::now();
        {
            std::lock_guard<std::mutex> lock(out.mu);
            out.sent++;
        }
        Json reply;
        try {
            reply = c.request(make_line(k), 20000);
        } catch (const raw::FatalError &e) {
            bool silent =
                std::strstr(e.what(), "timed out") != nullptr;
            out.record(silent ? "silent" : "eof", 0.0);
            if (!silent)
                return; // connection gone (drain); stop this client
            continue;
        }
        double ms = std::chrono::duration<double, std::milli>(
                        Clock::now() - t0)
                        .count();
        if (reply.bool_or("ok", false))
            out.record("ok", ms);
        else
            out.record(reply.str_or("error", "internal").c_str(),
                       ms);
    }
}

/** Launch @p clients threads of @p per_client requests and join. */
void
run_load(const std::string &endpoint, int clients, int per_client,
         const std::function<std::string(int, int)> &make_line,
         LoadResult &out)
{
    std::vector<std::thread> ts;
    ts.reserve(static_cast<size_t>(clients));
    for (int cl = 0; cl < clients; cl++)
        ts.emplace_back([&, cl] {
            client_loop(
                endpoint, per_client,
                [&, cl](int k) { return make_line(cl, k); }, out);
        });
    for (auto &t : ts)
        t.join();
}

/** Final daemon-side counters, fetched over the protocol. */
Json
fetch_stats(const std::string &endpoint)
{
    ServeClient c;
    c.connect(endpoint);
    return c.request("{\"op\":\"stats\"}", 10000);
}

int failures = 0;

void
expect(bool cond, const std::string &what)
{
    if (cond) {
        std::printf("  ok: %s\n", what.c_str());
    } else {
        std::printf("  FAIL: %s\n", what.c_str());
        failures++;
    }
}

std::string
scenario_json(const char *name, const LoadResult &r, double secs,
              const Json *daemon_stats)
{
    JsonBuilder b;
    b.kv("scenario", name)
        .kv("sent", r.sent)
        .kv("ok", r.ok)
        .kv("shed", r.shed)
        .kv("timeouts", r.timeouts)
        .kv("cancelled", r.cancelled)
        .kv("errors", r.errors)
        .kv("eof", r.eof)
        .kv("silent", r.silent)
        .kv("p50_ms", percentile(r.ok_ms, 0.50))
        .kv("p99_ms", percentile(r.ok_ms, 0.99))
        .kv("throughput_rps",
            secs > 0 ? static_cast<double>(r.ok) / secs : 0.0)
        .kv("wall_s", secs);
    if (daemon_stats) {
        const Json *cache = daemon_stats->find("cache");
        if (cache && cache->is_object()) {
            JsonBuilder c;
            c.kv("hits", cache->int_or("hits", 0))
                .kv("misses", cache->int_or("misses", 0))
                .kv("compiles", cache->int_or("compiles", 0))
                .kv("waits", cache->int_or("waits", 0))
                .kv("leader_failures",
                    cache->int_or("leader_failures", 0))
                .kv("retries", cache->int_or("retries", 0))
                .kv("evictions", cache->int_or("evictions", 0));
            b.raw("cache", c.str());
        }
        b.kv("daemon_shed", daemon_stats->int_or("shed", 0))
            .kv("daemon_admitted",
                daemon_stats->int_or("admitted", 0))
            .kv("daemon_cancelled",
                daemon_stats->int_or("cancelled", 0));
    }
    return b.str();
}

} // namespace

int
main(int argc, char **argv)
{
    std::string bin = RAWCC_BIN;
    std::string json_out = "BENCH_serve.json";
    bool smoke = false;
    int clients = 8;
    int requests = 40;
    const char *tool = "bench_serve";
    for (int i = 1; i < argc; i++) {
        auto value = [&] {
            return raw::cli::next_value(tool, argc, argv, i);
        };
        if (std::strcmp(argv[i], "--json-out") == 0)
            json_out = value();
        else if (std::strcmp(argv[i], "--bin") == 0)
            bin = value();
        else if (std::strcmp(argv[i], "--clients") == 0)
            clients = static_cast<int>(raw::cli::parse_long_in(
                tool, value(), "--clients", 1, 256,
                "a count in [1, 256]"));
        else if (std::strcmp(argv[i], "--requests") == 0)
            requests = static_cast<int>(raw::cli::parse_long_in(
                tool, value(), "--requests", 1, 100000,
                "a count in [1, 100000]"));
        else if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
        else
            raw::cli::unknown_option(tool, argv[i]);
    }
    raw::cli::require_writable(tool, json_out);
    if (smoke) {
        clients = 4;
        requests = 12;
    }

    std::string sock_base =
        "/tmp/rawcc-bench-" + std::to_string(::getpid());
    std::vector<std::string> scenario_lines;

    // ---------------------------------------------------------
    // Scenario 1: warm, repeat-heavy mix.  Three distinct
    // workloads shared by all clients; everything after the first
    // compile of each must be a hit or a single-flight wait.
    // ---------------------------------------------------------
    {
        std::printf("scenario: warm (repeat-heavy, %d clients x %d "
                    "requests)\n",
                    clients, requests);
        ServeDaemon d;
        d.start(bin, {"--socket", sock_base + "-warm.sock",
                      "--workers", "2", "--queue-depth", "32"});
        static const char *kMix[] = {
            "{\"op\":\"compile\",\"bench\":\"jacobi\",\"tiles\":4}",
            "{\"op\":\"compile\",\"bench\":\"life\",\"tiles\":4}",
            "{\"op\":\"simulate\",\"bench\":\"jacobi\",\"tiles\":4}",
        };
        LoadResult r;
        Clock::time_point t0 = Clock::now();
        run_load(
            d.endpoint(), clients, requests,
            [&](int cl, int k) { return kMix[(cl + k) % 3]; }, r);
        double secs = std::chrono::duration<double>(Clock::now() -
                                                    t0)
                          .count();
        Json st = fetch_stats(d.endpoint());
        const Json *cache = st.find("cache");
        int64_t compiles =
            cache ? cache->int_or("compiles", 0) : -1;
        int64_t hits = cache ? cache->int_or("hits", 0) : 0;
        int64_t waits = cache ? cache->int_or("waits", 0) : 0;
        int64_t lookups = hits + waits +
                          (cache ? cache->int_or("misses", 0) : 0);
        double hit_rate =
            lookups > 0
                ? static_cast<double>(hits + waits) / lookups
                : 0.0;
        expect(r.ok == r.sent,
               "all " + std::to_string(r.sent) + " replies ok");
        // Two distinct digests (jacobi and life at 4 tiles; the
        // simulate shares jacobi's compile) -> exactly 2 compiles.
        expect(compiles == 2,
               "exactly one compile per distinct digest (got " +
                   std::to_string(compiles) + ", want 2)");
        expect(hit_rate > 0.80,
               "warm hit rate > 80% (got " +
                   std::to_string(hit_rate * 100) + "%)");
        expect(r.silent == 0, "no silent drops");
        expect(d.stop() == 0, "clean daemon exit");
        std::string line = scenario_json("warm", r, secs, &st);
        scenario_lines.push_back(line.substr(0, line.size() - 1) +
                                 ",\"hit_rate\":" +
                                 std::to_string(hit_rate) + "}");
    }

    // ---------------------------------------------------------
    // Scenario 2: overload.  Capacity is workers=2 + queue=4; we
    // offer ~4x that concurrently with 50ms stalls.  The daemon
    // must shed with structured replies, and accepted-request p99
    // must be bounded by queue depth x stall, not offered load.
    // ---------------------------------------------------------
    {
        int oclients = std::max(8, clients);
        int oreq = smoke ? 6 : 20;
        std::printf("scenario: overload (%d clients x %d stalls "
                    "into workers=2 queue=4)\n",
                    oclients, oreq);
        ServeDaemon d;
        d.start(bin, {"--socket", sock_base + "-over.sock",
                      "--workers", "2", "--queue-depth", "4"});
        LoadResult r;
        Clock::time_point t0 = Clock::now();
        run_load(d.endpoint(), oclients, oreq,
                 [&](int, int) {
                     return std::string(
                         "{\"op\":\"stall\",\"ms\":50}");
                 },
                 r);
        double secs = std::chrono::duration<double>(Clock::now() -
                                                    t0)
                          .count();
        Json st = fetch_stats(d.endpoint());
        expect(r.shed > 0, "excess load shed with structured "
                           "overloaded replies (" +
                               std::to_string(r.shed) + " shed)");
        expect(r.ok > 0, "accepted requests completed (" +
                             std::to_string(r.ok) + ")");
        expect(r.silent == 0, "no silent drops under overload");
        // 6 in-system slots x 50ms each = 300ms worst-case wait for
        // an admitted stall; 2s is an order of magnitude of slack
        // for CI noise, while an unbounded queue would blow past it.
        double p99 = percentile(r.ok_ms, 0.99);
        expect(p99 < 2000.0,
               "p99 of accepted bounded by queue, not load (" +
                   std::to_string(p99) + " ms)");
        expect(r.ok + r.shed + r.timeouts + r.errors +
                       r.cancelled ==
                   r.sent,
               "every request got exactly one reply");
        expect(d.stop() == 0, "clean daemon exit");
        scenario_lines.push_back(
            scenario_json("overload", r, secs, &st));
    }

    // ---------------------------------------------------------
    // Scenario 3: drain.  SIGTERM mid-load; every admitted request
    // must still be answered (ok / timeout / shutting_down), the
    // daemon must exit 0 within its drain budget.
    // ---------------------------------------------------------
    {
        std::printf("scenario: drain (SIGTERM under load)\n");
        ServeDaemon d;
        d.start(bin, {"--socket", sock_base + "-drain.sock",
                      "--workers", "2", "--queue-depth", "8",
                      "--drain", "4000"});
        LoadResult r;
        Clock::time_point t0 = Clock::now();
        std::thread killer([&] {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(150));
            d.kill_with(SIGTERM);
        });
        run_load(d.endpoint(), clients, requests,
                 [&](int, int) {
                     return std::string(
                         "{\"op\":\"stall\",\"ms\":20}");
                 },
                 r);
        killer.join();
        double secs = std::chrono::duration<double>(Clock::now() -
                                                    t0)
                          .count();
        int code = d.stop();
        expect(code == 0, "daemon exited 0 after SIGTERM (got " +
                              std::to_string(code) + ")");
        expect(r.silent == 0,
               "every in-flight request answered before exit");
        expect(r.ok > 0, "work before the signal completed (" +
                             std::to_string(r.ok) + ")");
        scenario_lines.push_back(
            scenario_json("drain", r, secs, nullptr));
    }

    // ---------------------------------------------------------
    // Emit BENCH_serve.json
    // ---------------------------------------------------------
    std::ofstream out(json_out);
    out << "{\n  \"bench\": \"serve\",\n  \"smoke\": "
        << (smoke ? "true" : "false") << ",\n  \"clients\": "
        << clients << ",\n  \"requests_per_client\": " << requests
        << ",\n  \"failures\": " << failures
        << ",\n  \"scenarios\": [\n";
    for (size_t i = 0; i < scenario_lines.size(); i++)
        out << "    " << scenario_lines[i]
            << (i + 1 < scenario_lines.size() ? "," : "") << "\n";
    out << "  ]\n}\n";
    out.close();
    std::printf("%s: %s written, %d failure(s)\n",
                failures ? "FAIL" : "PASS", json_out.c_str(),
                failures);
    return failures ? 1 : 0;
}
