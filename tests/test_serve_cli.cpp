/**
 * @file
 * End-to-end smoke of the real `rawcc serve` daemon (ctest label
 * serve-smoke): fork the binary, speak the line protocol over a Unix
 * socket, and walk the whole robustness surface in a few seconds —
 * compile (miss then hit), simulate, a deterministically forced
 * overload shed, and a SIGTERM drain that must answer every
 * outstanding request and exit 0.
 */

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <string>

#include "serve/client.hpp"
#include "support/error.hpp"

#ifndef RAWCC_BIN
#define RAWCC_BIN "rawcc"
#endif

namespace raw {
namespace serve {
namespace {

using Clock = std::chrono::steady_clock;

std::string
test_sock(const char *tag)
{
    return "/tmp/rawcc-serve-test-" + std::to_string(::getpid()) +
           "-" + tag + ".sock";
}

/** Poll the stats op until @p pred holds or @p ms elapse. */
template <typename Pred>
bool
wait_stats(ServeClient &c, int64_t ms, Pred pred)
{
    Clock::time_point deadline =
        Clock::now() + std::chrono::milliseconds(ms);
    while (Clock::now() < deadline) {
        Json st = c.request("{\"op\":\"stats\"}", 2000);
        if (pred(st))
            return true;
        ::usleep(10000);
    }
    return false;
}

TEST(ServeCli, CompileSimulateShedAndDrain)
{
    // One worker + depth-1 queue makes the overload scenario
    // deterministic: worker busy + queue full => third request shed.
    ServeDaemon d;
    d.start(RAWCC_BIN,
            {"--socket", test_sock("smoke"), "--workers", "1",
             "--queue-depth", "1", "--drain", "3000"});

    ServeClient ctl; // control-plane ops (inline: ping/stats)
    ctl.connect(d.endpoint());

    // -- liveness --------------------------------------------
    Json pong = ctl.request("{\"op\":\"ping\",\"id\":\"p\"}", 2000);
    EXPECT_TRUE(pong.bool_or("ok", false));
    EXPECT_EQ(pong.str_or("id", ""), "p");

    // -- compile: miss, then hit -----------------------------
    const std::string kCompile =
        "{\"op\":\"compile\",\"bench\":\"jacobi\",\"tiles\":4}";
    Json c1 = ctl.request(kCompile, 15000);
    ASSERT_TRUE(c1.bool_or("ok", false)) << c1.str_or("message", "");
    EXPECT_EQ(c1.str_or("cache", ""), "miss");
    EXPECT_GT(c1.int_or("static_instrs", 0), 0);
    std::string digest = c1.str_or("digest", "");
    EXPECT_EQ(digest.size(), 32u);

    Json c2 = ctl.request(kCompile, 15000);
    ASSERT_TRUE(c2.bool_or("ok", false));
    EXPECT_EQ(c2.str_or("cache", ""), "hit");
    EXPECT_EQ(c2.str_or("digest", ""), digest);

    // -- simulate (shares the compile cache entry) -----------
    Json sim = ctl.request(
        "{\"op\":\"simulate\",\"bench\":\"jacobi\",\"tiles\":4,"
        "\"checks\":{\"provenance\":true}}",
        15000);
    ASSERT_TRUE(sim.bool_or("ok", false))
        << sim.str_or("message", "");
    EXPECT_EQ(sim.str_or("cache", ""), "hit");
    EXPECT_GT(sim.int_or("cycles", 0), 0);
    EXPECT_EQ(sim.int_or("check_failures", -1), 0);
    EXPECT_NE(sim.str_or("prov_hash", "0000000000000000"),
              "0000000000000000");

    // -- structured errors keep the daemon alive -------------
    Json bad = ctl.request(
        "{\"op\":\"compile\",\"source\":\"syntax error\"}", 15000);
    EXPECT_FALSE(bad.bool_or("ok", true));
    EXPECT_EQ(bad.str_or("error", ""), "compile_error");
    EXPECT_TRUE(
        ctl.request("{\"op\":\"ping\"}", 2000).bool_or("ok", false));

    // -- forced overload shed --------------------------------
    // Stall 1 occupies the only worker; stall 2 fills the only
    // queue slot; the third work request must be shed.
    ServeClient stalls;
    stalls.connect(d.endpoint());
    int64_t base =
        ctl.request("{\"op\":\"stats\"}", 2000).int_or("admitted", 0);
    stalls.send_line("{\"op\":\"stall\",\"ms\":1500,\"id\":\"s1\"}");
    // Wait until s1 is admitted AND dequeued (worker holds it);
    // only then can s2 occupy the single queue slot instead of
    // racing the worker for it.
    ASSERT_TRUE(wait_stats(ctl, 2000, [&](const Json &st) {
        return st.int_or("admitted", 0) == base + 1 &&
               st.int_or("queue_depth", -1) == 0;
    })) << "worker never picked up the first stall";
    stalls.send_line("{\"op\":\"stall\",\"ms\":1500,\"id\":\"s2\"}");
    ASSERT_TRUE(wait_stats(ctl, 2000, [&](const Json &st) {
        return st.int_or("admitted", 0) == base + 2 &&
               st.int_or("queue_depth", 0) == 1;
    })) << "queue slot never filled";

    Json shed = ctl.request(kCompile, 5000);
    EXPECT_FALSE(shed.bool_or("ok", true));
    EXPECT_EQ(shed.str_or("error", ""), "overloaded");

    // -- SIGTERM drain ---------------------------------------
    // Queued stall s2 must be cancelled with a structured reply;
    // in-flight s1 finishes; the daemon exits 0.
    d.kill_with(SIGTERM);
    bool got_ok = false, got_cancelled = false;
    for (int i = 0; i < 2; i++) {
        std::string line;
        ASSERT_TRUE(stalls.recv_line(line, 5000))
            << "drain dropped a reply";
        Json r;
        std::string err;
        ASSERT_TRUE(json_parse(line, r, err)) << line;
        if (r.bool_or("ok", false))
            got_ok = true;
        else if (r.str_or("error", "") == "shutting_down")
            got_cancelled = true;
    }
    EXPECT_TRUE(got_ok) << "in-flight stall must complete";
    EXPECT_TRUE(got_cancelled)
        << "queued stall must be cancelled, not ghosted";

    EXPECT_EQ(d.stop(), 0) << "clean exit after drain";
}

TEST(ServeCli, RejectsGarbageLinesWithoutDying)
{
    ServeDaemon d;
    d.start(RAWCC_BIN, {"--socket", test_sock("garbage"),
                        "--workers", "1", "--queue-depth", "2"});
    ServeClient c;
    c.connect(d.endpoint());

    Json r1 = c.request("this is not json", 5000);
    EXPECT_EQ(r1.str_or("error", ""), "bad_request");
    Json r2 = c.request("[1,2,3]", 5000);
    EXPECT_EQ(r2.str_or("error", ""), "bad_request");
    Json r3 = c.request("{\"op\":\"simulate\",\"bench\":\"jacobi\","
                        "\"faults\":{\"miss_rate\":7.5}}",
                        5000);
    EXPECT_EQ(r3.str_or("error", ""), "sim_error");
    Json r4 = c.request("{\"op\":\"compile\",\"bench\":\"nope\"}",
                        5000);
    EXPECT_EQ(r4.str_or("error", ""), "compile_error");

    // Still alive and still serving after all of that.
    Json ok = c.request("{\"op\":\"compile\",\"bench\":\"life\","
                        "\"tiles\":4}",
                        15000);
    EXPECT_TRUE(ok.bool_or("ok", false));
    EXPECT_EQ(d.stop(), 0);
}

// "options" accepts exactly the compiler options serve exposes: an
// unknown key (such as the deleted route_select, modulo, which serve
// never exposed, or smart_homes, which is only a --pgo candidate)
// must be refused, not silently compiled as something else, and
// sched_iters shares the CLI's 0..16 range.
TEST(ServeCli, RejectsUnknownOptionsAndOutOfRangeSchedIters)
{
    ServeDaemon d;
    d.start(RAWCC_BIN, {"--socket", test_sock("options"),
                        "--workers", "1", "--queue-depth", "4"});
    ServeClient c;
    c.connect(d.endpoint());

    Json unknown = c.request("{\"op\":\"compile\",\"bench\":\"jacobi\","
                             "\"options\":{\"route_select\":true}}",
                             15000);
    EXPECT_EQ(unknown.str_or("error", ""), "bad_request");
    EXPECT_NE(unknown.str_or("message", "").find("route_select"),
              std::string::npos);
    Json sim = c.request("{\"op\":\"simulate\",\"bench\":\"jacobi\","
                         "\"options\":{\"mii_cap\":64}}",
                         15000);
    EXPECT_EQ(sim.str_or("error", ""), "bad_request");
    Json over = c.request("{\"op\":\"compile\",\"bench\":\"jacobi\","
                          "\"options\":{\"sched_iters\":17}}",
                          15000);
    EXPECT_EQ(over.str_or("error", ""), "bad_request");
    Json mod = c.request("{\"op\":\"compile\",\"bench\":\"jacobi\","
                         "\"options\":{\"modulo\":true}}",
                         15000);
    EXPECT_EQ(mod.str_or("error", ""), "bad_request");
    Json homes = c.request("{\"op\":\"compile\",\"bench\":\"jacobi\","
                           "\"options\":{\"smart_homes\":true}}",
                           15000);
    EXPECT_EQ(homes.str_or("error", ""), "bad_request");
    EXPECT_NE(homes.str_or("message", "").find("unknown option"),
              std::string::npos);
    Json max = c.request("{\"op\":\"compile\",\"bench\":\"jacobi\","
                         "\"options\":{\"sched_iters\":16}}",
                         15000);
    EXPECT_TRUE(max.bool_or("ok", false)) << max.str_or("message", "");

    Json st = c.request("{\"op\":\"stats\"}", 5000);
    EXPECT_EQ(st.int_or("bad_requests", -1), 5);
    EXPECT_EQ(st.int_or("compile_errors", -1), 0);
    EXPECT_EQ(d.stop(), 0);
}

// --cache-dir (the deleted on-disk schedule-cache tier) must be
// refused at startup.  `timeout` bounds the run should the daemon
// ever accept the flag and start serving instead.
TEST(ServeCli, RemovedCacheDirFlagIsUnknown)
{
    std::string cmd = std::string("timeout 10 ") + RAWCC_BIN +
                      " serve --cache-dir D --port 0"
                      " 2>&1 >/dev/null";
    FILE *f = popen(cmd.c_str(), "r");
    ASSERT_NE(f, nullptr);
    char buf[256];
    std::string err;
    while (size_t n = std::fread(buf, 1, sizeof(buf), f))
        err.append(buf, n);
    int rc = pclose(f);
    ASSERT_TRUE(WIFEXITED(rc));
    EXPECT_EQ(WEXITSTATUS(rc), 2) << err;
    EXPECT_NE(err.find("unknown flag: --cache-dir"), std::string::npos)
        << err;
}

// INT32_MIN / -1 (and % -1) used to trap the host with SIGFPE, so
// one request took the whole daemon down.  Both ops must now reply,
// and the daemon must keep serving.
TEST(ServeCli, IntMinByMinusOneKeepsTheDaemonUp)
{
    ServeDaemon d;
    d.start(RAWCC_BIN, {"--socket", test_sock("intmin"),
                        "--workers", "1", "--queue-depth", "4"});
    ServeClient c;
    c.connect(d.endpoint());

    for (const char *src :
         {"print(-2147483648 / -1);\\n",
          "int a; int b; a = -2147483648; b = -1; print(a % b);\\n"}) {
        SCOPED_TRACE(src);
        const std::string body = std::string("\"source\":\"") + src +
                                 "\",\"tiles\":1}";
        Json comp = c.request("{\"op\":\"compile\"," + body, 15000);
        EXPECT_TRUE(comp.bool_or("ok", false))
            << comp.str_or("message", "");
        Json sim = c.request("{\"op\":\"simulate\"," + body, 15000);
        EXPECT_TRUE(sim.bool_or("ok", false))
            << sim.str_or("message", "");
        EXPECT_EQ(sim.int_or("prints", -1), 1);
    }
    Json ping = c.request("{\"op\":\"ping\"}", 5000);
    EXPECT_TRUE(ping.bool_or("ok", false));
    EXPECT_EQ(d.stop(), 0);
}

// A deeply nested program is a compile_error reply, not a crash: a
// stack overflow in a worker would take the daemon and every
// connection down with it.
TEST(ServeCli, DeeplyNestedSourceIsACompileError)
{
    ServeDaemon d;
    d.start(RAWCC_BIN, {"--socket", test_sock("deep"), "--workers",
                        "1", "--queue-depth", "2"});
    ServeClient c;
    c.connect(d.endpoint());

    const std::string src = "int x; x = " + std::string(10000, '(') +
                            "1" + std::string(10000, ')') +
                            "; print(x);";
    Json r = c.request("{\"op\":\"compile\",\"tiles\":1,\"source\":\"" +
                           src + "\"}",
                       15000);
    EXPECT_EQ(r.str_or("error", ""), "compile_error");
    EXPECT_NE(r.str_or("message", "").find("nesting deeper than"),
              std::string::npos)
        << r.str_or("message", "");
    Json ping = c.request("{\"op\":\"ping\"}", 5000);
    EXPECT_TRUE(ping.bool_or("ok", false));
    EXPECT_EQ(d.stop(), 0);
}

// simulate runs the fast core unless the request names one; the
// reference core must reply with the same cycles and provenance hash.
TEST(ServeCli, SimulateDefaultsToTheFastCore)
{
    ServeDaemon d;
    d.start(RAWCC_BIN, {"--socket", test_sock("backend"),
                        "--workers", "1", "--queue-depth", "4"});
    ServeClient c;
    c.connect(d.endpoint());

    const std::string kSim =
        "{\"op\":\"simulate\",\"bench\":\"jacobi\",\"tiles\":4,"
        "\"checks\":{\"provenance\":true}";
    Json fast = c.request(kSim + "}", 15000);
    ASSERT_TRUE(fast.bool_or("ok", false))
        << fast.str_or("message", "");
    EXPECT_EQ(fast.str_or("backend", ""), "threaded");
    Json ref = c.request(kSim + ",\"backend\":\"reference\"}", 15000);
    ASSERT_TRUE(ref.bool_or("ok", false)) << ref.str_or("message", "");
    EXPECT_EQ(ref.str_or("backend", ""), "reference");
    EXPECT_EQ(ref.int_or("cycles", -1), fast.int_or("cycles", -2));
    EXPECT_EQ(ref.str_or("prov_hash", "x"), fast.str_or("prov_hash", "y"));
    Json named = c.request(kSim + ",\"backend\":\"fast\"}", 15000);
    EXPECT_EQ(named.str_or("backend", ""), "threaded");
    EXPECT_EQ(named.int_or("cycles", -1), fast.int_or("cycles", -2));

    Json bogus = c.request(kSim + ",\"backend\":\"bogus\"}", 15000);
    EXPECT_EQ(bogus.str_or("error", ""), "bad_request");
    EXPECT_NE(bogus.str_or("message", "").find("reference or fast"),
              std::string::npos);
    EXPECT_EQ(d.stop(), 0);
}

} // namespace
} // namespace serve
} // namespace raw
