/**
 * @file
 * Schedule-cache tests, kept after the block-schedule cache itself was
 * deleted: what the cache had to guarantee now holds with every block
 * orchestrated afresh.  --jobs and repeat-compile identity, an earlier
 * compile never changing a later one, the PGO candidate dedupe built
 * on options_fingerprint(), and the inert surface left in
 * rawcc/schedcache.hpp (clear_memory() and always-zero counters).
 */

#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/harness.hpp"
#include "rawcc/schedcache.hpp"
#include "sim/disasm.hpp"

namespace raw {
namespace {

// Two loops plus a data-dependent branch: several blocks, small
// enough to compile fast.
const char *kProg = R"(
int A[64];
int i; int s;
for (i = 0; i < 64; i = i + 1) { A[i] = i * 3; }
s = 0;
for (i = 0; i < 64; i = i + 1) {
  if (A[i] > 90) { s = s + A[i]; }
}
print(s);
)";

CompileOutput
compile_with(const char *src, CompilerOptions opts)
{
    return compile_source(src, MachineConfig::base(4), opts);
}

// The surface perfbench still compiles against: emptying the cache
// changes nothing and the counters read zero on every compile.
TEST(SchedCache, RemnantIsInert)
{
    CompilerOptions opts;
    CompileOutput first = compile_with(kProg, opts);
    EXPECT_EQ(first.stats.cache.hits(), 0);
    EXPECT_EQ(first.stats.cache.misses(), 0);

    CompileOutput again = compile_with(kProg, opts);
    EXPECT_EQ(again.stats.cache.hits(), 0);
    EXPECT_EQ(again.stats.cache.misses(), 0);
    EXPECT_EQ(disasm_program(again.program),
              disasm_program(first.program));

    SchedCache::instance().clear_memory();
    CompileOutput cleared = compile_with(kProg, opts);
    EXPECT_EQ(cleared.stats.cache.hits(), 0);
    EXPECT_EQ(cleared.stats.cache.misses(), 0);
    EXPECT_EQ(disasm_program(cleared.program),
              disasm_program(first.program));
}

TEST(SchedCache, ParallelJobsMatchSerial)
{
    const std::string base =
        disasm_program(compile_with(kProg, {}).program);
    for (int jobs : {2, 4}) {
        CompilerOptions par;
        par.orch.jobs = jobs;
        EXPECT_EQ(disasm_program(compile_with(kProg, par).program), base)
            << "jobs=" << jobs;
    }
}

// An earlier compile in the same process must never change a later
// one.  The empty-if program has a block whose two branch targets
// coincide; the cache once shared its schedule with the full-if
// program's block and dropped a branch role, so the full-if program
// printed 3, not 4.
TEST(SchedCache, EarlierCompileNeverChangesLater)
{
    const char *empty_if = R"(
int A[8]; int i; int t;
for (i = 0; i < 8; i = i + 1) { A[i] = i; }
t = A[3];
if (t > 2) { }
print(t);
)";
    const char *full_if = R"(
int A[8]; int i; int t;
for (i = 0; i < 8; i = i + 1) { A[i] = i; }
t = A[3];
if (t > 2) { t = t + 1; }
print(t);
)";
    for (int n : {1, 4}) {
        const MachineConfig m = MachineConfig::base(n);
        const std::string alone =
            disasm_program(compile_source(full_if, m, {}).program);
        EXPECT_EQ(run_rawcc(empty_if, m).prints, "3\n") << n;
        EXPECT_EQ(run_rawcc(full_if, m).prints, "4\n") << n;
        EXPECT_EQ(disasm_program(compile_source(full_if, m, {}).program),
                  alone)
            << n;
    }
}

TEST(SchedCache, PgoCandidatesDuplicateFree)
{
    CompilerOptions base;
    base.pgo = true;
    CompilerOptions plain = base;
    plain.pgo = false;

    // The race order: plain, crit 8, priorities (16,0) and (2,1),
    // voted homes, peel x4.
    std::vector<CompilerOptions> want(6, plain);
    want[1].orch.partition.crit_weight = 8;
    want[2].orch.sched.level_weight = 16;
    want[2].orch.sched.fertility_weight = 0;
    want[3].orch.sched.level_weight = 2;
    want[3].orch.sched.fertility_weight = 1;
    want[4].smart_homes = true;
    want[5].unroll.small_peel_limit *= 4;
    want[5].unroll.forced_peel_limit *= 4;

    std::vector<CompilerOptions> cands = pgo_candidates(base);
    ASSERT_EQ(cands.size(), want.size());
    std::set<std::string> seen;
    for (size_t i = 0; i < cands.size(); i++) {
        EXPECT_FALSE(cands[i].pgo);
        EXPECT_EQ(options_fingerprint(cands[i]),
                  options_fingerprint(want[i]))
            << "candidate " << i;
        EXPECT_TRUE(seen.insert(options_fingerprint(cands[i])).second)
            << "duplicate candidate fingerprint";
    }

    // A base that already carries a portfolio knob collapses the
    // matching candidate instead of racing it twice.
    CompilerOptions pre = base;
    pre.orch.partition.crit_weight = 8;
    EXPECT_LT(pgo_candidates(pre).size(), cands.size());
}

TEST(SchedCache, FingerprintTracksEffectiveOptions)
{
    CompilerOptions a;
    CompilerOptions b;
    EXPECT_EQ(options_fingerprint(a), options_fingerprint(b));
    // Knobs that only change how the compiler runs leave it alone...
    b.verify_ir = !b.verify_ir;
    b.pgo = !b.pgo;
    b.orch.jobs = 8;
    EXPECT_EQ(options_fingerprint(a), options_fingerprint(b));
    // ...every program-affecting knob does.
    b.orch.sched.sched_iters = 5;
    EXPECT_NE(options_fingerprint(a), options_fingerprint(b));
    b = a;
    b.orch.partition.seed = 99;
    EXPECT_NE(options_fingerprint(a), options_fingerprint(b));
    b = a;
    b.unroll.small_peel_limit *= 2;
    EXPECT_NE(options_fingerprint(a), options_fingerprint(b));
    b = a;
    b.smart_homes = true;
    EXPECT_NE(options_fingerprint(a), options_fingerprint(b));
}

} // namespace
} // namespace raw
