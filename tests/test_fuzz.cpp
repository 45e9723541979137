/**
 * @file
 * Robustness property tests: malformed or randomly mutated inputs
 * must produce clean FatalError diagnostics — never crashes, hangs
 * or internal panics from the frontend; and randomly generated valid
 * programs must survive the whole pipeline, differentially: the same
 * results as the sequential baseline on every mesh, the reference
 * and default simulator cores in exact agreement, and a parallel
 * compile byte-identical to the serial one.
 * ctest label fuzz-smoke.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "harness/harness.hpp"
#include "sim/disasm.hpp"

namespace raw {
namespace {

/** Compile must either succeed or throw FatalError — never crash or
 *  throw PanicError (which would indicate an internal bug). */
void
expect_clean(const std::string &src)
{
    try {
        compile_source(src, MachineConfig::base(4),
                       CompilerOptions{});
    } catch (const FatalError &) {
        // Clean user-facing diagnostic: fine.
    }
}

TEST(Fuzz, MalformedPrograms)
{
    const char *cases[] = {
        "",
        ";",
        "int",
        "int ;",
        "int x = ;",
        "print();",
        "print(1)",
        "int A[]; ",
        "int A[-1];",
        "int x; x = (1 + ;",
        "if (1) { ",
        "for (;;) { }",
        "int i; for (i = 0; i < 10; j = j + 1) { }",
        "int x; x = y;",
        "float f; int i; i = f;",
        "int A[4]; A[1][2] = 3;",
        "int x; x = 5 @ 3;",
        "/* unterminated",
        "int x; x = ((((((1))))));",
        "int sqrt; sqrt = 1;", // builtin name as variable is allowed
        "int x; x = sqrt(;",
    };
    for (const char *c : cases)
        expect_clean(c);
}

/** Token-level mutations of a valid program. */
TEST(Fuzz, MutatedValidProgram)
{
    const std::string base = R"(
int A[16];
int i; int s;
for (i = 0; i < 16; i = i + 1) { A[i] = i * 3; }
s = 0;
for (i = 0; i < 16; i = i + 1) { s = s + A[i]; }
print(s);
)";
    uint64_t rng = 12345;
    auto rnd = [&](int m) {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        return static_cast<int>(rng % static_cast<uint64_t>(m));
    };
    const char glyphs[] = "(){}[];=+-*/<>!&|^%a1 ";
    for (int trial = 0; trial < 200; trial++) {
        std::string s = base;
        int edits = 1 + rnd(4);
        for (int e = 0; e < edits; e++) {
            int pos = rnd(static_cast<int>(s.size()));
            switch (rnd(4)) {
              case 0:
                s[pos] = glyphs[rnd(sizeof(glyphs) - 1)];
                break;
              case 1:
                s.erase(pos, 1);
                break;
              default:
                s.insert(s.begin() + pos,
                         glyphs[rnd(sizeof(glyphs) - 1)]);
                break;
            }
        }
        expect_clean(s);
    }
}

/** Structured random generation: always-valid programs that must
 *  compile AND verify against the baseline at 1/4/16 tiles with
 *  unroll on and off, on the reference and the default core, and
 *  compile to the same program at --jobs 4 as at --jobs 1. */
TEST(Fuzz, RandomValidProgramsVerify)
{
    uint64_t rng = 777;
    auto rnd = [&](int m) {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        return static_cast<int>(rng % static_cast<uint64_t>(m));
    };
    for (int trial = 0; trial < 32; trial++) {
        std::ostringstream os;
        os << "int A[24];\nint i; int t;\n";
        os << "for (i = 0; i < 24; i = i + 1) { A[i] = (i * "
           << (1 + rnd(9)) << ") % " << (2 + rnd(7)) << "; }\n";
        for (int k = 0; k < 3 + rnd(4); k++) {
            switch (rnd(4)) {
              case 0:
                os << "for (i = " << rnd(3) << "; i < "
                   << (10 + rnd(14)) << "; i = i + " << (1 + rnd(2))
                   << ") { A[i] = A[i] * " << (1 + rnd(4)) << " + "
                   << rnd(5) << "; }\n";
                break;
              case 1:
                os << "t = A[" << rnd(24) << "];\n"
                   << "if (t > " << rnd(6) << ") { A[" << rnd(24)
                   << "] = t - 1; } else { A[" << rnd(24)
                   << "] = t + 1; }\n";
                break;
              case 2:
                // One-armed if, body often empty: a branch whose two
                // targets coincide.
                os << "t = A[" << rnd(24) << "];\n"
                   << "if (t > " << rnd(6) << ") {";
                if (rnd(2))
                    os << " A[" << rnd(24) << "] = t + 1;";
                os << " }\n";
                break;
              default:
                os << "t = " << (3 + rnd(20)) << ";\n"
                   << "while (t > 1) { t = t - 2; }\n"
                   << "A[" << rnd(24) << "] = t;\n";
                break;
            }
        }
        os << "int cs;\ncs = 0;\n"
           << "for (i = 0; i < 24; i = i + 1) { cs = cs + A[i]; }\n"
           << "print(cs);\n";
        std::string src = os.str();
        RunResult base = run_baseline(src, "A");
        for (int n : {1, 4, 16})
            for (bool unroll : {true, false}) {
                SCOPED_TRACE("trial " + std::to_string(trial) + " n " +
                             std::to_string(n) + " unroll " +
                             std::to_string(unroll) + "\n" + src);
                const MachineConfig machine = MachineConfig::base(n);
                CompilerOptions opts;
                opts.unroll.enable = unroll;
                RunResult ref = run_rawcc(src, machine, "A", opts, {}, {},
                                          SimBackend::kReference);
                RunResult dflt = run_rawcc(src, machine, "A", opts);
                EXPECT_EQ(ref.check_words, base.check_words);
                EXPECT_EQ(ref.prints, base.prints);
                EXPECT_EQ(dflt.check_words, ref.check_words);
                EXPECT_EQ(dflt.prints, ref.prints);
                EXPECT_EQ(dflt.cycles, ref.cycles);

                CompilerOptions par = opts;
                par.orch.jobs = 4;
                EXPECT_EQ(
                    disasm_program(
                        compile_source(src, machine, par).program),
                    disasm_program(
                        compile_source(src, machine, opts).program));
            }
    }
}

} // namespace
} // namespace raw
