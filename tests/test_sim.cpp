/**
 * @file
 * Simulator tests: port FIFO semantics, memory interleaving,
 * hand-assembled processor/switch programs, blocking semantics,
 * dynamic network, deadlock detection, fault injection determinism.
 */

#include <gtest/gtest.h>

#include "harness/harness.hpp"
#include "sim/disasm.hpp"
#include "sim/simulator.hpp"

namespace raw {
namespace {

TEST(Fifo, VisibilityIsOneCycleDelayed)
{
    Fifo f(2);
    EXPECT_FALSE(f.can_pop(0));
    EXPECT_TRUE(f.can_push(0));
    f.push(0, 7);
    // Same cycle: the pushed word is not yet visible.
    EXPECT_FALSE(f.can_pop(0));
    EXPECT_TRUE(f.can_pop(1));
    EXPECT_EQ(f.pop(1), 7u);
}

TEST(Fifo, SteadyStateOneWordPerCycle)
{
    Fifo f(2);
    int delivered = 0;
    uint32_t next_push = 0, expect_pop = 0;
    for (int64_t cycle = 0; cycle < 20; cycle++) {
        if (f.can_pop(cycle)) {
            EXPECT_EQ(f.pop(cycle), expect_pop++);
            delivered++;
        }
        if (f.can_push(cycle))
            f.push(cycle, next_push++);
    }
    EXPECT_GE(delivered, 18) << "sustains ~1 word/cycle";
}

TEST(Fifo, CapacityBounds)
{
    Fifo f(2);
    f.push(0, 1);
    f.push(0, 2);
    EXPECT_FALSE(f.can_push(0));
    EXPECT_FALSE(f.can_push(1)) << "still full";
    EXPECT_EQ(f.pop(1), 1u);
    // Space freed by a pop becomes visible at the next cycle edge
    // (registered ports), not within the same cycle.
    EXPECT_FALSE(f.can_push(1));
    EXPECT_TRUE(f.can_push(2));
}

TEST(Fifo, RingWrapsAtFullCapacity)
{
    // Fill, drain, and refill across the ring seam at max capacity.
    Fifo f(4);
    int64_t cycle = 0;
    for (uint32_t round = 0; round < 3; round++) {
        for (uint32_t i = 0; i < 4; i++)
            f.push(cycle, round * 10 + i);
        cycle++;
        for (uint32_t i = 0; i < 4; i++)
            EXPECT_EQ(f.pop(cycle), round * 10 + i);
        cycle++;
    }
    EXPECT_TRUE(f.empty());
}

TEST(Fifo, CycleJumpsActLikeElapsedCycles)
{
    // The quiescence fast-forward advances `now` by many cycles at
    // once; the FIFO must treat a jump exactly like that many idle
    // cycles (counters reset, contents intact).
    Fifo f(2);
    f.push(3, 9);
    EXPECT_FALSE(f.can_pop(3));
    EXPECT_TRUE(f.can_pop(1000));
    EXPECT_EQ(f.pop(1000), 9u);
    f.push(1000, 10);
    EXPECT_FALSE(f.can_pop(1000));
    EXPECT_EQ(f.pop(2000), 10u);
}

TEST(Memory, LowOrderInterleaving)
{
    MemorySystem mem(4, 64, {0, 0, 0, 0});
    EXPECT_EQ(mem.home_of(0), 0);
    EXPECT_EQ(mem.home_of(5), 1);
    EXPECT_EQ(mem.home_of(7), 3);
    EXPECT_EQ(mem.local_of(9), 2);
    mem.write_global(13, 0xABCD);
    EXPECT_EQ(mem.read_global(13), 0xABCDu);
    EXPECT_EQ(mem.read_local(1, 3), 0xABCDu);
}

TEST(Memory, SpillRegionIsPrivate)
{
    MemorySystem mem(2, 8, {4, 4});
    mem.write_spill(0, 2, 111);
    mem.write_spill(1, 2, 222);
    EXPECT_EQ(mem.read_spill(0, 2), 111u);
    EXPECT_EQ(mem.read_spill(1, 2), 222u);
    EXPECT_THROW(mem.read_spill(0, 9), PanicError);
}

// A shared access past the interleaved region is the program's
// fault (FatalError naming the address); a bad tile stays a panic.
TEST(Memory, OutOfRangeSharedAccessIsFatal)
{
    MemorySystem mem(4, 16, {0, 0, 0, 0});
    try {
        mem.read_local(1, 4);
        ADD_FAILURE() << "read past the region did not throw";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("at address 17"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_THROW(mem.write_local(0, -1, 7), FatalError);
    EXPECT_THROW(mem.write_global(16, 7), FatalError);
    EXPECT_THROW(mem.read_local(4, 0), PanicError);
}

// A run-time subscript outside its array (the rolled loop keeps the
// compiler from folding it) fails the run with the per-array
// FatalError under both cores, for RAWCC at 1, 4 and 16 tiles and
// for the sequential baseline.  Bounding only the whole interleaved
// region would miss both cases at 4 and 16 tiles (padding) and the
// negative one everywhere (it reads `b`).
TEST(Memory, RunTimeSubscriptOutOfRangeIsFatal)
{
    struct Case
    {
        const char *src;
        const char *msg;
    };
    const Case cases[] = {
        {"int a[4]; int i;\n"
         "for (i = 0; i < 4; i = i + 1) { a[i] = 1; }\n"
         "for (i = 0; i < 4; i = i + 1) { print(a[i + 2]); }\n",
         "subscript 4 out of range for 'a' (extent 4)"},
        {"int b[4]; int a[4]; int i;\n"
         "for (i = 0; i < 4; i = i + 1) { b[i] = 7; a[i] = 1; }\n"
         "for (i = 0; i < 4; i = i + 1) { print(a[i - 2]); }\n",
         "subscript -2 out of range for 'a' (extent 4)"},
    };
    CompilerOptions rolled;
    rolled.unroll.enable = false;
    for (const Case &c : cases) {
        std::vector<CompiledProgram> programs;
        for (int n : {1, 4, 16})
            programs.push_back(
                compile_source(c.src, MachineConfig::base(n), rolled)
                    .program);
        programs.push_back(compile_baseline(c.src).program);
        for (const CompiledProgram &prog : programs)
            for (SimBackend b :
                 {SimBackend::kReference, SimBackend::kThreaded}) {
                SCOPED_TRACE(std::string(c.msg) + ", " +
                             std::to_string(prog.machine.n_tiles) +
                             " tiles, " + sim_backend_name(b));
                Simulator sim(prog, {}, {}, b);
                try {
                    sim.run();
                    ADD_FAILURE() << "out-of-range access ran to "
                                     "completion";
                } catch (const FatalError &e) {
                    EXPECT_NE(std::string(e.what()).find(c.msg),
                              std::string::npos)
                        << e.what();
                }
            }
    }
}

// ---------------------------------------------------------------
// Hand-assembled machine programs.

PInstr
pi(Op op, int dst = -1, int a = -1, int b = -1)
{
    PInstr p;
    p.op = op;
    p.dst = dst;
    p.src[0] = a;
    p.src[1] = b;
    return p;
}

CompiledProgram
skeleton(int n)
{
    CompiledProgram cp;
    cp.machine = MachineConfig::base(n);
    cp.tiles.resize(n);
    cp.switches.resize(n);
    cp.total_words = 16;
    return cp;
}

TEST(Processor, ArithmeticAndPrint)
{
    CompiledProgram cp = skeleton(1);
    PInstr c = pi(Op::kConst, 1);
    c.imm = int_bits(6);
    cp.tiles[0].code = {c, pi(Op::kMul, 2, 1, 1), pi(Op::kPrint, -1, 2),
                        pi(Op::kHalt)};
    cp.tiles[0].code[2].print_seq = 0;
    Simulator sim(cp);
    SimResult r = sim.run();
    ASSERT_EQ(r.prints.size(), 1u);
    EXPECT_EQ(bits_int(r.prints[0].bits), 36);
    // const(1) + mul issues at 1, result at 13, print at 13, halt.
    EXPECT_GE(r.cycles, 14);
}

TEST(Processor, ScoreboardStallsOnLatency)
{
    // Dependent MULs cost 12 cycles each; independent ones pipeline.
    CompiledProgram dep = skeleton(1);
    PInstr c = pi(Op::kConst, 1);
    c.imm = int_bits(3);
    dep.tiles[0].code = {c, pi(Op::kMul, 2, 1, 1),
                         pi(Op::kMul, 3, 2, 2), pi(Op::kHalt)};
    CompiledProgram indep = skeleton(1);
    indep.tiles[0].code = {c, pi(Op::kMul, 2, 1, 1),
                           pi(Op::kMul, 3, 1, 1), pi(Op::kHalt)};
    Simulator s1(dep), s2(indep);
    int64_t c1 = s1.run().cycles;
    int64_t c2 = s2.run().cycles;
    EXPECT_GT(c1, c2 + 8) << "dependent chain must stall";
}

TEST(Processor, StoreAndLoadRoundTrip)
{
    CompiledProgram cp = skeleton(1);
    cp.arrays.push_back({"A", Type::kI32, 0, 8});
    cp.total_words = 8;
    PInstr addr = pi(Op::kConst, 1);
    addr.imm = int_bits(5);
    PInstr val = pi(Op::kConst, 2);
    val.imm = int_bits(99);
    PInstr st = pi(Op::kStore, -1, 1, 2);
    st.array = 0;
    PInstr ld = pi(Op::kLoad, 3, 1);
    ld.array = 0;
    PInstr pr = pi(Op::kPrint, -1, 3);
    pr.print_seq = 0;
    cp.tiles[0].code = {addr, val, st, ld, pr, pi(Op::kHalt)};
    Simulator sim(cp);
    SimResult r = sim.run();
    EXPECT_EQ(bits_int(r.prints[0].bits), 99);
    EXPECT_EQ(sim.read_array("A")[5], int_bits(99));
}

TEST(Switch, RouteMovesWordBetweenTiles)
{
    CompiledProgram cp = skeleton(2);
    PInstr c = pi(Op::kConst, 1);
    c.imm = int_bits(42);
    cp.tiles[0].code = {c, pi(Op::kSend, -1, 1), pi(Op::kHalt)};
    PInstr pr = pi(Op::kPrint, -1, 2);
    pr.print_seq = 0;
    cp.tiles[1].code = {pi(Op::kRecv, 2), pr, pi(Op::kHalt)};
    SInstr r0;
    r0.k = SInstr::K::kRoute;
    r0.routes = {{Dir::kProc,
                  static_cast<uint8_t>(1u << static_cast<int>(
                                           Dir::kEast)),
                  -1}};
    SInstr r1;
    r1.k = SInstr::K::kRoute;
    r1.routes = {{Dir::kWest,
                  static_cast<uint8_t>(1u << static_cast<int>(
                                           Dir::kProc)),
                  -1}};
    SInstr h;
    h.k = SInstr::K::kHalt;
    cp.switches[0].code = {r0, h};
    cp.switches[1].code = {r1, h};
    Simulator sim(cp);
    SimResult r = sim.run();
    EXPECT_EQ(bits_int(r.prints[0].bits), 42);
}

TEST(Switch, BlockingRouteWaitsForWord)
{
    // The switch's route comes long before the processor sends; the
    // route must simply wait (near-neighbor flow control).
    CompiledProgram cp = skeleton(2);
    PInstr c = pi(Op::kConst, 1);
    c.imm = int_bits(5);
    PInstr slow = pi(Op::kDiv, 2, 1, 1); // 35 cycles
    cp.tiles[0].code = {c, slow, pi(Op::kSend, -1, 2), pi(Op::kHalt)};
    PInstr pr = pi(Op::kPrint, -1, 2);
    pr.print_seq = 0;
    cp.tiles[1].code = {pi(Op::kRecv, 2), pr, pi(Op::kHalt)};
    SInstr r0;
    r0.k = SInstr::K::kRoute;
    r0.routes = {{Dir::kProc,
                  static_cast<uint8_t>(1u << static_cast<int>(
                                           Dir::kEast)),
                  -1}};
    SInstr r1;
    r1.k = SInstr::K::kRoute;
    r1.routes = {{Dir::kWest,
                  static_cast<uint8_t>(1u << static_cast<int>(
                                           Dir::kProc)),
                  -1}};
    SInstr h;
    h.k = SInstr::K::kHalt;
    cp.switches[0].code = {r0, h};
    cp.switches[1].code = {r1, h};
    Simulator sim(cp);
    SimResult r = sim.run();
    EXPECT_EQ(bits_int(r.prints[0].bits), 1);
    EXPECT_GT(r.cycles, 35);
}

TEST(Switch, AluAndBranch)
{
    // Switch counts 0,1,2 in a register and loops over a route
    // three times.
    CompiledProgram cp = skeleton(2);
    PInstr c = pi(Op::kConst, 1);
    c.imm = int_bits(1);
    cp.tiles[0].code = {c,
                        pi(Op::kSend, -1, 1),
                        pi(Op::kSend, -1, 1),
                        pi(Op::kSend, -1, 1),
                        pi(Op::kHalt)};
    PInstr pr = pi(Op::kPrint, -1, 3);
    pr.print_seq = 0;
    cp.tiles[1].code = {pi(Op::kRecv, 2), pi(Op::kRecv, 2),
                        pi(Op::kRecv, 3), pr, pi(Op::kHalt)};
    // Switch 0: $1 = 3; L: route P->E; $1 = $1 - 1... using kAlu.
    SInstr init;
    init.k = SInstr::K::kAlu;
    init.op = Op::kConst;
    init.dst = 1;
    init.imm = int_bits(3);
    SInstr dec;
    dec.k = SInstr::K::kAlu;
    dec.op = Op::kConst;
    dec.dst = 2;
    dec.imm = int_bits(1);
    SInstr route;
    route.k = SInstr::K::kRoute;
    route.routes = {{Dir::kProc,
                     static_cast<uint8_t>(1u << static_cast<int>(
                                              Dir::kEast)),
                     -1}};
    SInstr sub;
    sub.k = SInstr::K::kAlu;
    sub.op = Op::kSub;
    sub.dst = 1;
    sub.a = 1;
    sub.b = 2;
    SInstr bnz;
    bnz.k = SInstr::K::kBnez;
    bnz.cond = 1;
    bnz.target = 2;
    SInstr h;
    h.k = SInstr::K::kHalt;
    cp.switches[0].code = {init, dec, route, sub, bnz, h};
    SInstr r1;
    r1.k = SInstr::K::kRoute;
    r1.routes = {{Dir::kWest,
                  static_cast<uint8_t>(1u << static_cast<int>(
                                           Dir::kProc)),
                  -1}};
    cp.switches[1].code = {r1, r1, r1, h};
    Simulator sim(cp);
    SimResult r = sim.run();
    EXPECT_EQ(bits_int(r.prints[0].bits), 1);
}

TEST(Simulator, DeadlockDetected)
{
    // Two processors that both receive before sending: classic cycle.
    CompiledProgram cp = skeleton(2);
    cp.tiles[0].code = {pi(Op::kRecv, 1), pi(Op::kSend, -1, 1),
                        pi(Op::kHalt)};
    cp.tiles[1].code = {pi(Op::kRecv, 1), pi(Op::kSend, -1, 1),
                        pi(Op::kHalt)};
    SInstr r0;
    r0.k = SInstr::K::kRoute;
    r0.routes = {{Dir::kProc,
                  static_cast<uint8_t>(1u << static_cast<int>(
                                           Dir::kEast)),
                  -1}};
    SInstr r0b;
    r0b.k = SInstr::K::kRoute;
    r0b.routes = {{Dir::kEast,
                   static_cast<uint8_t>(1u << static_cast<int>(
                                            Dir::kProc)),
                   -1}};
    SInstr h;
    h.k = SInstr::K::kHalt;
    cp.switches[0].code = {r0b, r0, h};
    SInstr r1;
    r1.k = SInstr::K::kRoute;
    r1.routes = {{Dir::kProc,
                  static_cast<uint8_t>(1u << static_cast<int>(
                                           Dir::kWest)),
                  -1}};
    SInstr r1b;
    r1b.k = SInstr::K::kRoute;
    r1b.routes = {{Dir::kWest,
                   static_cast<uint8_t>(1u << static_cast<int>(
                                            Dir::kProc)),
                   -1}};
    cp.switches[1].code = {r1b, r1, h};
    Simulator sim(cp);
    EXPECT_THROW(sim.run(), DeadlockError);
}

TEST(Simulator, DynamicNetworkRoundTrip)
{
    // A load whose home is the other tile goes over the dynamic
    // network: request, handler service, reply.
    CompiledProgram cp = skeleton(2);
    cp.arrays.push_back({"A", Type::kI32, 0, 8});
    cp.total_words = 8;
    // Tile 1 owns odd addresses; tile 0 reads A[3].
    PInstr addr = pi(Op::kConst, 1);
    addr.imm = int_bits(3);
    PInstr val = pi(Op::kConst, 2);
    val.imm = int_bits(77);
    PInstr st = pi(Op::kDynStore, -1, 1, 2);
    st.array = 0;
    PInstr ld = pi(Op::kDynLoad, 3, 1);
    ld.array = 0;
    PInstr pr = pi(Op::kPrint, -1, 3);
    pr.print_seq = 0;
    cp.tiles[0].code = {addr, val, st, ld, pr, pi(Op::kHalt)};
    cp.tiles[1].code = {pi(Op::kHalt)};
    Simulator sim(cp);
    SimResult r = sim.run();
    EXPECT_EQ(bits_int(r.prints[0].bits), 77);
    EXPECT_EQ(r.dyn_messages, 2);
    EXPECT_EQ(sim.memory().read_global(3), int_bits(77));
}

TEST(Simulator, FaultInjectionDeterministicPerSeed)
{
    CompiledProgram cp = skeleton(1);
    cp.arrays.push_back({"A", Type::kI32, 0, 8});
    cp.total_words = 8;
    std::vector<PInstr> code;
    PInstr addr = pi(Op::kConst, 1);
    addr.imm = int_bits(2);
    code.push_back(addr);
    for (int i = 0; i < 20; i++) {
        PInstr ld = pi(Op::kLoad, 2, 1);
        ld.array = 0;
        code.push_back(ld);
        code.push_back(pi(Op::kAdd, 3, 2, 2));
    }
    code.push_back(pi(Op::kHalt));
    cp.tiles[0].code = code;

    FaultConfig f;
    f.miss_rate = 0.5;
    f.penalty = 13;
    f.seed = 99;
    Simulator s1(cp, f), s2(cp, f);
    EXPECT_EQ(s1.run().cycles, s2.run().cycles);
    FaultConfig f2 = f;
    f2.seed = 100;
    Simulator s3(cp, f2);
    Simulator s4(cp, FaultConfig{});
    int64_t faulty = s3.run().cycles;
    int64_t clean = s4.run().cycles;
    EXPECT_GT(faulty, clean);
}

TEST(Disasm, RendersEveryKind)
{
    CompiledProgram cp = skeleton(2);
    cp.arrays.push_back({"A", Type::kI32, 0, 8});
    PInstr c = pi(Op::kConst, 1);
    c.imm = int_bits(7);
    PInstr ld = pi(Op::kLoad, 2, 1);
    ld.array = 0;
    PInstr sp = pi(Op::kLoad, 3, -1);
    sp.array = kSpillArray;
    sp.imm = 4;
    cp.tiles[0].code = {c, ld, sp, pi(Op::kSend, -1, 2),
                        pi(Op::kHalt)};
    SInstr route;
    route.k = SInstr::K::kRoute;
    route.routes = {{Dir::kProc,
                     static_cast<uint8_t>(1u << static_cast<int>(
                                              Dir::kEast)),
                     0}};
    cp.switches[0].code = {route};
    std::string text = disasm_program(cp);
    EXPECT_NE(text.find("load A[r1]"), std::string::npos);
    EXPECT_NE(text.find("spill[4]"), std::string::npos);
    EXPECT_NE(text.find("send r2"), std::string::npos);
    EXPECT_NE(text.find("route P->E$0"), std::string::npos);
}

} // namespace
} // namespace raw
