#include "sim/simulator.hpp"

#include <algorithm>
#include <queue>

#include "ir/eval.hpp"

/**
 * @file
 * Threaded-code simulator backend (SimBackend::kThreaded).
 *
 * The reference core (processor.cpp / switch.cpp) re-decodes every
 * instruction's operand kinds on every cycle and steps every live
 * unit even when it is provably stalled.  This backend removes both
 * costs while preserving bit-identical semantics:
 *
 *  - Pre-decoding: each tile's processor and switch streams are
 *    translated once into flat handler records (PRec / SRec) with
 *    operand kinds, latencies, array bases and extents, route FIFO
 *    pointers and opcode classes resolved at decode time, and
 *    dispatched by one dense switch over the record kind.  Records
 *    are 1:1 with instruction indices, so pcs, branch targets and
 *    checker provenance keys are unchanged.
 *
 *  - Sleep/wake: a unit that blocks *durably* on a port FIFO (the
 *    counterparty has not acted this cycle, so the condition cannot
 *    clear next cycle) or on a scoreboard deadline goes to sleep.
 *    Port FIFOs are single-reader/single-writer, so the counterparty
 *    wakes it on the push/pop that unblocks it; scoreboard sleepers
 *    sit in a time wheel.  A sleeping unit would have repeated the
 *    same stall category every cycle, so its whole sleep span is
 *    accounted in one batch on wake-up — SimProfile sums stay exact.
 *    Units whose stall re-draws RNG every cycle (clock jitter) or
 *    whose wake is not event-visible (dynamic-network waits, injected
 *    route holds) never sleep; they spin exactly like the reference.
 *    Awake units live in per-plane bitmasks scanned in ascending
 *    tile order with a live cursor, so a cycle's cost scales with
 *    the number of awake units, not the machine size, while keeping
 *    the reference's visit order.  The hottest aggregate counters
 *    are batched in ThreadedState and folded into SimResult before
 *    any exit path can observe them, and per-tile state is reached
 *    through pointers resolved once at decode (HotP / HotS).
 *
 *  - Sprint: when exactly one processor is awake and the network is
 *    empty, its straight-line records execute in a tight loop, one
 *    instruction per cycle, without the per-cycle machine scaffolding.
 *
 * Equivalence with the reference backend (cycles, prints, profile
 * sums, provenance hashes) is pinned by tests/test_sim_backend.cpp
 * and the rawcc --sim-diff mode.  A DeadlockError thrown here never
 * reaches the caller: Simulator::run re-runs the program on the
 * reference core and throws that report instead, so the detection
 * cycle in what() is the reference core's on every backend.
 */

namespace raw {

namespace {

/** May these two switch opcodes dual-issue (mirror of switch.cpp)? */
bool
dual_issue_pair_k(SInstr::K a, SInstr::K b)
{
    return (a == SInstr::K::kAlu && b == SInstr::K::kRoute) ||
           (a == SInstr::K::kRoute && b == SInstr::K::kAlu);
}

constexpr const char *kUbMsg =
    "threaded backend: instruction relies on undefined "
    "reference-simulator behavior (register index out of range)";

} // namespace

struct ThreadedState
{
    // ---- pre-decoded processor records -------------------------------
    enum PK : uint8_t {
        kConstReg = 0, ///< regs[dst] = imm
        kConstPort,    ///< push imm into p2s
        kSend,         ///< push reg/zero into p2s
        kRecv,         ///< pop s2p into reg / discard
        kLoadArr,      ///< static array load (reg addr, reg dst)
        kLoadSpill,    ///< spill-slot load
        kStoreArr,     ///< static array store (value may be a port)
        kStoreSpill,   ///< spill-slot store (value may be a port)
        kDyn,          ///< kDynLoad / kDynStore
        kPrint,        ///< print reg or port word
        kJump,
        kBranch,
        kHaltP,
        kAluRR,        ///< computational, register operands only
        kAluGen,       ///< computational with port operands
        kTrapP,        ///< pc ran off the end of the stream
        kBadP,         ///< undefined-in-reference pattern
    };
    static constexpr uint8_t PF_SPRINT = 1; ///< solo fast-path eligible

    struct PRec
    {
        uint8_t k = kBadP;
        uint8_t flags = 0;
        Op op = Op::kHalt;
        Type type = Type::kI32;
        uint8_t cls = 0; ///< op_class(op)
        uint8_t ns = 0;  ///< op_num_srcs (kAluGen)
        int32_t dst = -1;
        int32_t s0 = -1; ///< reg index, kPortOperand, or -1
        int32_t s1 = -1;
        int32_t lat = 1; ///< result latency (ALU/load base)
        uint32_t imm = 0;
        uint32_t ext = 0; ///< array extent (kLoadArr/kStoreArr/kDyn)
        int64_t a = 0; ///< array base / branch target / print_seq
    };
    // ext sits in the padding after imm: the record stays 40 bytes.
    static_assert(sizeof(PRec) == 40);

    // ---- pre-decoded switch records ----------------------------------
    enum SK : uint8_t {
        kRoute1 = 0, ///< 1 pair, 1 out, no reg latch, no checker
        kRouteN,     ///< general ROUTE (checker hooks included)
        kSAluC,      ///< regs[dst] = imm
        kSAluOp,     ///< regs[dst] = op(a, b)
        kSBnez,
        kSJump,
        kSHalt,
        kSTrap,
        kSBad,
    };

    /** Who to wake after touching a FIFO (tile < 0: nobody). */
    struct SWake
    {
        int16_t tile = -1;
        uint8_t proc = 0; ///< 1 = processor, 0 = switch
    };
    struct SOut
    {
        Fifo *f = nullptr;
        SWake w;
        uint8_t dir = 0; ///< Dir value (checker key)
    };
    struct SPair
    {
        Fifo *src = nullptr;
        SWake w;            ///< writer of src (woken on pop)
        uint8_t in_dir = 0; ///< Dir value (checker key)
        int16_t nb = -1;    ///< neighbor tile for link inputs
        int16_t reg_dst = -1;
        int32_t ob = 0, oe = 0; ///< out-pool range
    };
    struct SRec
    {
        uint8_t k = kSBad;
        uint8_t dual = 0; ///< may dual-issue with the next record
        Op op = Op::kAdd;
        int16_t dst = -1, a = -1, b = -1, cond = -1;
        uint32_t imm = 0;
        int64_t target = 0;
        int32_t pb = 0, pe = 0; ///< pair-pool range
        /**
         * kRoute1 fast path: its single pair and out resolved at
         * decode, so the hot route needs no pair/out-pool loads.
         * FIFO addresses are stable (sized in the Simulator ctor).
         */
        Fifo *src = nullptr, *out = nullptr;
        SWake wsrc, wout;
    };

    enum UnitState : uint8_t { kAsleep = 0, kAwake = 1, kHalted = 2 };

    /**
     * Per-tile hot pointers resolved once after decode, so the step
     * functions touch no std::vector headers on the critical path.
     * All targets are sized in the Simulator constructor (register
     * files, FIFOs, profile tiles) or frozen at decode (records), so
     * the pointers stay valid for the life of the run.
     */
    struct HotP
    {
        const PRec *code = nullptr;
        uint32_t *regs = nullptr;
        int64_t *busy = nullptr;
        Fifo *p2s = nullptr, *s2p = nullptr;
        Simulator::Proc *p = nullptr;
        TileProfile *prof = nullptr;
    };
    struct HotS
    {
        const SRec *code = nullptr;
        Simulator::Sw *sw = nullptr;
        TileProfile *prof = nullptr;
        int64_t *stalls = nullptr; ///< prof->route_stalls.data()
    };

    struct SleepP
    {
        int64_t begin = -1; ///< first unaccounted cycle (-1: none)
        ProcCycle cat = ProcCycle::kIdle;
    };
    struct SleepS
    {
        int64_t begin = -1;
        SwitchCycle cat = SwitchCycle::kIdle;
        int64_t pc = 0; ///< route_stalls index frozen during sleep
    };

    explicit ThreadedState(Simulator &sim)
        : S(sim), n(sim.prog_.machine.n_tiles)
    {
    }

    Simulator &S;
    const int n;
    bool jitter_on = false;
    bool trace_ = false;
    bool route_fault_on = false;

    std::vector<std::vector<PRec>> pcode;
    std::vector<std::vector<SRec>> scode;
    std::vector<SPair> pairs;
    std::vector<SOut> souts;
    std::vector<HotP> hp;
    std::vector<HotS> hs;

    std::vector<uint8_t> p_state, s_state;
    /** Awake-unit bitmasks mirroring p_state/s_state == kAwake. */
    std::vector<uint64_t> p_mask, s_mask;
    std::vector<SleepP> p_sleep;
    std::vector<SleepS> s_sleep;
    int awake_procs = 0, awake_sw = 0;
    int live_procs = 0, live_sw = 0;
    /**
     * Batched mirrors of the hottest SimResult aggregates; folded into
     * S.stats_ by flush_counters() before any code can observe them
     * (run exit).
     */
    int64_t c_instrs = 0, c_sw_instrs = 0, c_words = 0, c_pstall = 0;
    /**
     * Batched mirror of S.progress_ for unit steps (it shares the
     * hot counter line); the dyn planes still set S.progress_.
     */
    bool prog_ = false;
    /**
     * Time wheel (lazy deletion): scoreboard deadlines of sleeping
     * processors, keyed by tile.
     */
    std::priority_queue<std::pair<int64_t, int>,
                        std::vector<std::pair<int64_t, int>>,
                        std::greater<>>
        wheel;

    // ---- awake-unit bitmask helpers ----------------------------------
    static inline int
    ctz64(uint64_t v)
    {
#if defined(__GNUC__) || defined(__clang__)
        return __builtin_ctzll(v);
#else
        int c = 0;
        while (!(v & 1)) {
            v >>= 1;
            c++;
        }
        return c;
#endif
    }
    static inline void
    mask_set(std::vector<uint64_t> &m, int t)
    {
        m[t >> 6] |= uint64_t(1) << (t & 63);
    }
    static inline void
    mask_clr(std::vector<uint64_t> &m, int t)
    {
        m[t >> 6] &= ~(uint64_t(1) << (t & 63));
    }
    /**
     * Smallest set bit strictly after @p after (-1 to start), or -1.
     * Reads the live mask, so the ascending scan in run() sees units
     * woken at or ahead of the cursor this cycle and skips units woken
     * behind it — exactly the visit-time state check it replaces.
     */
    static inline int
    mask_next(const std::vector<uint64_t> &m, int after)
    {
        int w = (after + 1) >> 6;
        const int nw = static_cast<int>(m.size());
        if (w >= nw)
            return -1;
        uint64_t bits = m[w] & (~uint64_t(0) << ((after + 1) & 63));
        while (!bits) {
            if (++w >= nw)
                return -1;
            bits = m[w];
        }
        return (w << 6) + ctz64(bits);
    }

    /**
     * Global address of array record @p r (kLoadArr/kStoreArr/kDyn)
     * at subscript word @p w on processor @p t; fatal on a subscript
     * outside the array.  A negative subscript is a word >= 2^31, so
     * one unsigned compare against r.ext bounds both ends.
     */
    int64_t
    array_addr(const PRec &r, int t, uint32_t w) const
    {
        if (w >= r.ext) {
            const PInstr &in = S.prog_.tiles[t].code[S.procs_[t].pc];
            subscript_out_of_range(S.prog_.arrays[in.array], bits_int(w));
        }
        return r.a + bits_int(w);
    }

    /** Fold the batched aggregates into S.stats_. */
    inline void
    flush_counters()
    {
        S.stats_.instrs_executed += c_instrs;
        S.stats_.switch_instrs_executed += c_sw_instrs;
        S.stats_.words_routed += c_words;
        S.stats_.proc_stall_cycles += c_pstall;
        c_instrs = c_sw_instrs = c_words = c_pstall = 0;
    }

    // ---- accounting (inline mirrors of Simulator::account_*) ---------
    inline void
    acct_proc(TileProfile *prof, int t, int64_t now, ProcCycle c)
    {
        if (trace_) {
            S.account_proc(t, now, c);
            return;
        }
        prof->proc_cycles[static_cast<int>(c)]++;
        S.last_proc_cat_[t] = c;
    }
    inline void
    acct_sw(TileProfile *prof, int t, int64_t now, SwitchCycle c)
    {
        if (trace_) {
            S.account_switch(t, now, c);
            return;
        }
        prof->switch_cycles[static_cast<int>(c)]++;
        S.last_sw_cat_[t] = c;
    }
    inline void
    stall_p(TileProfile *prof, int t, int64_t now, ProcCycle c)
    {
        c_pstall++;
        acct_proc(prof, t, now, c);
    }

    // ---- sleep / wake -------------------------------------------------
    inline void
    wake_proc(int t)
    {
        if (p_state[t] == kAsleep) {
            p_state[t] = kAwake;
            mask_set(p_mask, t);
            awake_procs++;
        }
    }
    inline void
    wake_sw(int t)
    {
        if (s_state[t] == kAsleep) {
            s_state[t] = kAwake;
            mask_set(s_mask, t);
            awake_sw++;
        }
    }
    inline void
    wake(const SWake &w)
    {
        if (w.tile < 0)
            return;
        if (w.proc)
            wake_proc(w.tile);
        else
            wake_sw(w.tile);
    }
    inline void
    sleep_proc(int t, int64_t now, ProcCycle cat)
    {
        p_state[t] = kAsleep;
        mask_clr(p_mask, t);
        awake_procs--;
        p_sleep[t] = {now + 1, cat};
    }
    inline void
    sleep_sw(int t, int64_t now, SwitchCycle cat, int64_t pc)
    {
        s_state[t] = kAsleep;
        mask_clr(s_mask, t);
        awake_sw--;
        s_sleep[t] = {now + 1, cat, pc};
    }
    /** Batch-account a woken unit's sleep span (frozen category). */
    inline void
    flush_proc(int t, int64_t now)
    {
        SleepP &sl = p_sleep[t];
        if (sl.begin < 0)
            return;
        int64_t span = now - sl.begin;
        if (span > 0) {
            S.account_proc_n(t, sl.begin, sl.cat, span);
            c_pstall += span;
            S.last_proc_cat_[t] = sl.cat;
        }
        sl.begin = -1;
    }
    inline void
    flush_sw(int t, int64_t now)
    {
        SleepS &sl = s_sleep[t];
        if (sl.begin < 0)
            return;
        int64_t span = now - sl.begin;
        if (span > 0) {
            S.account_switch_n(t, sl.begin, sl.cat, span);
            hs[t].stalls[sl.pc] += span;
            S.last_sw_cat_[t] = sl.cat;
        }
        sl.begin = -1;
    }

    void decode();
    void decode_proc(int t);
    void decode_switch(int t);

    void step_proc(int t, int64_t now);
    struct SwOutcome
    {
        Simulator::SwExec res;
        Fifo *blocker;
    };
    SwOutcome exec_srec(int t, int64_t now);
    void step_sw(int t, int64_t now);

    int64_t straight_run(int t, int64_t now, int64_t stop,
                         int64_t &last_progress);
    void pop_wheel(int64_t now);
    int64_t next_wake(int64_t now) const;
    void jump_forward(int64_t now, int64_t skip);
    SimResult run(int64_t max_cycles);
};

// ====================================================================
// Decode
// ====================================================================

void
ThreadedState::decode()
{
    jitter_on = S.faults_.jitter_rate > 0.0;
    trace_ = S.stats_.profile.trace_enabled;
    route_fault_on = S.faults_.route_stall_rate > 0.0;
    pcode.resize(n);
    scode.resize(n);
    p_state.assign(n, kHalted);
    s_state.assign(n, kHalted);
    p_mask.assign((n + 63) / 64, 0);
    s_mask.assign((n + 63) / 64, 0);
    p_sleep.assign(n, {});
    s_sleep.assign(n, {});
    for (int t = 0; t < n; t++) {
        decode_proc(t);
        decode_switch(t);
        if (!S.procs_[t].halted) {
            p_state[t] = kAwake;
            mask_set(p_mask, t);
            awake_procs++;
            live_procs++;
        }
        if (!S.switches_[t].halted) {
            s_state[t] = kAwake;
            mask_set(s_mask, t);
            awake_sw++;
            live_sw++;
        }
    }
    // Hot pointer tables: only after every record pool is final.
    hp.resize(n);
    hs.resize(n);
    for (int t = 0; t < n; t++) {
        HotP &h = hp[t];
        h.code = pcode[t].data();
        h.regs = S.procs_[t].regs.data();
        h.busy = S.procs_[t].busy.data();
        h.p2s = &S.p2s_[t];
        h.s2p = &S.s2p_[t];
        h.p = &S.procs_[t];
        h.prof = &S.stats_.profile.tiles[t];
        HotS &g = hs[t];
        g.code = scode[t].data();
        g.sw = &S.switches_[t];
        g.prof = &S.stats_.profile.tiles[t];
        g.stalls = S.stats_.profile.tiles[t].route_stalls.data();
    }
}

void
ThreadedState::decode_proc(int t)
{
    const std::vector<PInstr> &code = S.prog_.tiles[t].code;
    const int64_t size = static_cast<int64_t>(code.size());
    const int nregs = static_cast<int>(S.procs_[t].regs.size());
    const MachineConfig &m = S.prog_.machine;
    std::vector<PRec> &recs = pcode[t];
    recs.assign(size + 1, PRec{});

    auto clamp_tgt = [&](int64_t tg) {
        return tg >= 0 && tg <= size ? tg : size;
    };
    auto reg_ok = [&](int r) { return r >= 0 && r < nregs; };
    auto opnd_ok = [&](int r) {
        return r == -1 || r == kPortOperand || reg_ok(r);
    };

    for (int64_t pc = 0; pc < size; pc++) {
        const PInstr &in = code[pc];
        PRec &r = recs[pc];
        r.op = in.op;
        r.type = in.type;
        r.cls = static_cast<uint8_t>(op_class(in.op));
        r.dst = in.dst;
        r.s0 = in.src[0];
        r.s1 = in.src[1];
        r.imm = in.imm;
        auto bad = [&] { r.k = kBadP; };
        auto set_array = [&] {
            const ArrayLayout &al = S.prog_.arrays[in.array];
            r.a = al.base;
            // Capped at 2^31: every int32 subscript below it is valid.
            r.ext = static_cast<uint32_t>(
                std::min<int64_t>(al.size, int64_t(1) << 31));
        };
        if (!opnd_ok(in.dst) || !opnd_ok(in.src[0]) ||
            !opnd_ok(in.src[1])) {
            bad();
            continue;
        }
        switch (in.op) {
          case Op::kConst:
            if (in.dst == kPortOperand)
                r.k = kConstPort;
            else if (reg_ok(in.dst))
                r.k = kConstReg;
            else
                bad();
            break;
          case Op::kSend:
            r.k = kSend; // port src = reference's send-zero quirk
            break;
          case Op::kRecv:
            // A negative dst (including a port) discards the word in
            // the reference backend, so both are well-defined here.
            r.k = kRecv;
            break;
          case Op::kLoad:
            if (!reg_ok(in.dst)) {
                bad();
                break;
            }
            r.lat = m.latency(FuOp::kLoad);
            if (in.array == kSpillArray) {
                // The address operand is unused for spill slots; a
                // port src still gates readiness (never consumed).
                r.k = kLoadSpill;
            } else if (in.src[0] == kPortOperand || in.array < 0 ||
                       in.array >=
                           static_cast<int>(S.prog_.arrays.size())) {
                bad();
            } else {
                r.k = kLoadArr;
                set_array();
            }
            break;
          case Op::kStore:
            if (in.array == kSpillArray) {
                r.k = kStoreSpill;
            } else if (in.src[0] == kPortOperand || in.array < 0 ||
                       in.array >=
                           static_cast<int>(S.prog_.arrays.size())) {
                bad();
            } else {
                r.k = kStoreArr;
                set_array();
            }
            break;
          case Op::kDynLoad:
          case Op::kDynStore: {
            bool is_store = in.op == Op::kDynStore;
            if (!reg_ok(in.src[0]) ||
                (is_store && !reg_ok(in.src[1])) ||
                (!is_store && !reg_ok(in.dst)) || in.array < 0 ||
                in.array >=
                    static_cast<int>(S.prog_.arrays.size())) {
                bad();
                break;
            }
            r.k = kDyn;
            set_array();
            r.lat = m.latency(FuOp::kLoad);
            break;
          }
          case Op::kPrint:
            r.k = kPrint;
            r.a = in.print_seq;
            break;
          case Op::kJump:
            r.k = kJump;
            r.a = clamp_tgt(in.target);
            break;
          case Op::kBranch:
            if (!reg_ok(in.src[0])) {
                bad();
                break;
            }
            r.k = kBranch;
            r.a = clamp_tgt(in.target);
            break;
          case Op::kHalt:
            r.k = kHaltP;
            break;
          default: { // computational
            r.ns = static_cast<uint8_t>(op_num_srcs(in.op));
            r.lat = m.latency(op_fu(in.op));
            if (r.ns < 2)
                r.s1 = -1;
            if (r.ns < 1)
                r.s0 = -1;
            bool has_port = r.s0 == kPortOperand ||
                            r.s1 == kPortOperand ||
                            in.dst == kPortOperand;
            if (has_port)
                r.k = kAluGen;
            else if (reg_ok(in.dst))
                r.k = kAluRR;
            else
                bad();
            break;
          }
        }
    }
    recs[size].k = kTrapP;

    // Sprint eligibility: touches no ports, no dynamic network.
    for (int64_t pc = 0; pc < size; pc++) {
        PRec &r = recs[pc];
        switch (r.k) {
          case kConstReg:
          case kAluRR:
          case kLoadArr:
          case kJump:
          case kBranch:
            r.flags |= PF_SPRINT;
            break;
          case kLoadSpill:
            if (r.s0 != kPortOperand)
                r.flags |= PF_SPRINT;
            break;
          case kStoreArr:
          case kStoreSpill:
            if (r.s0 != kPortOperand && r.s1 != kPortOperand)
                r.flags |= PF_SPRINT;
            break;
          case kPrint:
            if (r.s0 != kPortOperand)
                r.flags |= PF_SPRINT;
            break;
          default:
            break;
        }
    }
}

void
ThreadedState::decode_switch(int t)
{
    const std::vector<SInstr> &code = S.prog_.switches[t].code;
    const int64_t size = static_cast<int64_t>(code.size());
    const int nregs = static_cast<int>(S.switches_[t].regs.size());
    const MachineConfig &m = S.prog_.machine;
    std::vector<SRec> &recs = scode[t];
    recs.assign(size + 1, SRec{});

    auto clamp_tgt = [&](int64_t tg) {
        return tg >= 0 && tg <= size ? tg : size;
    };

    for (int64_t pc = 0; pc < size; pc++) {
        const SInstr &in = code[pc];
        SRec &r = recs[pc];
        switch (in.k) {
          case SInstr::K::kRoute: {
            bool ok = true;
            r.pb = static_cast<int32_t>(pairs.size());
            for (const RoutePair &rp : in.routes) {
                SPair pr;
                pr.in_dir = static_cast<uint8_t>(rp.in);
                if (rp.in == Dir::kProc) {
                    pr.src = &S.p2s_[t];
                    pr.w = {static_cast<int16_t>(t), 1};
                } else {
                    int nb = m.neighbor(t, rp.in);
                    if (nb < 0) {
                        ok = false; // reference panics at exec
                        break;
                    }
                    pr.nb = static_cast<int16_t>(nb);
                    pr.src =
                        &S.links_[nb]
                                 [static_cast<int>(opposite(rp.in))];
                    pr.w = {static_cast<int16_t>(nb), 0};
                }
                if (rp.reg_dst >= nregs) {
                    ok = false;
                    break;
                }
                pr.reg_dst = static_cast<int16_t>(rp.reg_dst);
                pr.ob = static_cast<int32_t>(souts.size());
                for (int d = 0; d < kNumDirs; d++) {
                    if (!(rp.out_mask & (1u << d)))
                        continue;
                    SOut o;
                    o.dir = static_cast<uint8_t>(d);
                    if (static_cast<Dir>(d) == Dir::kProc) {
                        o.f = &S.s2p_[t];
                        o.w = {static_cast<int16_t>(t), 1};
                    } else {
                        o.f = &S.links_[t][d];
                        int nb = m.neighbor(t, static_cast<Dir>(d));
                        // Off-mesh outputs have no reader; pushes
                        // accumulate until the FIFO fills, exactly as
                        // in the reference.
                        o.w = {static_cast<int16_t>(nb), 0};
                    }
                    souts.push_back(o);
                }
                pr.oe = static_cast<int32_t>(souts.size());
                pairs.push_back(pr);
            }
            r.pe = static_cast<int32_t>(pairs.size());
            if (!ok) {
                r.k = kSBad;
                break;
            }
            bool fast = !S.checker_ && r.pe - r.pb == 1 &&
                        pairs[r.pb].oe - pairs[r.pb].ob == 1 &&
                        pairs[r.pb].reg_dst < 0;
            r.k = fast ? kRoute1 : kRouteN;
            if (fast) {
                const SPair &pr = pairs[r.pb];
                r.src = pr.src;
                r.wsrc = pr.w;
                r.out = souts[pr.ob].f;
                r.wout = souts[pr.ob].w;
            }
            break;
          }
          case SInstr::K::kAlu:
            if (in.dst < 0 || in.dst >= nregs) {
                r.k = kSBad;
                break;
            }
            r.dst = static_cast<int16_t>(in.dst);
            if (in.op == Op::kConst) {
                // a/b are ignored by the reference for constants.
                r.k = kSAluC;
                r.imm = in.imm;
            } else if (in.a >= nregs || in.b >= nregs) {
                r.k = kSBad;
            } else {
                r.k = kSAluOp;
                r.op = in.op;
                r.a = static_cast<int16_t>(in.a);
                r.b = static_cast<int16_t>(in.b);
            }
            break;
          case SInstr::K::kBnez:
            if (in.cond < 0 || in.cond >= nregs) {
                r.k = kSBad;
                break;
            }
            r.k = kSBnez;
            r.cond = static_cast<int16_t>(in.cond);
            r.target = clamp_tgt(in.target);
            break;
          case SInstr::K::kJump:
            r.k = kSJump;
            r.target = clamp_tgt(in.target);
            break;
          case SInstr::K::kHalt:
            r.k = kSHalt;
            break;
        }
    }
    recs[size].k = kSTrap;

    if (m.switch_dual_issue)
        for (int64_t pc = 0; pc + 1 < size; pc++)
            if (dual_issue_pair_k(code[pc].k, code[pc + 1].k))
                recs[pc].dual = 1;
}

// ====================================================================
// Processor step
// ====================================================================

void
ThreadedState::step_proc(int t, int64_t now)
{
    const HotP &h = hp[t];
    Simulator::Proc &p = *h.p;
    TileProfile *const prof = h.prof;
    flush_proc(t, now);

    if (jitter_on && S.jitter_hit()) {
        c_pstall++;
        acct_proc(prof, t, now, ProcCycle::kOperandWait);
        return;
    }

    // Outstanding dynamic-network request: mirror of processor.cpp.
    if (p.waiting_dyn) {
        if (p.inject_pos < p.inject.size()) {
            Fifo &local = S.req_plane_.in_bufs[t][4];
            if (local.can_push(now)) {
                local.push(now, p.inject[p.inject_pos++]);
                S.req_plane_.resident++;
                prog_ = true;
                if (p.inject_pos == p.inject.size()) {
                    p.inject.clear();
                    p.inject_pos = 0;
                }
                acct_proc(prof, t, now, ProcCycle::kMemWait);
            } else {
                stall_p(prof, t, now, ProcCycle::kSendBlocked);
            }
            return;
        }
        Simulator::DynState &d = S.dyn_[t];
        const PRec &r = h.code[p.pc];
        if (d.reply_ready && d.reply_time <= now) {
            if (r.op == Op::kDynLoad && r.dst >= 0) {
                h.regs[r.dst] = d.reply_value;
                h.busy[r.dst] = now + 1;
            }
            d.reply_ready = false;
            p.waiting_dyn = false;
            p.dyn_home = -1;
            p.pc++;
            c_instrs++;
            prog_ = true;
            acct_proc(prof, t, now, ProcCycle::kIssued);
            prof->issued[r.cls]++;
        } else {
            stall_p(prof, t, now, ProcCycle::kMemWait);
        }
        return;
    }

    const PRec &r = h.code[p.pc];
    Fifo &p2s = *h.p2s;
    Fifo &s2p = *h.s2p;

    auto retire_at = [&](int64_t pc_next) {
        p.pc = pc_next;
        c_instrs++;
        prog_ = true;
        acct_proc(prof, t, now, ProcCycle::kIssued);
        prof->issued[r.cls]++;
    };
    auto retire = [&] { retire_at(p.pc + 1); };
    // Scoreboard stall: always durable (busy[] is a fixed deadline).
    auto stall_busy = [&](int reg) {
        stall_p(prof, t, now, ProcCycle::kOperandWait);
        if (!jitter_on) {
            sleep_proc(t, now, ProcCycle::kOperandWait);
            wheel.push({h.busy[reg], t});
        }
    };
    // Durable-sleep probes for now+1 reduce to raw occupancy: no
    // FIFO can be stamped past the current cycle (see Fifo::full).
    auto stall_recv = [&] {
        stall_p(prof, t, now, ProcCycle::kRecvBlocked);
        if (!jitter_on && s2p.empty())
            sleep_proc(t, now, ProcCycle::kRecvBlocked);
    };
    auto stall_send = [&] {
        stall_p(prof, t, now, ProcCycle::kSendBlocked);
        if (!jitter_on && p2s.full())
            sleep_proc(t, now, ProcCycle::kSendBlocked);
    };
    // Pop the s2p head (checker-mirrored); wakes the switch.
    auto pop_s2p = [&](int slot) -> uint32_t {
        uint32_t v = s2p.pop(now);
        wake_sw(t);
        if (S.checker_) {
            WordProv o = S.checker_->take_s2p(t, s2p, now);
            S.checker_->consume_proc(t, p.pc, slot, o, v, now);
        }
        return v;
    };
    auto push_p2s = [&](uint32_t v) {
        p2s.push(now, v);
        wake_sw(t);
        if (S.checker_)
            S.checker_->send_p2s(t, p.pc, p2s, now);
    };

    switch (r.k) {
      case kConstReg:
        h.regs[r.dst] = r.imm;
        h.busy[r.dst] = now + 1;
        retire();
        return;

      case kConstPort:
        if (!p2s.can_push(now))
            return stall_send();
        push_p2s(r.imm);
        retire();
        return;

      case kSend: {
        if (r.s0 == kPortOperand) {
            // Reference quirk: readiness checks the input port, but the
            // value sent is zero and the port word is left unconsumed.
            if (!s2p.can_pop(now))
                return stall_recv();
        } else if (r.s0 >= 0 && h.busy[r.s0] > now) {
            return stall_busy(r.s0);
        }
        if (!p2s.can_push(now))
            return stall_send();
        push_p2s(r.s0 >= 0 ? h.regs[r.s0] : 0);
        retire();
        return;
      }

      case kRecv: {
        if (!s2p.can_pop(now))
            return stall_recv();
        uint32_t v = pop_s2p(0);
        if (r.dst >= 0) {
            h.regs[r.dst] = v;
            h.busy[r.dst] = now + 1;
        }
        retire();
        return;
      }

      case kLoadArr: {
        if (r.s0 >= 0 && h.busy[r.s0] > now)
            return stall_busy(r.s0);
        int64_t lat = r.lat + S.fault_extra();
        int64_t g = array_addr(r, t, r.s0 >= 0 ? h.regs[r.s0] : 0);
        check(S.mem_.home_of(g) == t,
              "static load executed away from its home tile");
        h.regs[r.dst] = S.mem_.read_local(t, S.mem_.local_of(g));
        h.busy[r.dst] = now + lat;
        retire();
        return;
      }

      case kLoadSpill: {
        if (r.s0 == kPortOperand) {
            // Readiness gates on the port; the word is never consumed
            // (the reference ignores the address operand for spills).
            if (!s2p.can_pop(now))
                return stall_recv();
        } else if (r.s0 >= 0 && h.busy[r.s0] > now) {
            return stall_busy(r.s0);
        }
        int64_t lat = r.lat + S.fault_extra();
        h.regs[r.dst] =
            S.mem_.read_spill(t, static_cast<int64_t>(r.imm));
        h.busy[r.dst] = now + lat;
        retire();
        return;
      }

      case kStoreArr: {
        if (r.s0 >= 0 && h.busy[r.s0] > now)
            return stall_busy(r.s0);
        if (r.s1 == kPortOperand) {
            if (!s2p.can_pop(now))
                return stall_recv();
        } else if (r.s1 >= 0 && h.busy[r.s1] > now) {
            return stall_busy(r.s1);
        }
        uint32_t v = r.s1 == kPortOperand
                         ? pop_s2p(1)
                         : (r.s1 >= 0 ? h.regs[r.s1] : 0);
        int64_t g = array_addr(r, t, r.s0 >= 0 ? h.regs[r.s0] : 0);
        check(S.mem_.home_of(g) == t,
              "static store executed away from its home tile");
        S.mem_.write_local(t, S.mem_.local_of(g), v);
        retire();
        return;
      }

      case kStoreSpill: {
        if (r.s0 == kPortOperand) {
            if (!s2p.can_pop(now))
                return stall_recv();
        } else if (r.s0 >= 0 && h.busy[r.s0] > now) {
            return stall_busy(r.s0);
        }
        if (r.s1 == kPortOperand) {
            if (!s2p.can_pop(now))
                return stall_recv();
        } else if (r.s1 >= 0 && h.busy[r.s1] > now) {
            return stall_busy(r.s1);
        }
        uint32_t v = r.s1 == kPortOperand
                         ? pop_s2p(1)
                         : (r.s1 >= 0 ? h.regs[r.s1] : 0);
        S.mem_.write_spill(t, static_cast<int64_t>(r.imm), v);
        retire();
        return;
      }

      case kDyn: {
        bool is_store = r.op == Op::kDynStore;
        if (h.busy[r.s0] > now)
            return stall_busy(r.s0);
        if (is_store && h.busy[r.s1] > now)
            return stall_busy(r.s1);
        int64_t g = array_addr(r, t, h.regs[r.s0]);
        int home = S.mem_.home_of(g);
        if (home == t) {
            if (is_store) {
                S.mem_.write_local(t, S.mem_.local_of(g),
                                   h.regs[r.s1]);
            } else {
                h.regs[r.dst] = S.mem_.read_local(t, S.mem_.local_of(g));
                h.busy[r.dst] = now + 1 + r.lat + S.fault_extra();
            }
            retire();
            return;
        }
        uint32_t addr_word = int_bits(static_cast<int32_t>(g));
        if (is_store)
            p.inject = {dyn_header(home, t, 2, DynKind::kStoreReq),
                        addr_word, h.regs[r.s1]};
        else
            p.inject = {dyn_header(home, t, 1, DynKind::kLoadReq),
                        addr_word};
        p.inject_pos = 0;
        S.stats_.dyn_messages++;
        p.waiting_dyn = true;
        p.dyn_home = home;
        prog_ = true;
        acct_proc(prof, t, now, ProcCycle::kMemWait);
        return;
      }

      case kPrint: {
        if (r.s0 == kPortOperand) {
            if (!s2p.can_pop(now))
                return stall_recv();
        } else if (r.s0 >= 0 && h.busy[r.s0] > now) {
            return stall_busy(r.s0);
        }
        int seq = static_cast<int>(r.a);
        uint32_t v = r.s0 == kPortOperand
                         ? pop_s2p(0)
                         : (r.s0 >= 0 ? h.regs[r.s0] : 0);
        S.stats_.prints.push_back(
            {seq, S.print_count_[seq]++, r.type, v});
        retire();
        return;
      }

      case kJump:
        retire_at(r.a);
        return;

      case kBranch:
        if (h.busy[r.s0] > now)
            return stall_busy(r.s0);
        retire_at(h.regs[r.s0] != 0 ? r.a : p.pc + 1);
        return;

      case kHaltP:
        p.halted = true;
        prog_ = true;
        acct_proc(prof, t, now, ProcCycle::kIssued);
        prof->issued[r.cls]++;
        p_state[t] = kHalted;
        mask_clr(p_mask, t);
        awake_procs--;
        live_procs--;
        return;

      case kAluRR: {
        if (r.s0 >= 0 && h.busy[r.s0] > now)
            return stall_busy(r.s0);
        if (r.s1 >= 0 && h.busy[r.s1] > now)
            return stall_busy(r.s1);
        uint32_t a = r.s0 >= 0 ? h.regs[r.s0] : 0;
        uint32_t b = r.s1 >= 0 ? h.regs[r.s1] : 0;
        uint32_t out = 0;
        check(eval_op(r.op, a, b, out),
              "processor: unexecutable opcode");
        h.regs[r.dst] = out;
        h.busy[r.dst] = now + r.lat;
        retire();
        return;
      }

      case kAluGen: {
        // Computational op with port operands: mirror of the reference
        // default case, source order preserved.
        for (int s = 0; s < r.ns; s++) {
            int reg = s == 0 ? r.s0 : r.s1;
            if (reg == kPortOperand) {
                if (!s2p.can_pop(now))
                    return stall_recv();
            } else if (reg >= 0 && h.busy[reg] > now) {
                return stall_busy(reg);
            }
        }
        if (r.dst == kPortOperand && !p2s.can_push(now))
            return stall_send();
        auto read_src = [&](int reg, int slot) -> uint32_t {
            if (reg == kPortOperand)
                return pop_s2p(slot);
            return reg >= 0 ? h.regs[reg] : 0;
        };
        uint32_t a = r.ns > 0 ? read_src(r.s0, 0) : 0;
        uint32_t b = r.ns > 1 ? read_src(r.s1, 1) : 0;
        uint32_t out = 0;
        check(eval_op(r.op, a, b, out),
              "processor: unexecutable opcode");
        if (r.dst == kPortOperand) {
            push_p2s(out);
        } else {
            h.regs[r.dst] = out;
            h.busy[r.dst] = now + r.lat;
        }
        retire();
        return;
      }

      case kTrapP:
        check(false, "processor ran off the end of its stream");
        return;

      default: // kBadP
        check(false, kUbMsg);
        return;
    }
}

// ====================================================================
// Switch step
// ====================================================================

ThreadedState::SwOutcome
ThreadedState::exec_srec(int t, int64_t now)
{
    const HotS &h = hs[t];
    Simulator::Sw &sw = *h.sw;
    const SRec &r = h.code[sw.pc];

    switch (r.k) {
      case kRoute1: {
        if (!r.src->can_pop(now))
            return {Simulator::SwExec::kInputWait, r.src};
        if (!r.out->can_push(now))
            return {Simulator::SwExec::kOutputBlocked, r.out};
        uint32_t v = r.src->pop(now);
        wake(r.wsrc);
        r.out->push(now, v);
        wake(r.wout);
        c_words++;
        h.prof->words_routed++;
        sw.pc++;
        c_sw_instrs++;
        prog_ = true;
        return {Simulator::SwExec::kRetired, nullptr};
      }

      case kRouteN: {
        // Atomic fire: every input present, every output has space.
        for (int32_t i = r.pb; i < r.pe; i++) {
            const SPair &pr = pairs[i];
            if (!pr.src->can_pop(now))
                return {Simulator::SwExec::kInputWait, pr.src};
            for (int32_t j = pr.ob; j < pr.oe; j++)
                if (!souts[j].f->can_push(now))
                    return {Simulator::SwExec::kOutputBlocked,
                            souts[j].f};
        }
        int pair = 0;
        for (int32_t i = r.pb; i < r.pe; i++) {
            const SPair &pr = pairs[i];
            uint32_t v = pr.src->pop(now);
            wake(pr.w);
            WordProv o{};
            if (S.checker_) {
                if (static_cast<Dir>(pr.in_dir) == Dir::kProc)
                    o = S.checker_->take_p2s(t, S.p2s_[t], now);
                else
                    o = S.checker_->take_link(
                        pr.nb,
                        static_cast<int>(
                            opposite(static_cast<Dir>(pr.in_dir))),
                        *pr.src, now);
                S.checker_->consume_switch(t, sw.pc, pair, o, v,
                                           now);
            }
            for (int32_t j = pr.ob; j < pr.oe; j++) {
                const SOut &ot = souts[j];
                ot.f->push(now, v);
                wake(ot.w);
                if (S.checker_) {
                    if (static_cast<Dir>(ot.dir) == Dir::kProc)
                        S.checker_->put_s2p(t, o, S.s2p_[t], now);
                    else
                        S.checker_->put_link(t, ot.dir, o, *ot.f,
                                             now);
                }
                c_words++;
                h.prof->words_routed++;
            }
            if (pr.reg_dst >= 0)
                sw.regs[pr.reg_dst] = v;
            pair++;
        }
        sw.pc++;
        c_sw_instrs++;
        prog_ = true;
        return {Simulator::SwExec::kRetired, nullptr};
      }

      case kSAluC:
        sw.regs[r.dst] = r.imm;
        sw.pc++;
        c_sw_instrs++;
        prog_ = true;
        return {Simulator::SwExec::kRetired, nullptr};

      case kSAluOp: {
        uint32_t a = r.a >= 0 ? sw.regs[r.a] : 0;
        uint32_t b = r.b >= 0 ? sw.regs[r.b] : 0;
        uint32_t out = 0;
        check(eval_op(r.op, a, b, out),
              "switch: unexecutable ALU opcode");
        sw.regs[r.dst] = out;
        sw.pc++;
        c_sw_instrs++;
        prog_ = true;
        return {Simulator::SwExec::kRetired, nullptr};
      }

      case kSBnez:
        sw.pc = sw.regs[r.cond] != 0 ? r.target : sw.pc + 1;
        c_sw_instrs++;
        prog_ = true;
        return {Simulator::SwExec::kRetired, nullptr};

      case kSJump:
        sw.pc = r.target;
        c_sw_instrs++;
        prog_ = true;
        return {Simulator::SwExec::kRetired, nullptr};

      case kSHalt:
        sw.halted = true;
        prog_ = true;
        s_state[t] = kHalted;
        mask_clr(s_mask, t);
        awake_sw--;
        live_sw--;
        return {Simulator::SwExec::kRetired, nullptr};

      case kSTrap:
        check(false, "switch ran off the end of its stream");
        break;
      default:
        check(false, "simulator: route reads off-mesh port");
        break;
    }
    return {Simulator::SwExec::kRetired, nullptr};
}

void
ThreadedState::step_sw(int t, int64_t now)
{
    const HotS &h = hs[t];
    Simulator::Sw &sw = *h.sw;
    flush_sw(t, now);

    // Injected route hold: time-gated, spins awake (next_wake covers).
    if (route_fault_on && S.sw_stall_until_[t] > now) {
        h.stalls[sw.pc]++;
        acct_sw(h.prof, t, now, SwitchCycle::kOutputBlocked);
        return;
    }
    int64_t pc0 = sw.pc;
    const SRec &r0 = h.code[pc0];
    if (r0.k == kRoute1) {
        // Inline copy of the exec_srec kRoute1 arm — the hot case.
        bool in_ok = r0.src->can_pop(now);
        if (!in_ok || !r0.out->can_push(now)) {
            h.stalls[pc0]++;
            SwitchCycle cat = in_ok ? SwitchCycle::kOutputBlocked
                                    : SwitchCycle::kInputWait;
            acct_sw(h.prof, t, now, cat);
            // Durable block at now+1: stamps never exceed now, so the
            // probe is a raw occupancy read (see Fifo::full).
            if (in_ok ? r0.out->full() : r0.src->empty())
                sleep_sw(t, now, cat, pc0);
            return;
        }
        uint32_t v = r0.src->pop(now);
        wake(r0.wsrc);
        r0.out->push(now, v);
        wake(r0.wout);
        c_words++;
        h.prof->words_routed++;
        sw.pc = pc0 + 1;
        c_sw_instrs++;
        prog_ = true;
    } else {
        SwOutcome res = exec_srec(t, now);
        if (res.res != Simulator::SwExec::kRetired) {
            h.stalls[pc0]++;
            bool input = res.res == Simulator::SwExec::kInputWait;
            SwitchCycle cat = input ? SwitchCycle::kInputWait
                                    : SwitchCycle::kOutputBlocked;
            acct_sw(h.prof, t, now, cat);
            // Durable block: the counterparty has not acted this
            // cycle, so only its future push/pop (which wakes us) can
            // unblock.
            if (input ? res.blocker->empty() : res.blocker->full())
                sleep_sw(t, now, cat, pc0);
            return;
        }
    }
    acct_sw(h.prof, t, now, SwitchCycle::kIssued);
    if (r0.dual && !sw.halted)
        exec_srec(t, now); // second slot: stall is ignored
    if (route_fault_on) {
        // Held: spins awake until the hold expires.
        int extra = S.route_stall_extra();
        if (extra > 0)
            S.sw_stall_until_[t] = now + 1 + extra;
    }
}

// ====================================================================
// Straight-line execution: the solo sprint
// ====================================================================

/**
 * Execute solo processor @p t's records in a tight loop, one
 * instruction per cycle, while each record carries PF_SPRINT and the
 * cycle stays below @p stop (the next wheel event or max_cycles).
 * Scoreboard waits are accounted in one batched span; every issue is
 * accounted at its true cycle, so profiles stay exact.
 */
int64_t
ThreadedState::straight_run(int t, int64_t now, int64_t stop,
                            int64_t &last_progress)
{
    const HotP &h = hp[t];
    Simulator::Proc &p = *h.p;
    flush_proc(t, now);
    // One wall-budget poll per entry, not per instruction: the run is
    // bounded by @p stop, and the outer loop polls every cycle.
    S.poll_wall_deadline();
    const PRec *const recs = h.code;
    int64_t c = now;

    while (c < stop) {
        const PRec &r = recs[p.pc];
        if (!(r.flags & PF_SPRINT))
            break;
        // Scoreboard wait, batched.
        int64_t rdy = c;
        if (r.s0 >= 0)
            rdy = std::max(rdy, h.busy[r.s0]);
        if (r.s1 >= 0)
            rdy = std::max(rdy, h.busy[r.s1]);
        if (rdy > c) {
            int64_t span = std::min(rdy, stop) - c;
            S.account_proc_n(t, c, ProcCycle::kOperandWait, span);
            c_pstall += span;
            S.last_proc_cat_[t] = ProcCycle::kOperandWait;
            c += span;
            if (rdy > stop)
                break;
            continue;
        }
        switch (r.k) {
          case kConstReg:
            h.regs[r.dst] = r.imm;
            h.busy[r.dst] = c + 1;
            p.pc++;
            break;
          case kAluRR: {
            uint32_t a = r.s0 >= 0 ? h.regs[r.s0] : 0;
            uint32_t b = r.s1 >= 0 ? h.regs[r.s1] : 0;
            uint32_t out = 0;
            check(eval_op(r.op, a, b, out),
                  "processor: unexecutable opcode");
            h.regs[r.dst] = out;
            h.busy[r.dst] = c + r.lat;
            p.pc++;
            break;
          }
          case kLoadArr: {
            int64_t lat = r.lat + S.fault_extra();
            int64_t g =
                array_addr(r, t, r.s0 >= 0 ? h.regs[r.s0] : 0);
            check(S.mem_.home_of(g) == t,
                  "static load executed away from its home tile");
            h.regs[r.dst] = S.mem_.read_local(t, S.mem_.local_of(g));
            h.busy[r.dst] = c + lat;
            p.pc++;
            break;
          }
          case kLoadSpill: {
            int64_t lat = r.lat + S.fault_extra();
            h.regs[r.dst] =
                S.mem_.read_spill(t, static_cast<int64_t>(r.imm));
            h.busy[r.dst] = c + lat;
            p.pc++;
            break;
          }
          case kStoreArr: {
            uint32_t v = r.s1 >= 0 ? h.regs[r.s1] : 0;
            int64_t g =
                array_addr(r, t, r.s0 >= 0 ? h.regs[r.s0] : 0);
            check(S.mem_.home_of(g) == t,
                  "static store executed away from its home tile");
            S.mem_.write_local(t, S.mem_.local_of(g), v);
            p.pc++;
            break;
          }
          case kStoreSpill:
            S.mem_.write_spill(t, static_cast<int64_t>(r.imm),
                               r.s1 >= 0 ? h.regs[r.s1] : 0);
            p.pc++;
            break;
          case kPrint: {
            int seq = static_cast<int>(r.a);
            S.stats_.prints.push_back(
                {seq, S.print_count_[seq]++, r.type,
                 r.s0 >= 0 ? h.regs[r.s0] : 0});
            p.pc++;
            break;
          }
          case kJump:
            p.pc = r.a;
            break;
          case kBranch:
            p.pc = h.regs[r.s0] != 0 ? r.a : p.pc + 1;
            break;
          default:
            check(false, "threaded backend: unexpected sprint kind");
        }
        c_instrs++;
        acct_proc(h.prof, t, c, ProcCycle::kIssued);
        h.prof->issued[r.cls]++;
        last_progress = c;
        c++;
    }
    return c - now;
}

// ====================================================================
// Main loop
// ====================================================================

/**
 * Drain due wheel entries: wake each sleeping processor whose
 * scoreboard deadline has come (stale entries are harmless —
 * wake_proc only wakes kAsleep).
 */
void
ThreadedState::pop_wheel(int64_t now)
{
    while (!wheel.empty() && wheel.top().first <= now) {
        wake_proc(wheel.top().second);
        wheel.pop();
    }
}

int64_t
ThreadedState::next_wake(int64_t now) const
{
    int64_t wake = wheel.empty() ? INT64_MAX : wheel.top().first;
    auto consider = [&](int64_t w) {
        if (w > now && w < wake)
            wake = w;
    };
    for (int t = -1; (t = mask_next(p_mask, t)) >= 0;) {
        const Simulator::Proc &p = S.procs_[t];
        if (p.waiting_dyn) {
            const Simulator::DynState &d = S.dyn_[t];
            if (p.inject.empty() && d.reply_ready)
                consider(d.reply_time);
            continue;
        }
        const PRec &r = hp[t].code[p.pc];
        if (r.s0 >= 0)
            consider(p.busy[r.s0]);
        if (r.s1 >= 0)
            consider(p.busy[r.s1]);
    }
    for (int t : S.active_dyn_) {
        const Simulator::DynState &d = S.dyn_[t];
        if (d.outbox_pos >= d.outbox.size() && !d.inbox.empty())
            consider(
                std::max(d.handler_free, d.inbox.front().arrival));
    }
    if (route_fault_on)
        for (int t = -1; (t = mask_next(s_mask, t)) >= 0;)
            consider(S.sw_stall_until_[t]);
    return wake;
}

void
ThreadedState::jump_forward(int64_t now, int64_t skip)
{
    // Awake units repeat their frozen stall verbatim (the reference
    // fast_forward); sleeping units are covered by their flush span.
    for (int t = -1; (t = mask_next(p_mask, t)) >= 0;) {
        c_pstall += skip;
        S.account_proc_n(t, now + 1, S.last_proc_cat_[t], skip);
    }
    for (int t = -1; (t = mask_next(s_mask, t)) >= 0;) {
        hs[t].stalls[S.switches_[t].pc] += skip;
        S.account_switch_n(t, now + 1, S.last_sw_cat_[t], skip);
    }
    for (int t : S.plane_blocked_)
        S.stats_.profile.tiles[t].dyn_net_blocked += skip;
}

SimResult
ThreadedState::run(int64_t max_cycles)
{
    int64_t now = 0;
    int64_t last_progress = 0;
    // Stall window: identical to the reference computation.
    int64_t worst_penalty = S.faults_.penalty;
    if (S.faults_.route_stall_rate > 0.0)
        worst_penalty = std::max<int64_t>(
            worst_penalty, S.faults_.route_stall_cycles);
    if (S.faults_.dyn_delay_rate > 0.0)
        worst_penalty = std::max<int64_t>(worst_penalty,
                                          S.faults_.dyn_delay_cycles);
    const int64_t stall_limit = std::max<int64_t>(
        100000,
        static_cast<int64_t>(n) *
            (worst_penalty + S.prog_.machine.dyn_handler_cycles + 1) *
            1024);

    if (trace_) {
        S.stats_.profile.proc_spans.resize(n);
        S.stats_.profile.switch_spans.resize(n);
        for (int t = 0; t < n; t++) {
            S.stats_.profile.proc_spans[t].reserve(64);
            S.stats_.profile.switch_spans[t].reserve(64);
        }
    }

    while (live_procs > 0 || live_sw > 0 || !S.active_dyn_.empty()) {
        if (now >= max_cycles) {
            flush_counters();
            check(false, "simulator: cycle limit exceeded");
        }
        S.poll_wall_deadline();
        pop_wheel(now);

        // Solo fast path: one processor, empty network, no handlers.
        if (!jitter_on && awake_sw == 0 && awake_procs == 1 &&
            S.req_plane_.resident == 0 &&
            S.reply_plane_.resident == 0 && S.active_dyn_.empty()) {
            int solo = mask_next(p_mask, -1);
            if (!S.procs_[solo].waiting_dyn) {
                int64_t stop = wheel.empty()
                                   ? max_cycles
                                   : std::min(max_cycles,
                                              wheel.top().first);
                int64_t adv =
                    straight_run(solo, now, stop, last_progress);
                if (adv > 0) {
                    now += adv;
                    continue;
                }
            }
        }

        S.progress_ = false;
        prog_ = false;
        S.plane_blocked_.clear();

        // Fused per-tile scan: switch t, then processor t, ascending.
        // Relative order changes only across planes (processor t now
        // precedes switches u > t), which cannot change outcomes:
        // port FIFOs couple a processor only to its *own* switch
        // (still stepped first), link FIFOs couple switches (whose
        // mutual scan order is unchanged), same-cycle FIFO visibility
        // is order-independent by cycle stamping, every fault RNG
        // stream keeps its per-plane ascending draw order, and a wake
        // arriving behind a cursor defers the step to the next cycle
        // exactly as the two-phase scan did (the sleep span flushes
        // with the same category the skipped spin would have logged).
        {
            int ts = mask_next(s_mask, -1);
            int tp = mask_next(p_mask, -1);
            while (ts >= 0 || tp >= 0) {
                if (ts >= 0 && (tp < 0 || ts <= tp)) {
                    step_sw(ts, now);
                    ts = mask_next(s_mask, ts);
                } else {
                    step_proc(tp, now);
                    tp = mask_next(p_mask, tp);
                }
            }
        }
        if (S.req_plane_.resident > 0)
            S.step_plane(S.req_plane_, false, now);
        if (S.reply_plane_.resident > 0)
            S.step_plane(S.reply_plane_, true, now);
        for (size_t i = 0; i < S.active_dyn_.size();) {
            int t = S.active_dyn_[i];
            S.step_dyn(t, now);
            const Simulator::DynState &d = S.dyn_[t];
            if (d.inbox.empty() && d.outbox.empty()) {
                S.dyn_listed_[t] = 0;
                S.active_dyn_.erase(S.active_dyn_.begin() + i);
            } else {
                i++;
            }
        }

        if (prog_ || S.progress_) {
            last_progress = now;
        } else {
            // No wait-for-graph report here: Simulator::run replaces
            // this error with the reference core's exact one.
            if (now - last_progress > stall_limit)
                throw DeadlockError("deadlock: no progress for " +
                                    std::to_string(stall_limit) +
                                    " cycles at cycle " +
                                    std::to_string(now));
            if (!jitter_on) {
                int64_t wake_at = next_wake(now);
                if (wake_at == INT64_MAX)
                    throw DeadlockError(
                        "deadlock: machine frozen at cycle " +
                        std::to_string(now));
                int64_t skip = wake_at - now - 1;
                skip = std::min(skip,
                                last_progress + stall_limit - now);
                if (skip > 0) {
                    jump_forward(now, skip);
                    now += skip;
                }
            }
        }
        now++;
    }

    flush_counters();
    S.finish_run(now);
    return S.stats_;
}

// ====================================================================
// Simulator glue
// ====================================================================

void
ThreadedStateDeleter::operator()(ThreadedState *p) const
{
    delete p;
}

SimResult
Simulator::run_threaded(int64_t max_cycles)
{
    if (!th_) {
        th_.reset(new ThreadedState(*this));
        th_->decode();
    }
    return th_->run(max_cycles);
}

Simulator::~Simulator() = default;

} // namespace raw
