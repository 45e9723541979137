#ifndef RAW_SIM_SIMULATOR_HPP
#define RAW_SIM_SIMULATOR_HPP

/**
 * @file
 * Instruction-level simulator of the Raw prototype (Section 3.1).
 *
 * Cycle-driven model of N tiles.  Each tile has:
 *  - an in-order, scoreboarded processor executing its TileProgram
 *    with Table 1 latencies (fully pipelined FUs: one issue per cycle,
 *    results ready after the op latency);
 *  - a static switch executing its SwitchProgram; a ROUTE instruction
 *    fires only when every input word is present and every output
 *    port has space (blocking semantics = near-neighbor flow control);
 *  - single-reader/single-writer port FIFOs between processor and
 *    switch and between neighboring switches (one-cycle hop);
 *  - a dynamic-network interface with a remote-memory handler
 *    (Section 5.1): wormhole routing is abstracted to a
 *    distance-proportional delivery latency plus serialized handler
 *    occupancy (a documented substitution — see DESIGN.md).
 *
 * A FaultConfig injects random dynamic events over four independent
 * channels (memory-miss latency, static-network route stalls,
 * dynamic-network message delay, per-tile clock jitter); by the
 * static ordering property (Appendix A) results must not change,
 * which the test suite and the fault campaign
 * (src/harness/campaign.hpp) verify.  An opt-in CheckConfig layers
 * live self-checking on top (sim/checker.hpp).
 *
 * Deadlock is detected exactly: when the machine is frozen with no
 * time-gated event pending it can never move again, and a
 * wait-for-graph cycle over processors/switches/port FIFOs is
 * reported (sim/deadlock.cpp).  A stall-count timeout remains as a
 * backstop for perturbation channels that redraw every cycle.
 */

#include <cstdint>
#include <array>
#include <chrono>
#include <deque>
#include <string>
#include <vector>

#include <memory>

#include "sim/checker.hpp"
#include "sim/isa.hpp"
#include "sim/memory.hpp"
#include "sim/profile.hpp"

namespace raw {

/**
 * A bounded port FIFO with one-cycle visibility (pipelined hop).
 *
 * Fixed-capacity ring buffer.  Every operation is stamped with the
 * current cycle; per-cycle push/pop counters (reset lazily when the
 * stamp advances) reproduce the latched-snapshot semantics the old
 * begin_cycle() sweep provided, without any per-cycle work on
 * untouched FIFOs: a word pushed in cycle t is poppable no earlier
 * than t+1 (avail = size - pushes_this_cycle), and space freed by a
 * pop opens no earlier than the next cycle edge
 * (space = cap - size - pops_this_cycle).  Violations (popping
 * without can_pop(), pushing without can_push()) are simulator bugs
 * and panic instead of silently forwarding same-cycle.
 *
 * Cycle stamps must be non-decreasing, which also makes the
 * simulator's quiescence fast-forward (jumping @c now over frozen
 * stretches) transparent to the FIFO.
 */
class Fifo
{
  public:
    static constexpr int kMaxCap = 4;

    explicit Fifo(int cap = 2) : cap_(cap)
    {
        if (cap < 1 || cap > kMaxCap)
            panic("fifo: capacity out of range");
    }

    bool
    can_pop(int64_t now) const
    {
        return size_ - pushed_this(now) > 0;
    }
    uint32_t
    pop(int64_t now)
    {
        sync(now);
        if (size_ - pushes_ <= 0)
            panic("fifo: pop without can_pop (same-cycle visibility "
                  "violation)");
        uint32_t v = buf_[head_];
        head_ = head_ + 1 == cap_ ? 0 : head_ + 1;
        size_--;
        pops_++;
        return v;
    }
    /** Peek without consuming (multicast routes replicate the word). */
    uint32_t
    front(int64_t now) const
    {
        if (size_ - pushed_this(now) <= 0)
            panic("fifo: front without can_pop (same-cycle visibility "
                  "violation)");
        return buf_[head_];
    }
    bool
    can_push(int64_t now) const
    {
        return cap_ - size_ - popped_this(now) > 0;
    }
    void
    push(int64_t now, uint32_t v)
    {
        sync(now);
        if (cap_ - size_ - pops_ <= 0)
            panic("fifo: push without can_push (overrun or same-cycle "
                  "reuse of freed space)");
        int idx = head_ + size_;
        if (idx >= cap_)
            idx -= cap_;
        buf_[idx] = v;
        size_++;
        pushes_++;
    }
    bool empty() const { return size_ == 0; }
    /**
     * At capacity.  Together with empty() this gives the exact value
     * of can_push/can_pop for any *strictly future* cycle: stamps
     * never exceed the current cycle, so pushed_this/popped_this are
     * zero there and the probe reduces to raw occupancy.
     */
    bool full() const { return size_ >= cap_; }
    /** Current occupancy (checker cross-validation). */
    int size() const { return size_; }
    /** Ring invariants hold (occupancy and counters in bounds). */
    bool audit_bounds() const
    {
        return size_ >= 0 && size_ <= cap_ && head_ >= 0 &&
               head_ < cap_ && pushes_ >= 0 && pushes_ <= cap_ &&
               pops_ >= 0 && pops_ <= cap_;
    }

  private:
    int
    pushed_this(int64_t now) const
    {
        return cycle_ == now ? pushes_ : 0;
    }
    int
    popped_this(int64_t now) const
    {
        return cycle_ == now ? pops_ : 0;
    }
    void
    sync(int64_t now)
    {
        if (cycle_ != now) {
            cycle_ = now;
            pushes_ = 0;
            pops_ = 0;
        }
    }

    uint32_t buf_[kMaxCap] = {0, 0, 0, 0};
    int head_ = 0;
    int size_ = 0;
    int cap_;
    /** Cycle the per-cycle counters refer to. */
    int64_t cycle_ = -1;
    int pushes_ = 0;
    int pops_ = 0;
};

/**
 * Multi-channel dynamic-event injection configuration.
 *
 * Four independent fault channels, each driven by its own xorshift64*
 * stream derived from @c seed, so enabling one channel never perturbs
 * another channel's draw sequence and every campaign point is
 * reproducible:
 *  - memory-miss latency: a memory access takes @c penalty extra
 *    cycles with probability @c miss_rate;
 *  - static-network route stalls: after a switch retires, it is held
 *    for @c route_stall_cycles of extra occupancy with probability
 *    @c route_stall_rate (drawn once per retiring cycle, so the
 *    quiescence fast-forward stays draw-free);
 *  - dynamic-network delay: a delivered message (request or reply) is
 *    held @c dyn_delay_cycles extra with probability
 *    @c dyn_delay_rate;
 *  - clock jitter: a tile processor skips its issue opportunity with
 *    probability @c jitter_rate per cycle (models per-tile clock
 *    skew).  Jitter redraws every cycle, so it disables the
 *    quiescence fast-forward and the exact frozen-machine deadlock
 *    detector; the stall-count timeout backstop still applies.
 */
struct FaultConfig
{
    /** Probability a memory access takes extra latency. */
    double miss_rate = 0.0;
    /** Extra cycles per injected miss. */
    int penalty = 20;
    /** RNG seed (deterministic per run; salts all four streams). */
    uint64_t seed = 0;

    /** Probability a retiring switch is held afterwards. */
    double route_stall_rate = 0.0;
    /** Extra switch occupancy per injected route stall. */
    int route_stall_cycles = 3;
    /** Probability a dynamic-network delivery is delayed. */
    double dyn_delay_rate = 0.0;
    /** Extra cycles per injected message delay. */
    int dyn_delay_cycles = 8;
    /** Probability per cycle a tile processor skips its cycle. */
    double jitter_rate = 0.0;

    /** Any channel beyond the legacy memory-miss one enabled? */
    bool multi_channel() const
    {
        return route_stall_rate > 0.0 || dyn_delay_rate > 0.0 ||
               jitter_rate > 0.0;
    }
    /** Any channel at all enabled? */
    bool any() const { return miss_rate > 0.0 || multi_channel(); }
};

/** One kPrint record. */
struct PrintRecord
{
    /** Program point (static print index). */
    int seq = 0;
    /** Dynamic occurrence count of this program point (iterations). */
    int occurrence = 0;
    Type type = Type::kI32;
    uint32_t bits = 0;
};

/** Aggregate statistics of a simulation run. */
struct SimResult
{
    int64_t cycles = 0;
    int64_t instrs_executed = 0;
    int64_t switch_instrs_executed = 0;
    int64_t words_routed = 0;
    int64_t dyn_messages = 0;
    int64_t proc_stall_cycles = 0;
    std::vector<PrintRecord> prints; // sorted by seq
    /** Per-tile cycle attribution (see sim/profile.hpp). */
    SimProfile profile;
    /** Self-check diagnostics (empty unless checkers enabled). */
    std::vector<CheckFailure> check_failures;
    /** Total self-check violations (may exceed recorded failures). */
    int64_t check_failure_count = 0;
    /** Provenance-stream hash (0 unless provenance checking on). */
    uint64_t prov_hash = 0;
    /**
     * Always 0.  They counted the deleted region core's fused runs
     * and remain only because perfbench reads them; they are not
     * part of the cross-backend differential.
     */
    int64_t regions_entered = 0;
    int64_t region_cycles = 0;

    /** Render the print trace, one value per line. */
    std::string print_text() const;
};

/** Thrown when the machine globally stalls. */
class DeadlockError : public FatalError
{
  public:
    explicit DeadlockError(const std::string &msg) : FatalError(msg) {}
    DeadlockError(const std::string &msg, std::string set)
        : FatalError(msg), set_(std::move(set))
    {
    }
    /**
     * The cycle-number-free part of the diagnosis: the blocking
     * cycle found by the wait-for-graph analysis plus the frozen
     * per-unit pc/stall-category list; what() adds the detection
     * cycle.  Both come from the reference core: Simulator::run
     * re-runs a fast core's deadlock there.
     */
    const std::string &deadlock_set() const { return set_; }

  private:
    std::string set_;
};

/**
 * Thrown when a run exceeds its wall-clock budget
 * (Simulator::set_wall_budget_ms).  Distinct from DeadlockError so
 * drivers can report a structured "timeout" outcome: the machine was
 * still making progress, it was just slower than the caller's budget.
 */
class SimTimeoutError : public FatalError
{
  public:
    explicit SimTimeoutError(const std::string &msg) : FatalError(msg)
    {
    }
};

/** Dynamic-network message kinds (encoded in the header word). */
enum class DynKind : uint8_t {
    kLoadReq = 0,
    kStoreReq = 1,
    kLoadReply = 2,
    kStoreAck = 3,
};

/** Header word layout: dst(10) | src(10) | len(4) | kind(2). */
uint32_t dyn_header(int dst, int src, int len, DynKind kind);
int dyn_hdr_dst(uint32_t h);
int dyn_hdr_src(uint32_t h);
int dyn_hdr_len(uint32_t h);
DynKind dyn_hdr_kind(uint32_t h);

/**
 * One plane of the dynamic wormhole network.  Each tile has five
 * input buffers (four neighbors + local injection) and five outputs
 * (four neighbors + local ejection).  Packets are worms: a header
 * word followed by payload words; an output port is owned by one
 * input until the tail passes.  Requests and replies travel on
 * separate planes so the request-reply protocol cannot deadlock.
 */
struct DynPlane
{
    /** Input buffers, indexed [tile][dir]; dir 4 = local inject. */
    std::vector<std::array<Fifo, 5>> in_bufs;
    /** Owning input of each output (-1 free); output 4 = eject. */
    std::vector<std::array<int, 5>> out_owner;
    /** Payload words still to pass on each owned output. */
    std::vector<std::array<int, 5>> out_remaining;
    /** Payload words still to arrive on each input (mid-packet). */
    std::vector<std::array<int, 5>> in_remaining;
    /** Round-robin arbitration pointer per output. */
    std::vector<std::array<int, 5>> rr;
    /** Partially ejected message per tile. */
    std::vector<std::vector<uint32_t>> eject;
    /** Words currently resident in any input buffer (skip if 0). */
    int resident = 0;

    void init(int n_tiles);
};

/**
 * Which execution core drives the simulation.
 *
 * kReference is the original cycle-driven interpreter and the
 * specification: --sim-diff, diff_sim_backends, the test oracles and
 * the deadlock re-run (Simulator::run) all run it.  kThreaded is the
 * fast core: it pre-decodes every tile stream into flat handler
 * records (sim/threaded.cpp) and sleeps stalled units between events.
 * Both produce bit-identical SimResults (cycles, prints, profile
 * sums, provenance hashes) — pinned by tests/test_sim_backend.cpp and
 * the --sim-diff CLI mode — and identical DeadlockError text.
 */
enum class SimBackend : uint8_t { kReference = 0, kThreaded };

/**
 * The core every entry point runs unless told otherwise: the
 * Simulator constructor, the harness, rawcc, serve simulate and
 * bench_wallclock all read this one constant.
 */
constexpr SimBackend kDefaultSimBackend = SimBackend::kThreaded;

/**
 * Parse "reference" or "fast" (the threaded core); "threaded" and
 * the deleted core's name "region" are accepted as spellings of the
 * threaded core.  Throws otherwise.
 */
SimBackend sim_backend_from_string(const std::string &name);
const char *sim_backend_name(SimBackend b);

/** The whole-machine simulator. */
struct ThreadedState; // threaded.cpp: pre-decoded backend state
/** Out-of-line deleter so ThreadedState can stay incomplete here. */
struct ThreadedStateDeleter
{
    void operator()(ThreadedState *p) const;
};

class Simulator
{
  public:
    explicit Simulator(const CompiledProgram &prog,
                       FaultConfig faults = {},
                       CheckConfig checks = {},
                       SimBackend backend = kDefaultSimBackend);
    ~Simulator();

    /**
     * Run to completion; throws DeadlockError on global stall.  When
     * a fast core deadlocks, the program is re-run on a fresh
     * reference-core Simulator (same faults, checks, trace flag,
     * @p max_cycles and remaining wall deadline) and that run's
     * DeadlockError is thrown, so the report always names the
     * reference core's exact freeze cycle.  Successful runs, timeouts
     * and the cycle limit are never re-run.
     */
    SimResult run(int64_t max_cycles = 2000000000LL);

    /**
     * Bound the *wall-clock* time of the next run(): once the budget
     * elapses, the run throws SimTimeoutError at the next poll point
     * (the clock is polled every few thousand simulated cycles, so
     * enforcement lags the deadline by microseconds, not seconds).
     * 0 disables the budget.  Every execution core honors it;
     * rawcc's --point-timeout (one run or each campaign point) and
     * the serve daemon's per-request deadlines are the intended users.
     */
    void set_wall_budget_ms(int64_t ms) { wall_budget_ms_ = ms; }

    /**
     * Absolute steady_clock deadline for the next run(), composed
     * with any budget (whichever is earlier wins).  Zero time_point
     * disables.  Used by serve-mode requests whose deadline started
     * ticking on admission, before the simulation began.
     */
    void
    set_wall_deadline(std::chrono::steady_clock::time_point tp)
    {
        wall_deadline_override_ = tp;
    }

    /**
     * Record per-cycle category spans for Chrome trace export (costs
     * memory proportional to category transitions); call before run().
     */
    void set_trace_enabled(bool on) { stats_.profile.trace_enabled = on; }

    /** Final memory contents of a named array. */
    std::vector<uint32_t> read_array(const std::string &name) const;

    const MemorySystem &memory() const { return mem_; }

  private:
    friend struct ProcStepper;
    friend struct SwitchStepper;
    friend struct DynStepper;
    friend struct ThreadedState;

    // Processor state per tile.
    struct Proc
    {
        int64_t pc = 0;
        bool halted = false;
        bool waiting_dyn = false;
        /** Home tile of the outstanding dynamic request (-1 none). */
        int dyn_home = -1;
        /** Request words still to inject into the request plane. */
        std::vector<uint32_t> inject;
        size_t inject_pos = 0;
        std::vector<uint32_t> regs;
        std::vector<int64_t> busy; // per-register ready cycle
    };
    // Switch state per tile.
    struct Sw
    {
        int64_t pc = 0;
        bool halted = false;
        std::vector<uint32_t> regs;
    };
    // Remote-memory handler + requester state per tile.
    struct DynState
    {
        /** One assembled request with its arrival time (queue delay). */
        struct InMsg
        {
            int64_t arrival = 0;
            std::vector<uint32_t> words;
        };
        /** Fully assembled requests awaiting service. */
        std::deque<InMsg> inbox;
        int64_t handler_free = 0;
        /** Reply words being injected into the reply plane. */
        std::vector<uint32_t> outbox;
        size_t outbox_pos = 0;
        // Reply for the (single outstanding) request of this tile.
        bool reply_ready = false;
        int64_t reply_time = 0;
        uint32_t reply_value = 0;
    };

    /** Outcome of attempting one switch instruction. */
    enum class SwExec : uint8_t { kRetired, kInputWait, kOutputBlocked };

    void step_proc(int tile, int64_t now);
    void step_switch(int tile, int64_t now);
    /** Attempt the switch's current instruction. */
    SwExec exec_switch_instr(int tile, int64_t now);
    void step_dyn(int tile, int64_t now);
    /** Advance one wormhole plane by one cycle. */
    void step_plane(DynPlane &plane, bool is_reply, int64_t now);
    /** Dispatch a fully ejected message. */
    void deliver_dyn(int tile, const std::vector<uint32_t> &msg,
                     int64_t now);

    /** Extra latency injected for a memory access (0 if no fault). */
    int fault_extra();
    /** Extra delay for a dynamic-network delivery (0 if no fault). */
    int dyn_delay_extra();
    /** Extra switch occupancy after a retire (0 if no fault). */
    int route_stall_extra();
    /** Does clock jitter cancel this tile-cycle (fresh draw)? */
    bool jitter_hit();

    /**
     * Throw DeadlockError with a wait-for-graph diagnostic
     * (sim/deadlock.cpp).  @p timeout distinguishes the stall-count
     * backstop from the exact frozen-machine detection.
     */
    [[noreturn]] void report_deadlock(int64_t now, bool timeout,
                                      int64_t stall_limit);

    /** Attribute this cycle of @p tile's processor to @p c. */
    void account_proc(int tile, int64_t now, ProcCycle c);
    /** Attribute this cycle of @p tile's switch to @p c. */
    void account_switch(int tile, int64_t now, SwitchCycle c);
    /** Batched attribution of @p n contiguous cycles from @p begin. */
    void account_proc_n(int tile, int64_t begin, ProcCycle c,
                        int64_t n);
    void account_switch_n(int tile, int64_t begin, SwitchCycle c,
                          int64_t n);
    /** Count a retired processor instruction in the issue histogram. */
    void account_issue(int tile, Op op);

    /** Mark the dynamic interface of @p tile live (inbox/outbox). */
    void wake_dyn(int tile);

    /**
     * Earliest cycle > @p now at which any time-gated condition in
     * the frozen machine flips (scoreboard deadline, pending reply,
     * busy remote-memory handler), or INT64_MAX when none exists
     * (a true deadlock, left to the stall counter).
     */
    int64_t next_wake(int64_t now) const;
    /**
     * Account @p skip no-progress cycles after @p now in one batch:
     * every live unit repeats the stall category it recorded in the
     * frozen cycle, so SimProfile sums stay exact (see
     * docs/performance.md for the invariants).
     */
    void fast_forward(int64_t now, int64_t skip);

    Fifo &in_link(int tile, Dir d);
    Fifo &out_link(int tile, Dir d);

    /** Threaded-code backend entry point (sim/threaded.cpp). */
    SimResult run_threaded(int64_t max_cycles);
    /** The reference core's main loop. */
    SimResult run_reference(int64_t max_cycles);
    /**
     * Deadlock re-run: replay this program on a fresh reference-core
     * Simulator and let its DeadlockError propagate.  Panics if the
     * reference core does not deadlock (a fast-core bug).
     */
    [[noreturn]] void rerun_on_reference(int64_t max_cycles,
                                         const DeadlockError &fast);
    /** Shared run() postlude: idle backfill, print sort, checker. */
    void finish_run(int64_t now);

    /** Resolve budget/override into wall_deadline_ at run() entry. */
    void arm_wall_deadline();
    /**
     * Cheap wall-budget poll: real clock consulted only every
     * kWallPollInterval calls; throws SimTimeoutError past deadline.
     */
    void
    poll_wall_deadline()
    {
        if (!wall_armed_ || ++wall_poll_count_ < kWallPollInterval)
            return;
        wall_poll_count_ = 0;
        check_wall_deadline();
    }
    [[noreturn]] void wall_timeout() const;
    void check_wall_deadline();

    static constexpr int kWallPollInterval = 4096;

    const CompiledProgram &prog_;
    MemorySystem mem_;
    FaultConfig faults_;
    CheckConfig checks_;
    /** Memory-miss channel stream (legacy; sequence is pinned by
     *  tests/goldens, do not reorder its draws). */
    uint64_t rng_;
    // Independent streams for the newer fault channels.
    uint64_t route_rng_;
    uint64_t dyn_rng_;
    uint64_t jitter_rng_;
    /** Injected route stall active until this cycle, per switch. */
    std::vector<int64_t> sw_stall_until_;
    /** Live self-checker; null unless CheckConfig enables one. */
    std::unique_ptr<RuntimeChecker> checker_;

    std::vector<Proc> procs_;
    std::vector<Sw> switches_;
    std::vector<DynState> dyn_;
    DynPlane req_plane_, reply_plane_;
    // Port FIFOs: proc->switch, switch->proc, and per-direction
    // outgoing link FIFOs between neighboring switches.
    std::vector<Fifo> p2s_, s2p_;
    std::vector<std::vector<Fifo>> links_; // [tile][dir 0..3]

    SimResult stats_;
    /** Per-print-point dynamic execution counts (trace ordering). */
    std::vector<int> print_count_;
    bool progress_ = false;
    /** Most recent cycle category per tile (deadlock diagnostics,
     *  fast-forward batch accounting). */
    std::vector<ProcCycle> last_proc_cat_;
    std::vector<SwitchCycle> last_sw_cat_;

    // Active-unit worklists: halted processors/switches leave their
    // list permanently; a tile's dynamic interface is listed only
    // while its inbox or outbox is non-empty.  Membership changes are
    // O(1) swap-removals; step order across tiles is immaterial
    // because port visibility is latched per cycle.
    std::vector<int> active_procs_;
    std::vector<int> active_sw_;
    std::vector<int> active_dyn_;
    std::vector<uint8_t> dyn_listed_;
    /** Tiles whose dyn_net_blocked counter ticked this cycle (one
     *  entry per increment; replayed by fast_forward). */
    std::vector<int> plane_blocked_;

    // Wall-clock budget state (see set_wall_budget_ms).
    int64_t wall_budget_ms_ = 0;
    std::chrono::steady_clock::time_point wall_deadline_override_{};
    std::chrono::steady_clock::time_point wall_deadline_{};
    bool wall_armed_ = false;
    int wall_poll_count_ = 0;

    /** Selected execution core. */
    SimBackend backend_ = kDefaultSimBackend;
    /** Pre-decoded streams + sleep/wake state (threaded backend). */
    std::unique_ptr<ThreadedState, ThreadedStateDeleter> th_;
};

} // namespace raw

#endif // RAW_SIM_SIMULATOR_HPP
