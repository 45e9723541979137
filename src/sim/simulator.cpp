#include "sim/simulator.hpp"

#include <algorithm>
#include <sstream>

namespace raw {

namespace {

/** Append n cycles of category @p cat to an RLE span stream. */
void
extend_spans(std::vector<TraceSpan> &spans, int64_t begin, uint8_t cat,
             int64_t n)
{
    if (!spans.empty() && spans.back().cat == cat &&
        spans.back().end == begin)
        spans.back().end = begin + n;
    else
        spans.push_back({begin, begin + n, cat});
}

} // namespace

std::string
SimResult::print_text() const
{
    std::ostringstream os;
    for (const PrintRecord &p : prints) {
        if (p.type == Type::kI32)
            os << bits_int(p.bits) << "\n";
        else
            os << bits_float(p.bits) << "\n";
    }
    return os.str();
}

SimBackend
sim_backend_from_string(const std::string &name)
{
    if (name == "reference")
        return SimBackend::kReference;
    // "region" names a deleted core; perfbench's traced run still
    // spells it, so it stays an alias of the threaded core.
    if (name == "fast" || name == "threaded" || name == "region")
        return SimBackend::kThreaded;
    fatal("unknown simulator backend: " + name +
          " (expected reference or fast)");
}

const char *
sim_backend_name(SimBackend b)
{
    return b == SimBackend::kThreaded ? "threaded" : "reference";
}

Simulator::Simulator(const CompiledProgram &prog, FaultConfig faults,
                     CheckConfig checks, SimBackend backend)
    : prog_(prog),
      mem_(prog.machine.n_tiles, prog.total_words, prog.spill_slots),
      faults_(faults), checks_(checks),
      rng_(faults.seed * 0x9E3779B97F4A7C15ULL + 1),
      route_rng_((faults.seed ^ 0x526F757465ULL) *
                     0x9E3779B97F4A7C15ULL +
                 1),
      dyn_rng_((faults.seed ^ 0x44796E4E6574ULL) *
                   0x9E3779B97F4A7C15ULL +
               1),
      jitter_rng_((faults.seed ^ 0x4A697474ULL) *
                      0x9E3779B97F4A7C15ULL +
                  1),
      backend_(backend)
{
    if (checks.enabled())
        checker_ = std::make_unique<RuntimeChecker>(
            prog.machine.n_tiles, checks);
    const int n = prog_.machine.n_tiles;
    check(static_cast<int>(prog_.tiles.size()) == n &&
              static_cast<int>(prog_.switches.size()) == n,
          "simulator: program does not match machine size");
    procs_.resize(n);
    switches_.resize(n);
    dyn_.resize(n);
    for (int t = 0; t < n; t++) {
        // Size register files by what the program actually touches so
        // inf-reg configurations stay cheap to simulate.
        int max_reg = prog_.machine.num_registers;
        if (max_reg > 256) {
            int used = 31;
            for (const PInstr &in : prog_.tiles[t].code) {
                used = std::max(used, in.dst);
                used = std::max(used, in.src[0]);
                used = std::max(used, in.src[1]);
            }
            max_reg = used + 1;
        }
        procs_[t].regs.assign(max_reg, 0);
        procs_[t].busy.assign(max_reg, 0);
        switches_[t].regs.assign(prog_.machine.num_switch_registers, 0);
        if (prog_.tiles[t].code.empty())
            procs_[t].halted = true;
        if (prog_.switches[t].code.empty())
            switches_[t].halted = true;
    }
    // Size the trace-ordering counters by the largest print tag in
    // the program (hand-assembled programs may not set num_prints).
    int max_seq = prog_.num_prints - 1;
    for (const TileProgram &t : prog_.tiles)
        for (const PInstr &in : t.code)
            max_seq = std::max(max_seq, in.print_seq);
    print_count_.assign(max_seq + 2, 0);
    p2s_.assign(n, Fifo());
    s2p_.assign(n, Fifo());
    links_.assign(n, std::vector<Fifo>(4, Fifo()));
    req_plane_.init(n);
    reply_plane_.init(n);
    stats_.profile.tiles.resize(n);
    for (int t = 0; t < n; t++)
        stats_.profile.tiles[t].route_stalls.assign(
            prog_.switches[t].code.size(), 0);
    last_proc_cat_.assign(n, ProcCycle::kIdle);
    last_sw_cat_.assign(n, SwitchCycle::kIdle);
    sw_stall_until_.assign(n, 0);
    dyn_listed_.assign(n, 0);
    for (int t = 0; t < n; t++) {
        if (!procs_[t].halted)
            active_procs_.push_back(t);
        if (!switches_[t].halted)
            active_sw_.push_back(t);
    }
}

void
Simulator::account_proc(int tile, int64_t now, ProcCycle c)
{
    stats_.profile.tiles[tile].proc_cycles[static_cast<int>(c)]++;
    last_proc_cat_[tile] = c;
    if (stats_.profile.trace_enabled)
        extend_spans(stats_.profile.proc_spans[tile], now,
                     static_cast<uint8_t>(c), 1);
}

void
Simulator::account_switch(int tile, int64_t now, SwitchCycle c)
{
    stats_.profile.tiles[tile].switch_cycles[static_cast<int>(c)]++;
    last_sw_cat_[tile] = c;
    if (stats_.profile.trace_enabled)
        extend_spans(stats_.profile.switch_spans[tile], now,
                     static_cast<uint8_t>(c), 1);
}

void
Simulator::account_proc_n(int tile, int64_t begin, ProcCycle c,
                          int64_t n)
{
    stats_.profile.tiles[tile].proc_cycles[static_cast<int>(c)] += n;
    if (stats_.profile.trace_enabled)
        extend_spans(stats_.profile.proc_spans[tile], begin,
                     static_cast<uint8_t>(c), n);
}

void
Simulator::account_switch_n(int tile, int64_t begin, SwitchCycle c,
                            int64_t n)
{
    stats_.profile.tiles[tile].switch_cycles[static_cast<int>(c)] += n;
    if (stats_.profile.trace_enabled)
        extend_spans(stats_.profile.switch_spans[tile], begin,
                     static_cast<uint8_t>(c), n);
}

void
Simulator::account_issue(int tile, Op op)
{
    stats_.profile.tiles[tile]
        .issued[static_cast<int>(op_class(op))]++;
}

void
Simulator::wake_dyn(int tile)
{
    if (dyn_listed_[tile])
        return;
    dyn_listed_[tile] = 1;
    // Sorted insert: step order must stay ascending (see run()).
    active_dyn_.insert(std::lower_bound(active_dyn_.begin(),
                                        active_dyn_.end(), tile),
                       tile);
}

Fifo &
Simulator::out_link(int tile, Dir d)
{
    return links_[tile][static_cast<int>(d)];
}

Fifo &
Simulator::in_link(int tile, Dir d)
{
    int nb = prog_.machine.neighbor(tile, d);
    check(nb >= 0, "simulator: route reads off-mesh port");
    return links_[nb][static_cast<int>(opposite(d))];
}

namespace {

/**
 * One xorshift64* draw from channel stream @p s: @p extra cycles with
 * probability @p rate, else 0.  Every fault channel uses this exact
 * draw so the legacy memory-miss sequence (pinned by tests/goldens)
 * is unchanged.
 */
inline int
draw_fault(uint64_t &s, double rate, int extra)
{
    s ^= s >> 12;
    s ^= s << 25;
    s ^= s >> 27;
    uint64_t r = s * 0x2545F4914F6CDD1DULL;
    double u = static_cast<double>(r >> 11) / 9007199254740992.0;
    return u < rate ? extra : 0;
}

} // namespace

int
Simulator::fault_extra()
{
    if (faults_.miss_rate <= 0.0)
        return 0;
    return draw_fault(rng_, faults_.miss_rate, faults_.penalty);
}

int
Simulator::dyn_delay_extra()
{
    if (faults_.dyn_delay_rate <= 0.0)
        return 0;
    return draw_fault(dyn_rng_, faults_.dyn_delay_rate,
                      faults_.dyn_delay_cycles);
}

int
Simulator::route_stall_extra()
{
    // Drawn only when a switch retires, so frozen cycles stay
    // draw-free and the quiescence fast-forward remains sound.
    if (faults_.route_stall_rate <= 0.0)
        return 0;
    return draw_fault(route_rng_, faults_.route_stall_rate,
                      faults_.route_stall_cycles);
}

bool
Simulator::jitter_hit()
{
    // Redrawn every cycle for every live processor; run() disables
    // fast-forward and exact deadlock detection when this channel is
    // on because a frozen cycle is no longer draw-free.
    if (faults_.jitter_rate <= 0.0)
        return false;
    return draw_fault(jitter_rng_, faults_.jitter_rate, 1) != 0;
}

int64_t
Simulator::next_wake(int64_t now) const
{
    int64_t wake = INT64_MAX;
    auto consider = [&](int64_t t) {
        if (t > now && t < wake)
            wake = t;
    };
    for (int t : active_procs_) {
        const Proc &p = procs_[t];
        if (p.waiting_dyn) {
            // Pending inject words wait on FIFO space (not time);
            // a posted reply matures at a known cycle.
            const DynState &d = dyn_[t];
            if (p.inject.empty() && d.reply_ready)
                consider(d.reply_time);
            continue;
        }
        const PInstr &in = prog_.tiles[t].code[p.pc];
        for (int r : in.src)
            if (r >= 0)
                consider(p.busy[r]);
    }
    for (int t : active_dyn_) {
        const DynState &d = dyn_[t];
        if (d.outbox_pos >= d.outbox.size() && !d.inbox.empty())
            // A delayed message matures at its arrival time even when
            // the handler is already free.
            consider(std::max(d.handler_free, d.inbox.front().arrival));
    }
    if (faults_.route_stall_rate > 0.0)
        for (int t : active_sw_)
            consider(sw_stall_until_[t]);
    return wake;
}

void
Simulator::fast_forward(int64_t now, int64_t skip)
{
    // Every live unit repeats the frozen cycle's stall verbatim, so
    // replay its per-cycle counters in one batch.  (A frozen cycle
    // has no pushes/pops, no retires, no RNG draws — the only state
    // that advances is `now` itself.)
    for (int t : active_procs_) {
        stats_.proc_stall_cycles += skip;
        account_proc_n(t, now + 1, last_proc_cat_[t], skip);
    }
    for (int t : active_sw_) {
        stats_.profile.tiles[t].route_stalls[switches_[t].pc] += skip;
        account_switch_n(t, now + 1, last_sw_cat_[t], skip);
    }
    for (int t : plane_blocked_)
        stats_.profile.tiles[t].dyn_net_blocked += skip;
}

void
Simulator::finish_run(int64_t now)
{
    const int n = prog_.machine.n_tiles;
    stats_.cycles = now;
    // Tiles whose processor/switch left the worklist stopped
    // accounting; backfill the tail so the per-category sums still
    // total the run's cycle count on every tile.
    for (int t = 0; t < n; t++) {
        TileProfile &tp = stats_.profile.tiles[t];
        int64_t idle = now - tp.proc_total();
        if (idle > 0)
            account_proc_n(t, now - idle, ProcCycle::kIdle, idle);
        idle = now - tp.switch_total();
        if (idle > 0)
            account_switch_n(t, now - idle, SwitchCycle::kIdle, idle);
    }
    // Program order across loop iterations: iteration-k prints come
    // before iteration-k+1 prints, program points break ties.
    std::sort(stats_.prints.begin(), stats_.prints.end(),
              [](const PrintRecord &a, const PrintRecord &b) {
                  if (a.occurrence != b.occurrence)
                      return a.occurrence < b.occurrence;
                  return a.seq < b.seq;
              });
    if (checker_) {
        stats_.check_failure_count = checker_->failure_count();
        stats_.prov_hash = checker_->provenance_hash();
        stats_.check_failures = checker_->take_failures();
    }
}

void
Simulator::arm_wall_deadline()
{
    using clock = std::chrono::steady_clock;
    wall_armed_ = false;
    wall_poll_count_ = 0;
    clock::time_point dl{};
    if (wall_budget_ms_ > 0)
        dl = clock::now() + std::chrono::milliseconds(wall_budget_ms_);
    if (wall_deadline_override_ != clock::time_point{} &&
        (dl == clock::time_point{} || wall_deadline_override_ < dl))
        dl = wall_deadline_override_;
    if (dl != clock::time_point{}) {
        wall_deadline_ = dl;
        wall_armed_ = true;
    }
}

void
Simulator::wall_timeout() const
{
    throw SimTimeoutError(
        "simulator: wall-clock budget exceeded" +
        (wall_budget_ms_ > 0
             ? " (" + std::to_string(wall_budget_ms_) + " ms)"
             : std::string()));
}

void
Simulator::check_wall_deadline()
{
    if (std::chrono::steady_clock::now() >= wall_deadline_)
        wall_timeout();
}

SimResult
Simulator::run(int64_t max_cycles)
{
    arm_wall_deadline();
    if (backend_ == SimBackend::kReference)
        return run_reference(max_cycles);
    try {
        return run_threaded(max_cycles);
    } catch (const DeadlockError &e) {
        rerun_on_reference(max_cycles, e);
    }
}

void
Simulator::rerun_on_reference(int64_t max_cycles,
                              const DeadlockError &fast)
{
    // The fast cores only detect the freeze, at a cycle of their
    // own; the reference core's report (exact cycle, wait-for graph)
    // is the one callers see.
    Simulator ref(prog_, faults_, checks_, SimBackend::kReference);
    ref.set_trace_enabled(stats_.profile.trace_enabled);
    if (wall_armed_)
        ref.set_wall_deadline(wall_deadline_);
    ref.run(max_cycles);
    panic(std::string("simulator: the ") + sim_backend_name(backend_) +
          " core deadlocked but the reference core did not: " +
          fast.what());
}

SimResult
Simulator::run_reference(int64_t max_cycles)
{
    const int n = prog_.machine.n_tiles;
    int64_t now = 0;
    int64_t last_progress = 0;
    // A global stall is only deadlock once every tile has had time to
    // drain its worst-case injected latency; scale the window with
    // the machine size and the worst enabled fault penalty so large
    // fault-injected runs are not misreported as deadlock.
    int64_t worst_penalty = faults_.penalty;
    if (faults_.route_stall_rate > 0.0)
        worst_penalty = std::max<int64_t>(worst_penalty,
                                          faults_.route_stall_cycles);
    if (faults_.dyn_delay_rate > 0.0)
        worst_penalty = std::max<int64_t>(worst_penalty,
                                          faults_.dyn_delay_cycles);
    const int64_t stall_limit = std::max<int64_t>(
        100000,
        static_cast<int64_t>(n) *
            (worst_penalty + prog_.machine.dyn_handler_cycles + 1) *
            1024);

    if (stats_.profile.trace_enabled) {
        stats_.profile.proc_spans.resize(n);
        stats_.profile.switch_spans.resize(n);
        for (int t = 0; t < n; t++) {
            stats_.profile.proc_spans[t].reserve(64);
            stats_.profile.switch_spans[t].reserve(64);
        }
    }

    while (!active_procs_.empty() || !active_sw_.empty() ||
           !active_dyn_.empty()) {
        check(now < max_cycles, "simulator: cycle limit exceeded");
        poll_wall_deadline();
        progress_ = false;
        plane_blocked_.clear();

        // Worklists stay in ascending tile order (ordered erase, not
        // swap-remove): the fault-injection RNG is one global stream,
        // so the cross-tile order of memory accesses within a cycle
        // must match the original 0..n-1 sweep bit for bit.
        for (size_t i = 0; i < active_sw_.size();) {
            int t = active_sw_[i];
            step_switch(t, now);
            if (switches_[t].halted)
                active_sw_.erase(active_sw_.begin() + i);
            else
                i++;
        }
        for (size_t i = 0; i < active_procs_.size();) {
            int t = active_procs_[i];
            step_proc(t, now);
            if (procs_[t].halted)
                active_procs_.erase(active_procs_.begin() + i);
            else
                i++;
        }
        if (req_plane_.resident > 0)
            step_plane(req_plane_, false, now);
        if (reply_plane_.resident > 0)
            step_plane(reply_plane_, true, now);
        for (size_t i = 0; i < active_dyn_.size();) {
            int t = active_dyn_[i];
            step_dyn(t, now);
            const DynState &d = dyn_[t];
            if (d.inbox.empty() && d.outbox.empty()) {
                dyn_listed_[t] = 0;
                active_dyn_.erase(active_dyn_.begin() + i);
            } else {
                i++;
            }
        }

        if (progress_) {
            last_progress = now;
        } else {
            if (now - last_progress > stall_limit)
                // Timeout backstop: covers stalls the exact detector
                // cannot prove frozen (e.g. under clock jitter, which
                // redraws each cycle).
                report_deadlock(now, true, stall_limit);
            // With clock jitter a stalled cycle still draws RNG, so
            // the frozen-state reasoning below does not apply: a
            // jitter-stalled processor may retry next cycle, and a
            // skip would replay draws it never made.
            if (faults_.jitter_rate <= 0.0) {
                int64_t wake = next_wake(now);
                if (wake == INT64_MAX)
                    // Zero progress and nothing time-gated: the
                    // machine state is a provable fixed point.  Every
                    // transition needs a push/pop/retire (which would
                    // have set progress_) or a timed deadline (which
                    // next_wake covers), so this is certain deadlock —
                    // diagnose it now instead of spinning to timeout.
                    report_deadlock(now, false, stall_limit);
                // Quiescence fast-forward: with zero progress this
                // cycle the machine state is frozen, so every cycle
                // up to the earliest time-gated wake replays
                // identically — jump there, batching the identical
                // per-cycle accounting.  Capped so the deadlock
                // window above still fires at the exact cycle the
                // unoptimized loop would have.
                int64_t skip = wake - now - 1;
                skip = std::min(skip,
                                last_progress + stall_limit - now);
                if (skip > 0) {
                    fast_forward(now, skip);
                    now += skip;
                }
            }
        }
        now++;
    }

    finish_run(now);
    return stats_;
}

std::vector<uint32_t>
Simulator::read_array(const std::string &name) const
{
    int a = prog_.find_array(name);
    check(a >= 0, "simulator: unknown array " + name);
    const ArrayLayout &al = prog_.arrays[a];
    std::vector<uint32_t> out(al.size);
    for (int64_t i = 0; i < al.size; i++)
        out[i] = mem_.read_global(al.base + i);
    return out;
}

} // namespace raw
