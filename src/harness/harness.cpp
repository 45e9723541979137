#include "harness/harness.hpp"

#include <array>
#include <map>
#include <mutex>
#include <sstream>

#include "sim/profile.hpp"

#include "support/error.hpp"

namespace raw {

namespace {

RunResult
simulate(CompileOutput out, const std::string &check_array,
         const FaultConfig &faults, const CheckConfig &checks = {},
         SimBackend backend = kDefaultSimBackend)
{
    RunResult r;
    r.stats = out.stats;
    Simulator sim(out.program, faults, checks, backend);
    r.sim = sim.run();
    r.cycles = r.sim.cycles;
    if (!check_array.empty() &&
        out.program.find_array(check_array) >= 0)
        r.check_words = sim.read_array(check_array);
    r.prints = r.sim.print_text();
    return r;
}

} // namespace

RunResult
run_rawcc(const std::string &source, const MachineConfig &machine,
          const std::string &check_array, const CompilerOptions &opts,
          const FaultConfig &faults, const CheckConfig &checks,
          SimBackend backend)
{
    return simulate(compile_source(source, machine, opts), check_array,
                    faults, checks, backend);
}

SimResult
diff_sim_backends(const CompiledProgram &prog,
                  const FaultConfig &faults, const CheckConfig &checks,
                  bool trace, int64_t wall_budget_ms)
{
    Simulator ref(prog, faults, checks, SimBackend::kReference);
    ref.set_trace_enabled(trace);
    ref.set_wall_budget_ms(wall_budget_ms);
    SimResult a = ref.run();

    // The threaded core is held to the reference's bit-identical bar.
    const std::string bn = sim_backend_name(SimBackend::kThreaded);
    Simulator alt(prog, faults, checks, SimBackend::kThreaded);
    alt.set_trace_enabled(trace);
    alt.set_wall_budget_ms(wall_budget_ms);
    SimResult b = alt.run();

    auto mismatch = [&](const std::string &what, int64_t va,
                        int64_t vb) {
        fatal("sim backend divergence: " + what + ": reference " +
              std::to_string(va) + " vs " + bn + " " +
              std::to_string(vb));
    };
    auto require = [&](const std::string &what, int64_t va,
                       int64_t vb) {
        if (va != vb)
            mismatch(what, va, vb);
    };
    require("cycles", a.cycles, b.cycles);
    require("instrs_executed", a.instrs_executed,
            b.instrs_executed);
    require("switch_instrs_executed", a.switch_instrs_executed,
            b.switch_instrs_executed);
    require("words_routed", a.words_routed, b.words_routed);
    require("dyn_messages", a.dyn_messages, b.dyn_messages);
    require("proc_stall_cycles", a.proc_stall_cycles,
            b.proc_stall_cycles);
    require("check_failure_count", a.check_failure_count,
            b.check_failure_count);
    if (a.prov_hash != b.prov_hash)
        fatal("sim backend divergence: prov_hash (" + bn + ")");
    if (a.print_text() != b.print_text())
        fatal("sim backend divergence: print trace:\n"
              "--- reference\n" +
              a.print_text() + "--- " + bn + "\n" +
              b.print_text());
    for (size_t t = 0; t < a.profile.tiles.size(); t++) {
        const TileProfile &ta = a.profile.tiles[t];
        const TileProfile &tb = b.profile.tiles[t];
        std::string at = "tile " + std::to_string(t) + " ";
        for (int c = 0; c < kNumProcCycleCats; c++)
            if (ta.proc_cycles[c] != tb.proc_cycles[c])
                mismatch(at + "proc_cycles[" + std::to_string(c) +
                             "]",
                         ta.proc_cycles[c], tb.proc_cycles[c]);
        for (int c = 0; c < kNumSwitchCycleCats; c++)
            if (ta.switch_cycles[c] != tb.switch_cycles[c])
                mismatch(at + "switch_cycles[" +
                             std::to_string(c) + "]",
                         ta.switch_cycles[c], tb.switch_cycles[c]);
        for (int c = 0; c < kNumOpClasses; c++)
            if (ta.issued[c] != tb.issued[c])
                mismatch(at + "issued[" + std::to_string(c) + "]",
                         ta.issued[c], tb.issued[c]);
        if (ta.route_stalls != tb.route_stalls)
            fatal("sim backend divergence: " + at +
                  "route_stalls (" + bn + ")");
        require(at + "words_routed", ta.words_routed,
                tb.words_routed);
        require(at + "dyn_net_blocked", ta.dyn_net_blocked,
                tb.dyn_net_blocked);
        require(at + "dyn_requests_served",
                ta.dyn_requests_served, tb.dyn_requests_served);
        require(at + "dyn_handler_busy", ta.dyn_handler_busy,
                tb.dyn_handler_busy);
        require(at + "dyn_queue_wait", ta.dyn_queue_wait,
                tb.dyn_queue_wait);
        require(at + "dyn_max_queue", ta.dyn_max_queue,
                tb.dyn_max_queue);
    }
    for (const ArrayLayout &arr : prog.arrays)
        if (ref.read_array(arr.name) != alt.read_array(arr.name))
            fatal("sim backend divergence: array '" + arr.name +
                  "' (" + bn + ")");
    return a;
}

RunResult
run_baseline(const std::string &source, const std::string &check_array,
             const FaultConfig &faults)
{
    return simulate(compile_baseline(source), check_array, faults);
}

const RunResult &
cached_baseline(const BenchmarkProgram &prog)
{
    // std::map nodes are reference-stable, so entries may be handed
    // out while later insertions happen.  The lock covers the whole
    // compile+simulate on a miss: baselines are cheap, and serializing
    // them keeps the first fill race-free.
    static std::mutex mu;
    static std::map<std::string, RunResult> cache;
    std::lock_guard<std::mutex> lock(mu);
    auto it = cache.find(prog.name);
    if (it == cache.end())
        it = cache
                 .emplace(prog.name,
                          run_baseline(prog.source, prog.check_array))
                 .first;
    return it->second;
}

double
verified_speedup(const BenchmarkProgram &prog,
                 const MachineConfig &machine,
                 const CompilerOptions &opts, const FaultConfig &faults)
{
    const RunResult &base = cached_baseline(prog);
    RunResult par =
        run_rawcc(prog.source, machine, prog.check_array, opts, faults);
    if (base.check_words != par.check_words) {
        std::ostringstream os;
        os << prog.name << " on " << machine.name()
           << ": result mismatch in array '" << prog.check_array
           << "'";
        for (size_t i = 0;
             i < base.check_words.size() && i < par.check_words.size();
             i++) {
            if (base.check_words[i] != par.check_words[i]) {
                os << " (first at index " << i << ": base 0x"
                   << std::hex << base.check_words[i] << " vs 0x"
                   << par.check_words[i] << ")";
                break;
            }
        }
        fatal(os.str());
    }
    if (base.prints != par.prints)
        fatal(prog.name + " on " + machine.name() +
              ": print trace mismatch:\n--- baseline\n" + base.prints +
              "--- rawcc\n" + par.prints);
    return static_cast<double>(base.cycles) /
           static_cast<double>(par.cycles);
}

std::string
golden_summary(const std::string &bench, int tiles,
               const FaultConfig &faults, const SimResult &s)
{
    std::ostringstream out;
    out << "bench " << bench << "\n";
    out << "tiles " << tiles << "\n";
    out << "miss_rate " << faults.miss_rate << "\n";
    // Newer fault channels print only when enabled so every golden
    // that predates them stays byte-identical.
    if (faults.multi_channel()) {
        out << "route_stall " << faults.route_stall_rate << " "
            << faults.route_stall_cycles << "\n";
        out << "dyn_delay " << faults.dyn_delay_rate << " "
            << faults.dyn_delay_cycles << "\n";
        out << "jitter " << faults.jitter_rate << "\n";
    }
    out << "cycles " << s.cycles << "\n";
    out << "instrs " << s.instrs_executed << "\n";
    out << "switch_instrs " << s.switch_instrs_executed << "\n";
    out << "words_routed " << s.words_routed << "\n";
    out << "dyn_messages " << s.dyn_messages << "\n";
    out << "proc_stalls " << s.proc_stall_cycles << "\n";
    std::array<int64_t, kNumProcCycleCats> pc{};
    std::array<int64_t, kNumSwitchCycleCats> sc{};
    std::array<int64_t, kNumOpClasses> is{};
    for (const TileProfile &tp : s.profile.tiles) {
        for (int c = 0; c < kNumProcCycleCats; c++)
            pc[c] += tp.proc_cycles[c];
        for (int c = 0; c < kNumSwitchCycleCats; c++)
            sc[c] += tp.switch_cycles[c];
        for (int c = 0; c < kNumOpClasses; c++)
            is[c] += tp.issued[c];
    }
    out << "proc_cats";
    for (int64_t v : pc)
        out << " " << v;
    out << "\nswitch_cats";
    for (int64_t v : sc)
        out << " " << v;
    out << "\nissued";
    for (int64_t v : is)
        out << " " << v;
    std::string prints = s.print_text();
    out << "\nprint_bytes " << prints.size() << "\n";
    out << prints;
    return out.str();
}

} // namespace raw
