#include "harness/campaign.hpp"

#include <sstream>

#include "harness/parallel.hpp"
#include "programs/programs.hpp"
#include "serve/json.hpp"

namespace raw {

namespace {

const char *const kChannelNames[5] = {"miss", "route", "dyn",
                                      "jitter", "all"};

std::string
hex64(uint64_t v)
{
    std::ostringstream os;
    os << "0x" << std::hex << v;
    return os.str();
}

const char *
point_channels(int index)
{
    return index == 0 ? "clean" : kChannelNames[(index - 1) % 5];
}

} // namespace

FaultConfig
campaign_point(uint64_t base_seed, int index)
{
    FaultConfig f;
    // Distinct seed per point: replayable from (base_seed, index).
    f.seed = base_seed * 1000003ULL + static_cast<uint64_t>(index);
    if (index == 0)
        return f; // clean reference
    // Channels cycle {miss, route, dyn, jitter, all} at three
    // escalating intensity tiers.
    int combo = (index - 1) % 5;
    int tier = ((index - 1) / 5) % 3;
    static const double kRates[3] = {0.01, 0.1, 0.4};
    static const int kMissPen[3] = {7, 20, 61};
    static const int kRoutePen[3] = {1, 3, 9};
    static const int kDynPen[3] = {2, 8, 31};
    double rate = kRates[tier];
    if (combo == 0 || combo == 4) {
        f.miss_rate = rate;
        f.penalty = kMissPen[tier];
    }
    if (combo == 1 || combo == 4) {
        f.route_stall_rate = rate;
        f.route_stall_cycles = kRoutePen[tier];
    }
    if (combo == 2 || combo == 4) {
        f.dyn_delay_rate = rate;
        f.dyn_delay_cycles = kDynPen[tier];
    }
    if (combo == 3 || combo == 4)
        f.jitter_rate = rate * 0.5;
    return f;
}

bool
CampaignReport::clean() const
{
    for (const CampaignPoint &p : points)
        if (!p.ok())
            return false;
    return !points.empty();
}

int
CampaignReport::failed_points() const
{
    int n = 0;
    for (const CampaignPoint &p : points)
        n += p.ok() ? 0 : 1;
    return n;
}

int
CampaignReport::timeout_points() const
{
    int n = 0;
    for (const CampaignPoint &p : points)
        n += p.timed_out ? 1 : 0;
    return n;
}

std::string
CampaignReport::to_json() const
{
    std::ostringstream os;
    os << "{\n";
    os << "  \"bench\": " << serve::json_quote(bench) << ",\n";
    os << "  \"tiles\": " << tiles << ",\n";
    os << "  \"base_seed\": " << base_seed << ",\n";
    os << "  \"points\": " << points.size() << ",\n";
    os << "  \"failed\": " << failed_points() << ",\n";
    os << "  \"timeouts\": " << timeout_points() << ",\n";
    os << "  \"clean\": " << (clean() ? "true" : "false") << ",\n";
    os << "  \"detail\": [\n";
    for (size_t i = 0; i < points.size(); i++) {
        const CampaignPoint &p = points[i];
        const FaultConfig &f = p.faults;
        os << "    {\"index\": " << p.index << ", \"channels\": \""
           << p.channels << "\", \"seed\": " << f.seed
           << ", \"miss_rate\": " << f.miss_rate
           << ", \"penalty\": " << f.penalty
           << ", \"route_stall_rate\": " << f.route_stall_rate
           << ", \"route_stall_cycles\": " << f.route_stall_cycles
           << ", \"dyn_delay_rate\": " << f.dyn_delay_rate
           << ", \"dyn_delay_cycles\": " << f.dyn_delay_cycles
           << ", \"jitter_rate\": " << f.jitter_rate
           << ", \"cycles\": " << p.cycles
           << ", \"check_failures\": " << p.check_failures
           << ", \"prov_hash\": \"" << hex64(p.prov_hash) << "\""
           << ", \"trace_match\": "
           << (p.trace_match ? "true" : "false")
           << ", \"array_match\": "
           << (p.array_match ? "true" : "false")
           << ", \"hash_match\": " << (p.hash_match ? "true" : "false")
           << ", \"ok\": " << (p.ok() ? "true" : "false")
           << ", \"outcome\": \"" << p.outcome() << "\""
           << ", \"error\": " << serve::json_quote(p.error) << "}"
           << (i + 1 < points.size() ? "," : "") << "\n";
    }
    os << "  ]\n";
    os << "}\n";
    return os.str();
}

std::string
CampaignReport::summary() const
{
    std::ostringstream os;
    os << "fault campaign: " << bench << " on " << tiles << " tiles, "
       << points.size() << " points (base seed " << base_seed
       << "): ";
    if (clean()) {
        os << "all points reproduced the clean reference "
              "(bit-identical prints/arrays/provenance, zero "
              "self-check failures)";
    } else {
        os << failed_points() << " point(s) FAILED";
        if (timeout_points() > 0)
            os << " (" << timeout_points() << " timed out)";
        os << ":";
        for (const CampaignPoint &p : points) {
            if (p.ok())
                continue;
            os << "\n  point " << p.index << " [" << p.channels
               << "]: ";
            if (p.timed_out)
                os << "timeout: " << p.error;
            else if (!p.error.empty())
                os << p.error;
            else if (!p.trace_match)
                os << "print trace diverged from clean reference";
            else if (!p.array_match)
                os << "check-array contents diverged";
            else if (!p.hash_match)
                os << "provenance-stream hash diverged";
            else
                os << p.check_failures << " self-check failure(s)";
        }
    }
    return os.str();
}

CampaignReport
run_fault_campaign(const std::string &bench,
                   const MachineConfig &machine, int n_points,
                   uint64_t base_seed, int jobs,
                   const CompilerOptions &opts,
                   int64_t point_timeout_ms)
{
    const BenchmarkProgram &bp = benchmark(bench);
    // One compile; the program is immutable and shared by every
    // point's Simulator across worker threads.
    CompileOutput out = compile_source(bp.source, machine, opts);

    CampaignReport rep;
    rep.bench = bench;
    rep.tiles = machine.n_tiles;
    rep.base_seed = base_seed;
    if (n_points <= 0)
        return rep;
    rep.points.resize(n_points);
    for (int i = 0; i < n_points; i++) {
        rep.points[i].index = i;
        rep.points[i].faults = campaign_point(base_seed, i);
        rep.points[i].channels = point_channels(i);
    }

    struct PointOut
    {
        std::string prints;
        std::vector<uint32_t> words;
    };
    std::vector<PointOut> res(n_points);
    CheckConfig checks;
    checks.provenance = true;
    checks.fifo_bounds = true;

    auto run_point = [&](int i) {
        CampaignPoint &pt = rep.points[i];
        Simulator sim(out.program, pt.faults, checks);
        if (point_timeout_ms > 0)
            sim.set_wall_budget_ms(point_timeout_ms);
        SimResult sr;
        try {
            sr = sim.run();
        } catch (const SimTimeoutError &e) {
            // Structured outcome: the point exceeded its wall-clock
            // budget; the sweep continues, the report says so.
            pt.timed_out = true;
            pt.error = e.what();
            return;
        }
        pt.cycles = sr.cycles;
        pt.check_failures = sr.check_failure_count;
        pt.prov_hash = sr.prov_hash;
        res[i].prints = sr.print_text();
        if (!bp.check_array.empty() &&
            out.program.find_array(bp.check_array) >= 0)
            res[i].words = sim.read_array(bp.check_array);
        if (!sr.check_failures.empty())
            pt.error = sr.check_failures.front().to_string();
    };

    // The clean reference runs first (it defines what every fault
    // point must reproduce), then the fault points fan out.
    std::vector<std::string> ref_err =
        run_parallel_collect(1, 1, run_point);
    std::vector<std::string> errs = run_parallel_collect(
        n_points - 1, resolve_jobs(jobs),
        [&](int k) { run_point(k + 1); });

    for (int i = 0; i < n_points; i++) {
        CampaignPoint &pt = rep.points[i];
        const std::string &err = i == 0 ? ref_err[0] : errs[i - 1];
        if (!err.empty() && pt.error.empty())
            pt.error = err;
        if (!err.empty())
            continue; // run died; comparisons stay false
        if (!ref_err[0].empty())
            continue; // no reference to compare against
        pt.trace_match = res[i].prints == res[0].prints;
        pt.array_match = res[i].words == res[0].words;
        pt.hash_match = pt.prov_hash == rep.points[0].prov_hash;
    }
    return rep;
}

} // namespace raw
