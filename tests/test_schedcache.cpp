/**
 * @file
 * Block-schedule cache tests: key canonicalization (alpha-equivalent
 * blocks hit, scheduling-relevant option changes miss), warm-compile
 * identity, the on-disk tier (survival across a simulated restart,
 * corruption and truncation recovery, concurrent reader/writer/vandal
 * stress, stale-temp sweeping), cache-dir validation, and the PGO
 * candidate dedupe built on options_fingerprint().
 */

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "harness/harness.hpp"
#include "rawcc/schedcache.hpp"
#include "sim/disasm.hpp"
#include "support/error.hpp"

namespace raw {
namespace {

namespace fs = std::filesystem;

// Two loops plus a data-dependent branch: enough blocks to exercise
// partition and schedule entries, small enough to compile fast.
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

// kProg with every identifier renamed; lowers to alpha-equivalent IR.
const char *kProgRenamed = R"(
int B[64];
int j; int t;
for (j = 0; j < 64; j = j + 1) { B[j] = j * 3; }
t = 0;
for (j = 0; j < 64; j = j + 1) {
  if (B[j] > 90) { t = t + B[j]; }
}
print(t);
)";

CompileOutput
compile_with(const char *src, CompilerOptions opts)
{
    return compile_source(src, MachineConfig::base(4), opts);
}

/** Unique empty scratch directory under the test temp root. */
std::string
fresh_dir(const char *tag)
{
    fs::path d = fs::path(::testing::TempDir()) /
                 (std::string("rawsc_") + tag + "_" +
                  std::to_string(::getpid()));
    fs::remove_all(d);
    fs::create_directories(d);
    return d.string();
}

TEST(SchedCache, WarmRecompileHitsEverything)
{
    SchedCache::instance().clear_memory();
    CompilerOptions opts;
    CompileOutput cold = compile_with(kProg, opts);
    EXPECT_GT(cold.stats.cache.part_misses, 0);
    EXPECT_GT(cold.stats.cache.sched_misses, 0);

    CompileOutput warm = compile_with(kProg, opts);
    EXPECT_EQ(warm.stats.cache.part_misses, 0);
    EXPECT_EQ(warm.stats.cache.sched_misses, 0);
    EXPECT_GT(warm.stats.cache.part_hits, 0);
    EXPECT_GT(warm.stats.cache.sched_hits, 0);
    EXPECT_EQ(disasm_program(warm.program),
              disasm_program(cold.program));
}

TEST(SchedCache, AlphaEquivalentSourcesShareEntries)
{
    SchedCache::instance().clear_memory();
    CompilerOptions opts;
    CompileOutput a = compile_with(kProg, opts);
    // Identifier names never enter the cache key, so the renamed
    // program must be a full hit of the first compile.
    CompileOutput b = compile_with(kProgRenamed, opts);
    EXPECT_EQ(b.stats.cache.part_misses, 0);
    EXPECT_EQ(b.stats.cache.sched_misses, 0);
    EXPECT_EQ(b.program.tiles.size(), a.program.tiles.size());
}

TEST(SchedCache, SchedOptionChangeMissesScheduleOnly)
{
    SchedCache::instance().clear_memory();
    CompilerOptions opts;
    compile_with(kProg, opts);

    CompilerOptions changed = opts;
    changed.orch.sched.level_weight *= 2;
    CompileOutput c = compile_with(kProg, changed);
    // Partition entries are keyed only on partition-relevant inputs,
    // so they survive a scheduler priority change; schedule entries
    // must not.
    EXPECT_EQ(c.stats.cache.part_misses, 0);
    EXPECT_GT(c.stats.cache.sched_misses, 0);
}

// Every scheduling option is a schedule-stage input: each must churn
// the schedule key, and none may touch the partition key.
TEST(SchedCache, SchedOptionsChangeScheduleKey)
{
    BlockKey pk;
    pk.h1 = 0x1234567890abcdefULL;
    pk.h2 = 0xfedcba0987654321ULL;
    std::vector<bool> sw = {true, false, true, true};
    auto key = [&](const SchedOptions &so) {
        BlockKey k = block_schedule_key(pk, so, sw);
        return std::make_pair(k.h1, k.h2);
    };

    SchedOptions base;
    auto base_key = key(base);
    EXPECT_EQ(key(base), base_key) << "key must be deterministic";

    std::vector<SchedOptions> variants(4, base);
    variants[0].level_weight++;
    variants[1].fertility_weight++;
    variants[2].fifo_priority = !base.fifo_priority;
    variants[3].sched_iters = 3;
    std::set<std::pair<uint64_t, uint64_t>> keys = {base_key};
    for (const SchedOptions &v : variants)
        keys.insert(key(v));
    EXPECT_EQ(keys.size(), variants.size() + 1)
        << "every option must churn the key, each differently";
}

TEST(SchedCache, PartitionOptionChangeMisses)
{
    SchedCache::instance().clear_memory();
    CompilerOptions opts;
    compile_with(kProg, opts);

    CompilerOptions changed = opts;
    changed.orch.partition.seed = 1234;
    CompileOutput c = compile_with(kProg, changed);
    EXPECT_GT(c.stats.cache.part_misses, 0);
}

TEST(SchedCache, CacheOffMatchesCacheOn)
{
    SchedCache::instance().clear_memory();
    CompilerOptions off;
    off.orch.use_cache = false;
    CompileOutput plain = compile_with(kProg, off);
    EXPECT_EQ(plain.stats.cache.hits() + plain.stats.cache.misses(),
              0);

    CompilerOptions on;
    CompileOutput cold = compile_with(kProg, on);
    CompileOutput warm = compile_with(kProg, on);
    EXPECT_EQ(disasm_program(cold.program),
              disasm_program(plain.program));
    EXPECT_EQ(disasm_program(warm.program),
              disasm_program(plain.program));
}

TEST(SchedCache, ParallelJobsMatchSerial)
{
    SchedCache::instance().clear_memory();
    CompilerOptions serial;
    serial.orch.use_cache = false;
    CompileOutput base = compile_with(kProg, serial);

    for (int jobs : {2, 4}) {
        SchedCache::instance().clear_memory();
        CompilerOptions par;
        par.orch.jobs = jobs;
        CompileOutput c = compile_with(kProg, par);
        EXPECT_EQ(disasm_program(c.program),
                  disasm_program(base.program))
            << "jobs=" << jobs;
    }
}

TEST(SchedCache, DiskTierSurvivesRestart)
{
    std::string dir = fresh_dir("disk");
    SchedCache::instance().clear_memory();
    CompilerOptions opts;
    opts.orch.cache_dir = dir;
    CompileOutput cold = compile_with(kProg, opts);
    EXPECT_GT(cold.stats.cache.bytes_written, 0);

    // Dropping the in-memory tier simulates a fresh process; every
    // entry must come back from disk.
    SchedCache::instance().clear_memory();
    CompileOutput warm = compile_with(kProg, opts);
    EXPECT_EQ(warm.stats.cache.part_misses, 0);
    EXPECT_EQ(warm.stats.cache.sched_misses, 0);
    EXPECT_GT(warm.stats.cache.disk_hits, 0);
    EXPECT_EQ(warm.stats.cache.disk_corrupt, 0);
    EXPECT_EQ(disasm_program(warm.program),
              disasm_program(cold.program));
    fs::remove_all(dir);
}

TEST(SchedCache, CorruptDiskEntriesRecomputedCleanly)
{
    std::string dir = fresh_dir("corrupt");
    SchedCache::instance().clear_memory();
    CompilerOptions opts;
    opts.orch.cache_dir = dir;
    CompileOutput cold = compile_with(kProg, opts);

    // Damage every entry a different way: truncation, checksum
    // flips, garbage, and an empty file.
    int i = 0;
    for (const fs::directory_entry &e : fs::directory_iterator(dir)) {
        std::string path = e.path().string();
        std::ifstream in(path, std::ios::binary);
        std::string body((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
        in.close();
        switch (i++ % 4) {
        case 0:
            body.resize(body.size() / 2); // truncate
            break;
        case 1:
            body[body.size() / 2] ^= 0x5a; // flip payload byte
            break;
        case 2:
            body = "not a cache entry"; // garbage
            break;
        case 3:
            body.clear(); // empty file
            break;
        }
        std::ofstream out(path,
                          std::ios::binary | std::ios::trunc);
        out << body;
    }

    SchedCache::instance().clear_memory();
    CompileOutput again = compile_with(kProg, opts);
    EXPECT_GT(again.stats.cache.disk_corrupt, 0);
    EXPECT_EQ(again.stats.cache.disk_hits, 0);
    // Corruption must never change the program, only cost a
    // recompute (and a rewrite of the damaged entries).
    EXPECT_EQ(disasm_program(again.program),
              disasm_program(cold.program));
    EXPECT_GT(again.stats.cache.bytes_written, 0);

    // The rewritten entries are valid again.
    SchedCache::instance().clear_memory();
    CompileOutput fixed = compile_with(kProg, opts);
    EXPECT_GT(fixed.stats.cache.disk_hits, 0);
    EXPECT_EQ(fixed.stats.cache.disk_corrupt, 0);
    fs::remove_all(dir);
}

TEST(SchedCache, VersionStampMismatchDropsEntry)
{
    std::string dir = fresh_dir("version");
    SchedCache::instance().clear_memory();
    CompilerOptions opts;
    opts.orch.cache_dir = dir;
    compile_with(kProg, opts);

    // Rewrite each entry's version header; everything else is
    // intact, but a stamp mismatch alone must force a recompute.
    for (const fs::directory_entry &e : fs::directory_iterator(dir)) {
        std::string path = e.path().string();
        std::ifstream in(path, std::ios::binary);
        std::string body((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
        in.close();
        size_t at = body.find(kSchedCacheVersion);
        ASSERT_NE(at, std::string::npos);
        body[at + 1] = 'X';
        std::ofstream out(path,
                          std::ios::binary | std::ios::trunc);
        out << body;
    }

    SchedCache::instance().clear_memory();
    CompileOutput again = compile_with(kProg, opts);
    EXPECT_EQ(again.stats.cache.disk_hits, 0);
    EXPECT_GT(again.stats.cache.disk_corrupt, 0);
    fs::remove_all(dir);
}

/** Byte length of the LEB128 varint starting at @p at. */
size_t
varint_len(const std::string &s, size_t at)
{
    size_t n = 1;
    while (at + n <= s.size() && (s[at + n - 1] & 0x80))
        n++;
    return n;
}

/**
 * Re-stamp a current-format entry file with @p version and a valid
 * checksum.  With @p old_layout, a schedule payload also gets the six
 * since-removed software-pipelining fields (zero) after its tile_busy
 * array, as the previous format (rawsc-3) wrote it.
 */
std::string
restamp(const std::string &body, const std::string &version,
        bool old_layout)
{
    const std::string head =
        std::string("RAWSC ") + kSchedCacheVersion + "\n";
    EXPECT_EQ(body.compare(0, head.size(), head), 0);
    const std::string new_head = "RAWSC " + version + "\n";
    std::string out = new_head + body.substr(head.size(),
                                             body.size() - 21 -
                                                 head.size());
    if (old_layout) {
        // "<kind> <klen>\n<key>\n<payload>\n": skip to the payload,
        // then past makespan, the tile count and its busy words.
        size_t hdr = out.find('\n', new_head.size());
        size_t klen = std::stoul(out.substr(new_head.size() + 2));
        size_t at = hdr + 1 + klen + 1;
        at += varint_len(out, at);
        int64_t n_busy = out[at] >> 1; // zigzag, one byte here
        at += varint_len(out, at);
        for (int64_t k = 0; k < n_busy; k++)
            at += varint_len(out, at);
        out.insert(at, std::string(6, '\0'));
    }
    uint64_t h = 1469598103934665603ull; // FNV-1a 64, as the tier
    for (unsigned char ch : out) {
        h ^= ch;
        h *= 1099511628211ull;
    }
    char crc[32];
    std::snprintf(crc, sizeof(crc), "crc %016llx\n",
                  static_cast<unsigned long long>(h));
    return out + crc;
}

// A cache directory left by the previous payload layout must miss
// and be recomputed, never decoded under the current layout: the
// old schedule payload carries six extra fields the current reader
// would take for stream data.
TEST(SchedCache, PreviousFormatEntriesMissAndRecompute)
{
    std::string dir = fresh_dir("rawsc3");
    SchedCache::instance().clear_memory();
    CompilerOptions opts;
    opts.orch.cache_dir = dir;
    const std::string want =
        disasm_program(compile_with(kProg, opts).program);

    int rewritten = 0;
    for (const fs::directory_entry &e : fs::directory_iterator(dir)) {
        std::string path = e.path().string();
        std::ifstream in(path, std::ios::binary);
        std::string body((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
        in.close();
        // Re-stamping with the current version reproduces the file,
        // so the checksum below is valid and only the stamp differs.
        ASSERT_EQ(restamp(body, kSchedCacheVersion, false), body);
        const bool sched = e.path().filename().string()[0] == 's';
        std::ofstream(path, std::ios::binary | std::ios::trunc)
            << restamp(body, "rawsc-3", sched);
        rewritten += sched;
    }
    ASSERT_GT(rewritten, 0);

    SchedCache::instance().clear_memory();
    CompileOutput again = compile_with(kProg, opts);
    EXPECT_EQ(again.stats.cache.disk_hits, 0);
    EXPECT_GT(again.stats.cache.disk_corrupt, 0);
    EXPECT_EQ(disasm_program(again.program), want);

    // The recomputed entries were rewritten in the current format.
    SchedCache::instance().clear_memory();
    CompileOutput fixed = compile_with(kProg, opts);
    EXPECT_GT(fixed.stats.cache.disk_hits, 0);
    EXPECT_EQ(fixed.stats.cache.disk_corrupt, 0);
    EXPECT_EQ(disasm_program(fixed.program), want);
    fs::remove_all(dir);
}

TEST(SchedCache, ValidateCacheDirErrors)
{
    EXPECT_THROW(validate_cache_dir(""), FatalError);
    // A path under /proc cannot be created.
    EXPECT_THROW(validate_cache_dir("/proc/rawsc-no-such-dir"),
                 FatalError);
    // A regular file is not a usable directory.
    std::string dir = fresh_dir("file");
    std::string file = dir + "/plain";
    std::ofstream(file) << "x";
    EXPECT_THROW(validate_cache_dir(file), FatalError);
    // A writable directory validates (and is created on demand).
    EXPECT_NO_THROW(validate_cache_dir(dir + "/sub/dir"));
    fs::remove_all(dir);
}

TEST(SchedCache, PgoCandidatesDuplicateFree)
{
    CompilerOptions base;
    base.pgo = true;
    PlacementFeedback fb;
    fb.comm_penalty = {3, 0, 7, 1};
    fb.proc_penalty = {1, 2, 0, 4};
    for (const PlacementFeedback &f :
         {PlacementFeedback{}, fb}) {
        std::vector<CompilerOptions> cands = pgo_candidates(base, f);
        std::set<std::string> seen;
        for (const CompilerOptions &c : cands) {
            EXPECT_FALSE(c.pgo);
            EXPECT_TRUE(
                seen.insert(options_fingerprint(c)).second)
                << "duplicate candidate fingerprint";
        }
        EXPECT_EQ(seen.size(), cands.size());
    }

    // A base that already carries a portfolio knob collapses the
    // matching candidate instead of racing it twice.
    CompilerOptions pre = base;
    pre.orch.partition.crit_weight = 8;
    size_t plain_n = pgo_candidates(base, fb).size();
    size_t pre_n = pgo_candidates(pre, fb).size();
    EXPECT_LT(pre_n, plain_n);
}

TEST(SchedCache, FingerprintTracksEffectiveOptions)
{
    CompilerOptions a;
    CompilerOptions b;
    EXPECT_EQ(options_fingerprint(a), options_fingerprint(b));
    // Driver-only knobs don't change the fingerprint...
    b.verify_ir = !b.verify_ir;
    b.pgo = !b.pgo;
    b.orch.jobs = 8;
    b.orch.use_cache = false;
    b.orch.cache_dir = "/tmp/x";
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

// Concurrent writers, readers and an active vandal on one shared
// --cache-dir: the serve daemon's workers do exactly this.  Torn or
// damaged entries may cost recomputes (counted as disk_corrupt) but
// must never change the compiled program or crash a compile.
TEST(SchedCache, ConcurrentDiskTierStressStaysConsistent)
{
    std::string dir = fresh_dir("stress");
    SchedCache::instance().clear_memory();
    CompilerOptions opts;
    opts.orch.cache_dir = dir;

    // Reference programs, compiled before the chaos starts.
    const std::string want_a = disasm_program(
        compile_with(kProg, opts).program);
    const std::string want_b = disasm_program(
        compile_with(kProgRenamed, opts).program);

    std::atomic<bool> stop{false};
    std::atomic<int> mismatches{0};
    std::atomic<int> throws{0};

    // Vandal: continuously truncate / byte-flip / vaporize entries
    // while compilers read and rewrite them.
    std::thread vandal([&] {
        namespace fs = std::filesystem;
        uint64_t k = 0;
        while (!stop.load()) {
            std::error_code ec;
            for (const auto &ent : fs::directory_iterator(dir, ec)) {
                if (ec)
                    break;
                std::string path = ent.path().string();
                if (path.find(".tmp") != std::string::npos)
                    continue; // never race a live writer's temp
                switch (k++ % 3) {
                case 0:
                    fs::resize_file(path, 7, ec);
                    break;
                case 1: {
                    std::ofstream f(path, std::ios::binary |
                                              std::ios::app);
                    f << "junk";
                    break;
                }
                case 2:
                    fs::remove(path, ec);
                    break;
                }
            }
            std::this_thread::sleep_for(
                std::chrono::milliseconds(1));
        }
    });

    constexpr int kThreads = 4;
    constexpr int kIters = 6;
    std::vector<std::thread> compilers;
    for (int t = 0; t < kThreads; t++)
        compilers.emplace_back([&, t] {
            for (int i = 0; i < kIters; i++) {
                // Drop the memory tier so every iteration actually
                // exercises the (vandalized) disk tier.
                SchedCache::instance().clear_memory();
                const char *src = (t + i) % 2 ? kProgRenamed : kProg;
                const std::string &want =
                    (t + i) % 2 ? want_b : want_a;
                try {
                    CompileOutput out = compile_with(src, opts);
                    if (disasm_program(out.program) != want)
                        mismatches.fetch_add(1);
                } catch (const std::exception &) {
                    throws.fetch_add(1);
                }
            }
        });
    for (auto &t : compilers)
        t.join();
    stop.store(true);
    vandal.join();

    EXPECT_EQ(mismatches.load(), 0)
        << "disk-tier damage must never change compiled output";
    EXPECT_EQ(throws.load(), 0)
        << "disk-tier damage must never escape as an exception";

    // The directory is still a valid cache after the abuse.
    SchedCache::instance().clear_memory();
    CompileOutput fixed = compile_with(kProg, opts);
    EXPECT_EQ(disasm_program(fixed.program), want_a);
    std::filesystem::remove_all(dir);
}

// Orphaned writer temps (a writer killed mid-publish) are swept by
// validate_cache_dir once they are clearly stale; a fresh temp — a
// live concurrent writer — must survive the sweep.
TEST(SchedCache, StaleTempSweepSparesLiveWriters)
{
    namespace fs = std::filesystem;
    std::string dir = fresh_dir("sweep");

    std::string stale = dir + "/deadbeef.rsc.tmp12345.0";
    std::string live = dir + "/deadbeef.rsc.tmp12345.1";
    {
        std::ofstream(stale, std::ios::binary) << "half-written";
        std::ofstream(live, std::ios::binary) << "half-written";
    }
    // Age the stale temp past the 10-minute sweep threshold.
    fs::last_write_time(
        stale, fs::file_time_type::clock::now() -
                   std::chrono::minutes(60));

    validate_cache_dir(dir);
    EXPECT_FALSE(fs::exists(stale))
        << "orphaned temp must be swept";
    EXPECT_TRUE(fs::exists(live))
        << "a recent temp may belong to a live writer";
    fs::remove_all(dir);
}

} // namespace
} // namespace raw
