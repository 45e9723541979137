#include "rawcc/schedcache.hpp"

#include <algorithm>
#include <cstring>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "support/error.hpp"

namespace raw {

void
SchedCacheCounters::add(const SchedCacheCounters &o)
{
    part_hits += o.part_hits;
    part_misses += o.part_misses;
    sched_hits += o.sched_hits;
    sched_misses += o.sched_misses;
}

// ---------------------------------------------------------------
// Canonical renumbering.
// ---------------------------------------------------------------

namespace {

/** Binary search in a sorted (id, canon) vector; -1 when absent. */
template <typename Id>
int32_t
lookup_canon(const std::vector<std::pair<Id, int32_t>> &sorted, Id id)
{
    auto it = std::lower_bound(
        sorted.begin(), sorted.end(), id,
        [](const std::pair<Id, int32_t> &e, Id k) { return e.first < k; });
    if (it == sorted.end() || it->first != id)
        return -1;
    return it->second;
}

} // namespace

int32_t
BlockCanon::canon_value(ValueId v) const
{
    if (v == kNoValue)
        return -1;
    int32_t c = lookup_canon(value_lookup, v);
    check(c >= 0, "schedcache: stream value not in block canon");
    return c;
}

int32_t
BlockCanon::find_value(ValueId v) const
{
    if (v == kNoValue)
        return -1;
    return lookup_canon(value_lookup, v);
}

ValueId
BlockCanon::value_of(int32_t canon) const
{
    if (canon < 0)
        return kNoValue;
    check(canon < static_cast<int32_t>(canon_to_value.size()),
          "schedcache: canonical value out of range");
    return canon_to_value[canon];
}

int32_t
BlockCanon::canon_array(int32_t a) const
{
    if (a < 0)
        return a; // includes kSpillArray
    int32_t c = lookup_canon(array_lookup, a);
    check(c >= 0, "schedcache: stream array not in block canon");
    return c;
}

int32_t
BlockCanon::array_of(int32_t canon) const
{
    if (canon < 0)
        return canon;
    check(canon < static_cast<int32_t>(canon_to_array.size()),
          "schedcache: canonical array out of range");
    return canon_to_array[canon];
}

BlockCanon
block_canon(const Function &fn, int b, const std::vector<VInstr> &tail,
            const std::vector<int> &pseq)
{
    // First-appearance dedup via an epoch-stamped dense scratch
    // (thread-local: one array per worker, reused across blocks, no
    // per-block allocation once grown).  A hash map here costs one
    // node allocation per distinct id, thousands per compile.
    thread_local std::vector<uint64_t> vstamp, astamp;
    thread_local uint64_t epoch = 0;
    epoch++;
    if (vstamp.size() < fn.values.size())
        vstamp.resize(fn.values.size(), 0);

    BlockCanon c;
    auto note_value = [&](ValueId v) {
        if (v == kNoValue)
            return;
        if (v >= static_cast<ValueId>(vstamp.size()))
            vstamp.resize(v + 1, 0);
        if (vstamp[v] != epoch) {
            vstamp[v] = epoch;
            c.canon_to_value.push_back(v);
        }
    };
    auto note_array = [&](int32_t a) {
        if (a < 0)
            return;
        if (a >= static_cast<int32_t>(astamp.size()))
            astamp.resize(a + 1, 0);
        if (astamp[a] != epoch) {
            astamp[a] = epoch;
            c.canon_to_array.push_back(a);
        }
    };
    for (const Instr &in : fn.blocks[b].instrs) {
        note_value(in.src[0]);
        note_value(in.src[1]);
        if (in.has_dst())
            note_value(in.dst);
        note_array(in.array);
    }
    for (const VInstr &v : tail) {
        note_value(v.src[0]);
        note_value(v.src[1]);
        note_value(v.dst);
        note_array(v.array);
    }
    for (size_t k = 0; k < fn.blocks[b].instrs.size(); k++)
        if (pseq[k] >= 0) {
            c.print_base = pseq[k];
            break;
        }
    c.value_lookup.reserve(c.canon_to_value.size());
    for (size_t i = 0; i < c.canon_to_value.size(); i++)
        c.value_lookup.emplace_back(c.canon_to_value[i],
                                    static_cast<int32_t>(i));
    std::sort(c.value_lookup.begin(), c.value_lookup.end());
    c.array_lookup.reserve(c.canon_to_array.size());
    for (size_t i = 0; i < c.canon_to_array.size(); i++)
        c.array_lookup.emplace_back(c.canon_to_array[i],
                                    static_cast<int32_t>(i));
    std::sort(c.array_lookup.begin(), c.array_lookup.end());
    return c;
}

// ---------------------------------------------------------------
// Key construction.
// ---------------------------------------------------------------

namespace {

constexpr uint64_t kFnvBasis = 1469598103934665603ull;
constexpr uint64_t kFnvBasis2 = 0x9e3779b97f4a7c15ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

/**
 * Streams key content into the two FNV digests.  The digests run
 * over the raw field bytes, so building a key never formats a digit.
 */
struct KeySink
{
    uint64_t h1 = kFnvBasis;
    uint64_t h2 = kFnvBasis2;

    void
    raw(const void *p, size_t n)
    {
        const unsigned char *c = static_cast<const unsigned char *>(p);
        uint64_t a = h1, b = h2;
        for (size_t k = 0; k < n; k++) {
            a = (a ^ c[k]) * kFnvPrime;
            b = (b ^ c[k]) * kFnvPrime;
        }
        h1 = a;
        h2 = b;
    }

    void lit(const char *s) { raw(s, std::strlen(s)); }

    void num(int64_t v) { raw(&v, sizeof v); }

    void
    bit(bool v)
    {
        char c = v ? '1' : '0';
        raw(&c, 1);
    }
};

void
app_instr(KeySink &s, const BlockCanon &canon, int op, int type,
          int32_t csrc0, int32_t csrc1, int32_t cdst, uint32_t imm,
          int32_t array)
{
    s.num(op);
    s.num(type);
    s.num(csrc0);
    s.num(csrc1);
    s.num(cdst);
    s.num(static_cast<int64_t>(imm));
    s.num(canon.canon_array(array));
}

} // namespace

BlockKey
block_partition_key(const Function &fn, int b,
                    const std::vector<VInstr> &tail,
                    const BlockCanon &canon,
                    const MachineConfig &machine, const HomeMap &homes,
                    const ReplicationAnalysis &repl,
                    const VarLiveness &live,
                    const std::vector<int> &svreg_of, int svreg_count,
                    const PartitionOptions &popts)
{
    BlockKey k;
    KeySink s;
    s.lit("|m:");
    s.num(svreg_count);
    s.num(machine.n_tiles);
    s.num(machine.rows);
    s.num(machine.cols);
    s.num(machine.num_registers);
    s.num(machine.num_switch_registers);
    s.num(machine.unit_latency);
    s.num(machine.switch_dual_issue);
    s.num(machine.dyn_handler_cycles);
    s.num(machine.dyn_header_cycles);
    s.lit("|p:");
    s.num(static_cast<int>(popts.cluster_mode));
    s.num(static_cast<int>(popts.place_mode));
    s.num(popts.seed);
    s.num(popts.crit_weight);
    s.num(static_cast<int64_t>(popts.feedback.comm_penalty.size()));
    for (int64_t v : popts.feedback.comm_penalty)
        s.num(v);
    s.num(static_cast<int64_t>(popts.feedback.proc_penalty.size()));
    for (int64_t v : popts.feedback.proc_penalty)
        s.num(v);
    const Block &blk = fn.blocks[b];
    s.lit("|b:");
    s.num(repl.branch_replicated(b));
    s.num(static_cast<int64_t>(blk.instrs.size()));
    for (const Instr &in : blk.instrs)
        app_instr(s, canon, static_cast<int>(in.op),
                  static_cast<int>(in.type),
                  canon.canon_value(in.src[0]),
                  canon.canon_value(in.src[1]),
                  in.has_dst() ? canon.canon_value(in.dst) : -1,
                  in.imm_bits, in.array);
    s.lit("|t:");
    s.num(static_cast<int64_t>(tail.size()));
    for (const VInstr &v : tail)
        app_instr(s, canon, static_cast<int>(v.op),
                  static_cast<int>(v.type), canon.canon_value(v.src[0]),
                  canon.canon_value(v.src[1]), canon.canon_value(v.dst),
                  v.imm, v.array);
    s.lit("|f:");
    for (const EntryFact &ef : blk.entry_facts) {
        int32_t cv = canon.find_value(ef.var);
        if (cv < 0)
            continue; // var unused in the block: fact can't matter
        s.num(cv);
        s.num(ef.cong.residue);
        s.num(ef.cong.modulus);
    }
    s.lit("|v:");
    s.num(static_cast<int64_t>(canon.canon_to_value.size()));
    for (ValueId v : canon.canon_to_value) {
        const ValueInfo &vi = fn.values[v];
        s.num(static_cast<int>(vi.type));
        s.num(vi.is_var);
        if (vi.is_var) {
            bool rep = repl.var_replicated(v);
            s.num(rep);
            s.num(rep ? -1 : homes.var_home[v]);
            s.num(v < static_cast<ValueId>(svreg_of.size())
                      ? svreg_of[v]
                      : -1);
            s.num(live.live_in(b, v));
            s.num(live.live_out(b, v));
        }
    }
    s.lit("|a:");
    s.num(static_cast<int64_t>(canon.canon_to_array.size()));
    for (int32_t a : canon.canon_to_array) {
        s.num(homes.array_base[a]);
        // Dynamic references are pinned to tile (array id mod N).
        s.num(a % homes.n_tiles);
    }
    k.h1 = s.h1;
    k.h2 = s.h2;
    return k;
}

BlockKey
block_schedule_key(const BlockKey &part_key, const SchedOptions &so,
                   const std::vector<bool> &switch_active)
{
    BlockKey k;
    KeySink s;
    s.h1 = part_key.h1;
    s.h2 = part_key.h2;
    s.lit("|s:");
    s.num(so.level_weight);
    s.num(so.fertility_weight);
    s.num(so.fifo_priority);
    s.num(so.sched_iters);
    s.lit("|w:");
    s.num(static_cast<int64_t>(switch_active.size()));
    for (bool v : switch_active)
        s.bit(v);
    k.h1 = s.h1;
    k.h2 = s.h2;
    return k;
}

// ---------------------------------------------------------------
// Stream dehydration / rehydration.
// ---------------------------------------------------------------

namespace {

int32_t
slot_to_target(int32_t slot, const Instr &term)
{
    if (slot == kTargetSlot0)
        return term.target[0];
    if (slot == kTargetSlot1)
        return term.target[1];
    check(slot < 0, "schedcache: cached stream carries a raw target");
    return slot;
}

/**
 * Terminator slot of a stream instruction's target, chosen by role:
 * the conditional branch takes target[0], the jump after it
 * target[1], and a lone jump target[0].  The target value alone is
 * ambiguous when both branch targets name one block, and an entry
 * slotted by value there would send the taken branch of every other
 * block hitting it to that block's fall-through target.
 */
int32_t
target_to_slot(int32_t target, bool is_jump, const Instr &term)
{
    if (target < 0)
        return target;
    int32_t slot = is_jump && term.op == Op::kBranch ? kTargetSlot1
                                                     : kTargetSlot0;
    check(slot_to_target(slot, term) == target,
          "schedcache: stream target is not its terminator slot");
    return slot;
}

} // namespace

SchedEntry
dehydrate_streams(const BlockCanon &canon, const Instr &term,
                  const BlockSchedule &sched,
                  const std::vector<std::vector<VInstr>> &tiles,
                  const std::vector<std::vector<SInstr>> &switches)
{
    SchedEntry e;
    e.makespan = sched.makespan;
    e.tile_busy = sched.tile_busy;
    e.tiles.resize(tiles.size());
    for (size_t t = 0; t < tiles.size(); t++) {
        e.tiles[t].reserve(tiles[t].size());
        for (VInstr v : tiles[t]) {
            v.dst = canon.canon_value(v.dst);
            v.src[0] = canon.canon_value(v.src[0]);
            v.src[1] = canon.canon_value(v.src[1]);
            v.array = canon.canon_array(v.array);
            if (v.print_seq >= 0)
                v.print_seq -= canon.print_base;
            v.target_block = target_to_slot(
                v.target_block, v.op == Op::kJump, term);
            e.tiles[t].push_back(v);
        }
    }
    e.switches.resize(switches.size());
    for (size_t t = 0; t < switches.size(); t++) {
        e.switches[t].reserve(switches[t].size());
        for (SInstr si : switches[t]) {
            si.target = si.target < 0
                            ? si.target
                            : target_to_slot(
                                  static_cast<int32_t>(si.target),
                                  si.k == SInstr::K::kJump, term);
            e.switches[t].push_back(std::move(si));
        }
    }
    return e;
}

// rehydrate_sched_payload lives below the serialization helpers; it
// decodes payload bytes directly, so it needs the Reader.

// ---------------------------------------------------------------
// Entry serialization.
// ---------------------------------------------------------------

namespace {

/**
 * Payload number encoding: zigzag varint (LEB128).  Entries are
 * parsed on every memory-tier hit, so decode speed is the hit path;
 * a one-byte fast path covers nearly every field (ids, opcodes,
 * tile indices are all small).
 */
void
put(std::string &s, int64_t v)
{
    uint64_t u = (static_cast<uint64_t>(v) << 1) ^
                 static_cast<uint64_t>(v >> 63);
    while (u >= 0x80) {
        s.push_back(static_cast<char>(u | 0x80));
        u >>= 7;
    }
    s.push_back(static_cast<char>(u));
}

struct Reader
{
    const char *p;
    const char *end;
    bool ok = true;

    int64_t
    i()
    {
        if (p < end) {
            unsigned char b0 = static_cast<unsigned char>(*p);
            if (b0 < 0x80) {
                p++;
                return static_cast<int64_t>(b0 >> 1) ^
                       -static_cast<int64_t>(b0 & 1);
            }
        }
        uint64_t u = 0;
        int shift = 0;
        for (;;) {
            if (p >= end || shift > 63) {
                ok = false;
                return 0;
            }
            unsigned char b = static_cast<unsigned char>(*p++);
            u |= static_cast<uint64_t>(b & 0x7f) << shift;
            if (!(b & 0x80))
                break;
            shift += 7;
        }
        return static_cast<int64_t>(u >> 1) ^
               -static_cast<int64_t>(u & 1);
    }
};

void
serialize_part(std::string &s, const PartEntry &e)
{
    put(s, static_cast<int64_t>(e.tile_of.size()));
    for (int32_t t : e.tile_of)
        put(s, t);
    put(s, e.cross_edges);
    put(s, e.swaps_evaluated);
    put(s, e.probe_valid ? 1 : 0);
    put(s, static_cast<int64_t>(e.probe_switch.size()));
    for (uint8_t v : e.probe_switch)
        put(s, v);
    put(s, static_cast<int64_t>(e.votes.size()));
    for (const auto &v : e.votes) {
        put(s, v[0]);
        put(s, v[1]);
        put(s, v[2]);
    }
}

bool
parse_part(Reader &r, PartEntry &e)
{
    int64_t n = r.i();
    if (!r.ok || n < 0 || n > (1 << 28))
        return false;
    e.tile_of.resize(n);
    for (int64_t k = 0; k < n; k++)
        e.tile_of[k] = static_cast<int32_t>(r.i());
    e.cross_edges = static_cast<int32_t>(r.i());
    e.swaps_evaluated = r.i();
    e.probe_valid = r.i() != 0;
    n = r.i();
    if (!r.ok || n < 0 || n > (1 << 20))
        return false;
    e.probe_switch.resize(n);
    for (int64_t k = 0; k < n; k++)
        e.probe_switch[k] = static_cast<uint8_t>(r.i());
    n = r.i();
    if (!r.ok || n < 0 || n > (1 << 28))
        return false;
    e.votes.resize(n);
    for (int64_t k = 0; k < n; k++) {
        e.votes[k][0] = r.i();
        e.votes[k][1] = r.i();
        e.votes[k][2] = r.i();
    }
    return r.ok;
}

void
serialize_sched(std::string &s, const SchedEntry &e)
{
    put(s, e.makespan);
    put(s, static_cast<int64_t>(e.tile_busy.size()));
    for (int64_t v : e.tile_busy)
        put(s, v);
    put(s, static_cast<int64_t>(e.tiles.size()));
    for (const auto &code : e.tiles) {
        put(s, static_cast<int64_t>(code.size()));
        for (const VInstr &v : code) {
            put(s, static_cast<int>(v.op));
            put(s, static_cast<int>(v.type));
            put(s, v.dst);
            put(s, v.src[0]);
            put(s, v.src[1]);
            put(s, static_cast<int64_t>(v.imm));
            put(s, v.array);
            put(s, v.print_seq);
            put(s, v.target_block);
        }
    }
    put(s, static_cast<int64_t>(e.switches.size()));
    for (const auto &code : e.switches) {
        put(s, static_cast<int64_t>(code.size()));
        for (const SInstr &si : code) {
            put(s, static_cast<int>(si.k));
            put(s, static_cast<int>(si.op));
            put(s, si.dst);
            put(s, si.a);
            put(s, si.b);
            put(s, static_cast<int64_t>(si.imm));
            put(s, si.cond);
            put(s, si.target);
            put(s, static_cast<int64_t>(si.routes.size()));
            for (const RoutePair &rp : si.routes) {
                put(s, static_cast<int>(rp.in));
                put(s, rp.out_mask);
                put(s, rp.reg_dst);
            }
        }
    }
}

// Schedule payloads are decoded only by rehydrate_sched_payload
// (defined after this namespace), which fuses parsing with the remap
// onto the hitting block's real ids.

} // namespace

bool
rehydrate_sched_payload(const std::string &payload,
                        const BlockCanon &canon, const Instr &term,
                        int64_t &makespan,
                        std::vector<int64_t> &tile_busy,
                        std::vector<std::vector<VInstr>> &tiles_out,
                        std::vector<std::vector<SInstr>> &switches_out)
{
    Reader r{payload.data(), payload.data() + payload.size()};
    makespan = r.i();
    int64_t n = r.i();
    if (!r.ok || n < 0 || n > (1 << 20))
        return false;
    tile_busy.resize(n);
    for (int64_t k = 0; k < n; k++)
        tile_busy[k] = r.i();
    n = r.i();
    if (!r.ok || n < 0 || n > (1 << 20))
        return false;
    tiles_out.resize(n);
    for (auto &code : tiles_out) {
        int64_t m = r.i();
        if (!r.ok || m < 0 || m > (1 << 28))
            return false;
        code.clear();
        code.resize(m);
        for (VInstr &v : code) {
            v.op = static_cast<Op>(r.i());
            v.type = static_cast<Type>(r.i());
            v.dst = canon.value_of(static_cast<int32_t>(r.i()));
            v.src[0] = canon.value_of(static_cast<int32_t>(r.i()));
            v.src[1] = canon.value_of(static_cast<int32_t>(r.i()));
            v.imm = static_cast<uint32_t>(r.i());
            v.array = canon.array_of(static_cast<int32_t>(r.i()));
            v.print_seq = static_cast<int>(r.i());
            if (v.print_seq >= 0)
                v.print_seq += canon.print_base;
            v.target_block =
                slot_to_target(static_cast<int32_t>(r.i()), term);
        }
    }
    n = r.i();
    if (!r.ok || n < 0 || n > (1 << 20))
        return false;
    switches_out.resize(n);
    for (auto &code : switches_out) {
        int64_t m = r.i();
        if (!r.ok || m < 0 || m > (1 << 28))
            return false;
        code.clear();
        code.resize(m);
        for (SInstr &si : code) {
            si.k = static_cast<SInstr::K>(r.i());
            si.op = static_cast<Op>(r.i());
            si.dst = static_cast<int>(r.i());
            si.a = static_cast<int>(r.i());
            si.b = static_cast<int>(r.i());
            si.imm = static_cast<uint32_t>(r.i());
            si.cond = static_cast<int>(r.i());
            si.target = r.i();
            if (si.target == kTargetSlot0 || si.target == kTargetSlot1)
                si.target = slot_to_target(
                    static_cast<int32_t>(si.target), term);
            int64_t nr = r.i();
            if (!r.ok || nr < 0 || nr > (1 << 16))
                return false;
            si.routes.resize(nr);
            for (RoutePair &rp : si.routes) {
                rp.in = static_cast<Dir>(r.i());
                rp.out_mask = static_cast<uint8_t>(r.i());
                rp.reg_dst = static_cast<int>(r.i());
            }
        }
    }
    return r.ok;
}

// ---------------------------------------------------------------
// The process-wide cache.
// ---------------------------------------------------------------

namespace {

/** Cap on the in-memory tier; insertions stop beyond it. */
constexpr int64_t kMemoryCapBytes = int64_t{512} << 20;

/** In-memory map key: the 128-bit content digest. */
using KeyDigest = std::pair<uint64_t, uint64_t>;

struct DigestHash
{
    size_t
    operator()(const KeyDigest &d) const
    {
        // h1 is already a well-mixed FNV stream; fold in h2.
        return static_cast<size_t>(d.first ^ (d.second >> 1));
    }
};

KeyDigest
digest(const BlockKey &k)
{
    return {k.h1, k.h2};
}

/**
 * Resident entries are kept *serialized*, one flat string per entry,
 * and parsed on hit.  A structured SchedEntry pins one heap block
 * per per-tile stream and per-instruction route vector — millions of
 * small live allocations across a PGO portfolio — which degraded the
 * allocator for the whole process (even simulation slowed by ~20%).
 * Parsing a few-KB payload per hit is far cheaper than that.
 * probe_valid is mirrored here so a probe-less partition entry can
 * be rejected without parsing.
 */
struct PartBlob
{
    bool probe_valid = false;
    std::string payload;
};

struct CacheState
{
    std::mutex mu;
    std::unordered_map<KeyDigest, std::shared_ptr<const PartBlob>,
                       DigestHash>
        part;
    std::unordered_map<KeyDigest, std::shared_ptr<const std::string>,
                       DigestHash>
        sched;
    int64_t bytes = 0;
    SchedCacheCounters totals;
};

CacheState &
state()
{
    static CacheState s;
    return s;
}

} // namespace

SchedCache &
SchedCache::instance()
{
    static SchedCache c;
    return c;
}

std::shared_ptr<const PartEntry>
SchedCache::get_part(const BlockKey &key, bool need_probe,
                     SchedCacheCounters &c)
{
    CacheState &st = state();
    std::shared_ptr<const PartBlob> blob;
    {
        std::lock_guard<std::mutex> lock(st.mu);
        auto it = st.part.find(digest(key));
        if (it == st.part.end() ||
            (need_probe && !it->second->probe_valid)) {
            c.part_misses++;
            st.totals.part_misses++;
            return nullptr;
        }
        c.part_hits++;
        st.totals.part_hits++;
        blob = it->second;
    }
    auto e = std::make_shared<PartEntry>();
    Reader r{blob->payload.data(),
             blob->payload.data() + blob->payload.size()};
    check(parse_part(r, *e),
          "schedcache: resident partition entry unparsable");
    return e;
}

std::shared_ptr<const std::string>
SchedCache::get_sched(const BlockKey &key, SchedCacheCounters &c)
{
    CacheState &st = state();
    std::lock_guard<std::mutex> lock(st.mu);
    auto it = st.sched.find(digest(key));
    if (it == st.sched.end()) {
        c.sched_misses++;
        st.totals.sched_misses++;
        return nullptr;
    }
    c.sched_hits++;
    st.totals.sched_hits++;
    return it->second;
}

void
SchedCache::put_part(const BlockKey &key,
                     std::shared_ptr<const PartEntry> e)
{
    CacheState &st = state();
    auto blob = std::make_shared<PartBlob>();
    blob->probe_valid = e->probe_valid;
    serialize_part(blob->payload, *e);
    // A probe-carrying entry replaces a probe-less one for the same
    // key; otherwise first insert wins (identical payloads).
    std::lock_guard<std::mutex> lock(st.mu);
    auto it = st.part.find(digest(key));
    if (it == st.part.end()) {
        if (st.bytes < kMemoryCapBytes) {
            st.bytes += static_cast<int64_t>(blob->payload.size()) + 64;
            st.part.emplace(digest(key), blob);
        }
    } else if (blob->probe_valid && !it->second->probe_valid) {
        st.bytes += static_cast<int64_t>(blob->payload.size()) -
                    static_cast<int64_t>(it->second->payload.size());
        it->second = blob;
    }
}

void
SchedCache::put_sched(const BlockKey &key,
                      std::shared_ptr<const SchedEntry> e)
{
    CacheState &st = state();
    auto blob = std::make_shared<std::string>();
    serialize_sched(*blob, *e);
    std::lock_guard<std::mutex> lock(st.mu);
    if (st.bytes < kMemoryCapBytes &&
        st.sched.emplace(digest(key), blob).second)
        st.bytes += static_cast<int64_t>(blob->size()) + 64;
}

void
SchedCache::clear_memory()
{
    CacheState &st = state();
    std::lock_guard<std::mutex> lock(st.mu);
    st.part.clear();
    st.sched.clear();
    st.bytes = 0;
}

int64_t
SchedCache::memory_bytes() const
{
    CacheState &st = state();
    std::lock_guard<std::mutex> lock(st.mu);
    return st.bytes;
}

SchedCacheCounters
SchedCache::totals() const
{
    CacheState &st = state();
    std::lock_guard<std::mutex> lock(st.mu);
    return st.totals;
}

} // namespace raw
