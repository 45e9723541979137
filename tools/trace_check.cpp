/**
 * @file
 * trace_check — validate a Chrome trace-event JSON file produced by
 * `rawcc --trace-out` (and by write_chrome_trace() generally).
 *
 * Checks, exiting nonzero with a message on the first violation:
 *   - the file parses as JSON and the top level is an array;
 *   - every event is an object with a string "name", a "ph" of "X"
 *     (complete event) or "M" (metadata), and integer "pid"/"tid";
 *   - every "X" event has ts >= 0 and dur >= 1;
 *   - timestamps are monotonically non-decreasing per (pid, tid)
 *     track, and spans on one track do not overlap;
 *   - every (pid, tid) track with events has a thread_name metadata
 *     record.
 *
 * Usage: trace_check <trace.json> [more.json ...]
 *
 * The file is read with the strict, depth-capped parser in
 * serve/json.hpp, so malformed or hostile input is a message and
 * exit 1, never a crash.
 */

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>

#include "serve/json.hpp"

namespace {

using raw::serve::Json;

int
check_file(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "trace_check: cannot open %s\n",
                     path.c_str());
        return 1;
    }
    std::ostringstream os;
    os << in.rdbuf();

    Json doc;
    std::string err;
    if (!raw::serve::json_parse(os.str(), doc, err)) {
        std::fprintf(stderr, "trace_check: %s: %s\n", path.c_str(),
                     err.c_str());
        return 1;
    }

    auto bad = [&](size_t idx, const char *msg) {
        std::fprintf(stderr, "trace_check: %s: event %zu: %s\n",
                     path.c_str(), idx, msg);
        return 1;
    };

    if (doc.kind != Json::Kind::kArray) {
        std::fprintf(stderr,
                     "trace_check: %s: top level is not an array\n",
                     path.c_str());
        return 1;
    }

    // Per-track last span end, for monotonicity / overlap checks.
    std::map<std::pair<int64_t, int64_t>, double> track_end;
    std::map<std::pair<int64_t, int64_t>, bool> track_named;
    size_t n_events = 0, n_meta = 0;
    for (size_t i = 0; i < doc.array.size(); i++) {
        const Json &ev = doc.array[i];
        if (!ev.is_object())
            return bad(i, "not an object");
        const Json *name = ev.find("name");
        const Json *ph = ev.find("ph");
        const Json *pid = ev.find("pid");
        const Json *tid = ev.find("tid");
        if (!name || !name->is_string())
            return bad(i, "missing string \"name\"");
        if (!ph || !ph->is_string())
            return bad(i, "missing string \"ph\"");
        if (!pid || !pid->is_int)
            return bad(i, "missing integer \"pid\"");
        if (!tid || !tid->is_int)
            return bad(i, "missing integer \"tid\"");
        std::pair<int64_t, int64_t> track{pid->integer, tid->integer};

        if (ph->string == "M") {
            if (name->string == "thread_name")
                track_named[track] = true;
            n_meta++;
            continue;
        }
        if (ph->string != "X")
            return bad(i, "\"ph\" is neither \"X\" nor \"M\"");
        const Json *ts = ev.find("ts");
        const Json *dur = ev.find("dur");
        if (!ts || !ts->is_number() || ts->number < 0)
            return bad(i, "\"X\" event lacks non-negative \"ts\"");
        if (!dur || !dur->is_number() || dur->number < 1)
            return bad(i, "\"X\" event lacks positive \"dur\"");
        auto it = track_end.find(track);
        if (it != track_end.end() && ts->number < it->second)
            return bad(i, "timestamps not monotone on track "
                          "(span overlaps previous)");
        track_end[track] = ts->number + dur->number;
        if (!track_named.count(track))
            return bad(i, "track has no thread_name metadata");
        n_events++;
    }

    std::printf("trace_check: %s ok (%zu events, %zu metadata, %zu "
                "tracks)\n",
                path.c_str(), n_events, n_meta, track_end.size());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: trace_check <trace.json> [...]\n");
        return 2;
    }
    int rc = 0;
    for (int i = 1; i < argc; i++)
        rc |= check_file(argv[i]);
    return rc;
}
