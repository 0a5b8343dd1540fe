// asynth: end-to-end synthesis of partially specified asynchronous systems.
//
// Drives the full DAC'99 flow (handshake expansion -> state graph -> Fig. 9
// concurrency reduction -> CSC -> logic synthesis -> timed analysis -> STG
// recovery) over an astg (.g) file or an embedded corpus entry, printing
// per-stage wall-clock timings and the synthesised circuit.
//
// The `batch` subcommand sweeps the embedded corpus plus a generated random
// workload on a work-stealing thread pool and can serialise the corpus-level
// report as BENCH_pipeline.json.  The `serve` subcommand runs the same engine
// as a long-lived daemon behind a Unix-domain socket with a
// content-addressed result store in front (docs/SERVICE.md), and `client`
// scripts requests against it.  The `fuzz` subcommand differentially fuzzes
// the pipeline's redundant paths over randomly generated specifications,
// shrinking every mismatch (docs/FUZZING.md).  docs/CLI.md is the full
// reference; the flow options every mode shares come from one table
// (pipeline/options.hpp).
//
//   asynth --corpus fig1
//   asynth --strategy full --w 0.2 spec.g
//   asynth --corpus lr --out reduced.g
//   asynth batch --count 64 --jobs 0 --report BENCH_pipeline.json
//   asynth batch --store results/ --count 64     # resumable sweep
//   asynth serve --socket svc.sock --store results/
//   asynth client --socket svc.sock --corpus lr
//   asynth fuzz --budget 60 --seed 1 --oracle all --dir cex/
//   asynth fuzz --replay cex/cex_engines_s1_i0.g
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

#include "batch/batch.hpp"
#include "benchmarks/corpus.hpp"
#include "benchmarks/generate.hpp"
#include "fuzz/fuzz.hpp"
#include "obs/log.hpp"
#include "obs/trace.hpp"
#include "petri/astg_io.hpp"
#include "pipeline/options.hpp"
#include "pipeline/pipeline.hpp"
#include "service/server.hpp"

namespace {

using namespace asynth;

void print_usage(std::FILE* to) {
    std::fputs("usage: asynth [options] <spec.g>\n"
               "       asynth [options] --corpus <name>\n"
               "       asynth batch [batch options]\n"
               "       asynth fuzz [fuzz options]\n"
               "       asynth serve [serve options]\n"
               "       asynth client [client options] [<spec.g>]\n"
               "\n"
               "Runs the full synthesis pipeline: parse -> handshake expansion -> state\n"
               "graph -> concurrency-reduction search (Fig. 9) -> CSC resolution -> logic\n"
               "synthesis -> timed analysis -> STG recovery.  On a stage failure the\n"
               "failed stage and diagnostic go to stderr and the exit code is 1.\n"
               "See docs/CLI.md for the complete reference and docs/PIPELINE.md for the\n"
               "stage-by-stage walkthrough.\n"
               "\n"
               "input:\n"
               "  <spec.g>              astg specification file (petrify .g dialect)\n"
               "  --corpus <name>       use an embedded paper benchmark instead of a file\n"
               "  --list-corpus         list the embedded benchmarks and exit\n"
               "\n"
               "flow options:\n",
               to);
    for (const flow_option& row : flow_options()) {
        const std::string head =
            row.metavar ? std::string(row.flag) + " " + row.metavar : std::string(row.flag);
        std::fprintf(to, "  %-22s", head.c_str());
        for (const char c : std::string_view(row.help)) {
            std::fputc(c, to);
            if (c == '\n') std::fprintf(to, "%24s", "");
        }
        std::fputc('\n', to);
    }
    std::fputs("\n"
               "output:\n"
               "  --emit <backend>      print the emitted netlist to stdout (verilog |\n"
               "                        cmodel; repeatable; requires a synthesised circuit)\n"
               "  --out <file>          write the recovered (reduced) STG as astg text\n"
               "  --dot <file>          write the reduced state graph as Graphviz dot\n"
               "  --trace <file>        record a Chrome-trace of the run (load in Perfetto /\n"
               "                        chrome://tracing) and print a text flamegraph\n"
               "                        (docs/OBSERVABILITY.md)\n"
               "  --log-level <l>       debug | info | warn | error | off; structured JSON\n"
               "                        event lines below this level are dropped\n"
               "                        (default warn; docs/OBSERVABILITY.md)\n"
               "  --log-file <file>     append structured log lines there instead of stderr\n"
               "  --print-spec          echo the parsed specification before running\n"
               "  -q, --quiet           only print errors (exit code carries the result)\n"
               "  -h, --help            this message\n"
               "\n"
               "batch subcommand (corpus sweep on a work-stealing thread pool):\n"
               "  <flow options>        every flow option above applies to each spec of\n"
               "                        the sweep (non-exact qualities add per-spec bound\n"
               "                        gaps to the report)\n"
               "  --jobs <n>            worker threads; 0 = all hardware cores (default 0)\n"
               "  --seed <n>            first seed of the generated workload (default 1)\n"
               "  --count <n>           number of generated random specs (default 64)\n"
               "  --size <n>            handshake calls per generated spec (default 4)\n"
               "  --concurrency <x>     generator concurrency degree in [0,1] (default 0.5)\n"
               "  --choice <x>          generator free-choice probability in [0,1]\n"
               "                        (default 0.15)\n"
               "  --arbitration <x>     generator arbitration (shared-resource) probability\n"
               "                        in [0,1] (default 0)\n"
               "  --counter <x>         generator counter-leaf probability in [0,1]\n"
               "                        (default 0)\n"
               "  --choice-ways <k>     minimum branches per generated select (default 2);\n"
               "                        an unsatisfiable combination with --size is a\n"
               "                        structured error, not a silent downgrade\n"
               "  --no-corpus           sweep only the generated workload\n"
               "  --store <dir>         consult/fill a content-addressed result store;\n"
               "                        finished specs are skipped on re-runs\n"
               "  --report <file>       write the corpus report as JSON\n"
               "                        (BENCH_pipeline.json format); a partial report is\n"
               "                        checkpointed there whenever a spec fails\n"
               "  --trace <file>        record a Chrome-trace of the sweep (per-worker\n"
               "                        tracks) and print a text flamegraph\n"
               "  --log-level <l>       structured log filter (default warn); each spec's\n"
               "                        lines carry a req_id derived from its store key\n"
               "  --log-file <file>     append structured log lines there instead of stderr\n"
               "  -q, --quiet           suppress the per-spec table\n"
               "\n"
               "fuzz subcommand (differential fuzzing; see docs/FUZZING.md):\n"
               "  --budget <n>[s]|<n>x  wall-clock seconds (default unit) or, with the x\n"
               "                        suffix, an exact iteration count (default: 20x)\n"
               "  --seed <n>            base PRNG seed; every iteration is reproducible\n"
               "                        from (seed, index) alone (default 1)\n"
               "  --oracle <o>          engines | minimizers | store-roundtrip |\n"
               "                        text-roundtrip | csp-frontend | impl-vs-sg |\n"
               "                        bounded-vs-exact | all; repeatable (default all)\n"
               "  --jobs <n>            parallel iterations; 0 = all hardware cores\n"
               "                        (default 1; results independent of the value)\n"
               "  --max-size <n>        channel-budget cap; >= 8 enables the multi-way\n"
               "                        choice family (default 6)\n"
               "  --dir <dir>           write minimised counterexamples (.g, paired .csp)\n"
               "  --replay <file.g>     re-check one counterexample through the enabled\n"
               "                        oracles (honours its '# profile:' header) and exit\n"
               "  -q, --quiet           only print findings and the final verdict\n"
               "  exit codes: 0 all oracles agreed, 1 mismatch found, 2 usage error\n"
               "\n"
               "serve subcommand (long-running daemon; see docs/SERVICE.md):\n"
               "  --socket <path>       Unix-domain socket to bind (default asynth.sock)\n"
               "  --store <dir>         content-addressed result store (default: off)\n"
               "  --jobs <n>            synthesis workers; 0 = all hardware cores\n"
               "                        (default 0)\n"
               "  --queue <n>           bounded request queue capacity (default 64);\n"
               "                        overflow answers {\"error\":\"queue full\"}\n"
               "  --report <file>       write a batch-format report on drain\n"
               "  --trace <dir>         write one Chrome-trace file per drained request\n"
               "                        batch into <dir> (trace_batch_<n>.json)\n"
               "  --log-level <l>       structured log filter (default info for daemons)\n"
               "  --log-file <file>     append structured log lines there instead of stderr\n"
               "  --slow-ms <ms>        log a warn-level per-stage breakdown for requests\n"
               "                        slower than this (default: off)\n"
               "  --high-water <n>      op:\"ready\" reports ready:false at this queue depth\n"
               "                        (default: 3/4 of --queue)\n"
               "  -q, --quiet           suppress lifecycle output\n"
               "  SIGTERM/SIGINT (or an op:\"shutdown\" request) drain gracefully: queued\n"
               "  work finishes, responses flush, exit code 0; health/ready probes keep\n"
               "  answering (ready:false) until the drain completes.\n"
               "\n"
               "client subcommand (one request per invocation, line-JSON protocol):\n"
               "  --socket <path>       daemon socket (default asynth.sock)\n"
               "  --op <op>             synth | stats | metrics | ping | health | ready |\n"
               "                        shutdown (default synth); op metrics prints the\n"
               "                        daemon's Prometheus text exposition; op ready's\n"
               "                        exit code is the readiness verdict (0 = ready)\n"
               "  <spec.g> | --corpus <name>   specification for op synth\n"
               "  --name <label>        spec label in the daemon's report\n"
               "  --id <n>              correlation id echoed in the response\n"
               "  --req-id <s>          request id threaded through the daemon's log lines,\n"
               "                        trace spans and the response (<= 128 chars;\n"
               "                        generated for op synth when omitted)\n"
               "  <flow options>        per-request overrides: every flow option with a\n"
               "                        request key (docs/CLI.md) travels to the daemon\n"
               "  --out <file>          write the recovered (reduced) STG returned by the\n"
               "                        daemon as astg text (op synth)\n"
               "  --no-store            bypass the daemon's result store\n"
               "  --timeout <s>         response timeout seconds (default 600)\n"
               "  -q, --quiet           print nothing; the exit code is the verdict\n"
               "  exit codes: 0 ok, 1 request failed, 2 transport/usage error\n",
               to);
}

/// Prints `prog: msg` and exits with the usage-error code 2.
[[noreturn]] void usage_error(const char* prog, const std::string& msg) {
    std::fprintf(stderr, "%s: %s\n", prog, msg.c_str());
    std::exit(2);
}

/// Walks one subcommand's arguments.  Every reader consumes the value of the
/// current flag and range-checks it through the flow-option parser
/// (pipeline/options.hpp); a missing or bad value is a usage error, so a typo
/// never runs a silently different synthesis.
struct arg_cursor {
    int argc;
    char** argv;
    const char* prog;  ///< diagnostic prefix: "asynth", "asynth batch", ...
    int i;             ///< index of the current argument

    /// Advances to the next argument; false past the end.  -h / --help
    /// prints the usage text and exits 0 wherever it appears as a flag.
    bool next() {
        if (++i >= argc) return false;
        if (arg() == "-h" || arg() == "--help") {
            print_usage(stdout);
            std::exit(0);
        }
        return true;
    }
    [[nodiscard]] std::string arg() const { return argv[i]; }
    [[noreturn]] void fail(const std::string& msg) const { usage_error(prog, msg); }
    [[noreturn]] void unknown() const { fail("unknown option '" + arg() + "' (see --help)"); }

    /// The value following the current flag.
    const char* value() {
        if (i + 1 >= argc) fail(arg() + " requires a value");
        return argv[++i];
    }
    /// The value of the current flag, parsed as @p row describes.
    option_value typed(flow_option row) {
        row.flag = argv[i];
        option_value v;
        std::string err;
        if (!parse_option_value(row, value(), v, err)) fail(err);
        return v;
    }
    /// The value of flow option @p row (flag rows take none).
    option_value flow_value(const flow_option& row) {
        if (row.kind == option_kind::flag) return {.on = !row.negated};
        return typed(row);
    }
    std::size_t size(std::size_t min = 0) {
        const std::string flag = arg();
        const char* s = value();
        std::size_t v = 0;
        if (!parse_size_text(s, v) || v < min)
            fail(flag + " expects an integer >= " + std::to_string(min) + ", got '" + s + "'");
        return v;
    }
    std::size_t size_in(std::size_t lo, std::size_t hi) {
        const std::string flag = arg();
        const std::size_t v = size();
        if (v < lo || v > hi)
            fail(flag + " must be in [" + std::to_string(lo) + ", " + std::to_string(hi) + "]");
        return v;
    }
    double unit() { return typed({.kind = option_kind::unit}).unit; }
    double positive() {
        const std::string flag = arg();
        const char* s = value();
        double v = 0.0;
        if (!parse_double_text(s, v) || !(v > 0))
            fail(flag + " expects a number > 0, got '" + s + "'");
        return v;
    }
    /// A non-flag argument: the single input file.
    void operand(std::string& input) const {
        if (argv[i][0] == '-') unknown();
        if (!input.empty()) fail("more than one input file");
        input = arg();
    }
};

/// --log-level / --log-file, shared by every subcommand that logs.
struct log_flags {
    obs::log_level level;
    std::string file{};

    /// Consumes the current flag when it is one of the two.
    bool take(arg_cursor& a) {
        const std::string arg = a.arg();
        if (arg == "--log-file") {
            file = a.value();
        } else if (arg == "--log-level") {
            const std::string v = a.value();
            const auto lvl = obs::level_from_name(v);
            if (!lvl) a.fail("unknown log level '" + v + "' (debug | info | warn | error | off)");
            level = *lvl;
        } else {
            return false;
        }
        return true;
    }
    /// An unopenable log file is a usage error (the user asked for a capture
    /// that cannot happen).
    void apply(const char* prog) const {
        obs::set_log_level(level);
        std::string err;
        if (!file.empty() && !obs::open_log_file(file, err)) usage_error(prog, err);
    }
};

/// Writes @p content to @p path, printing "wrote <path>" when @p announce;
/// false (diagnosed) when the write fails.
[[nodiscard]] bool write_file(const char* prog, const std::string& path,
                              const std::string& content, bool announce) {
    std::ofstream out(path, std::ios::binary);
    out << content;
    out.close();
    if (!out)
        std::fprintf(stderr, "%s: cannot write '%s'\n", prog, path.c_str());
    else if (announce)
        std::printf("wrote %s\n", path.c_str());
    return static_cast<bool>(out);
}

/// The contents of @p path, or nullopt when it cannot be opened.
[[nodiscard]] std::optional<std::string> read_file(const std::string& path) {
    std::ifstream in(path);
    if (!in) return std::nullopt;
    std::ostringstream text;
    text << in.rdbuf();
    return std::move(text).str();
}

/// The embedded benchmark @p name; an unknown name is a usage error.
[[nodiscard]] stg corpus_spec(const char* prog, const std::string& name) {
    for (const auto& e : benchmarks::corpus_table())
        if (name == e.name) return e.make();
    usage_error(prog, "unknown corpus entry '" + name + "' (try --list-corpus)");
}

/// --trace <file>: records from construction on when a file was named, with
/// the calling thread's track named "main" (in a batch sweep it is pool
/// worker 0, batch/pool.hpp).
class trace_capture {
public:
    explicit trace_capture(std::string file) : file_(std::move(file)) {
        if (file_.empty()) return;
        obs::name_thread("main");
        session_.start();
    }
    /// Writes the Chrome trace and, unless @p quiet, prints the flamegraph.
    /// False (diagnosed) when the trace cannot be written.
    [[nodiscard]] bool finish(const char* prog, bool quiet) {
        if (file_.empty()) return true;
        session_.stop();
        if (!write_file(prog, file_, session_.chrome_json(), false)) return false;
        if (!quiet) {
            std::fputs(session_.flamegraph().c_str(), stdout);
            std::printf("wrote %s\n", file_.c_str());
        }
        return true;
    }

private:
    std::string file_;
    obs::trace_session session_;
};

/// A locally-unique request correlation id for `asynth client` when the user
/// did not pass --req-id: pid + monotonic nanoseconds.
[[nodiscard]] std::string generate_req_id() {
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now().time_since_epoch())
                        .count();
    char buf[64];
    std::snprintf(buf, sizeof buf, "c%x-%llx", static_cast<unsigned>(::getpid()),
                  static_cast<unsigned long long>(ns));
    return buf;
}

/// `asynth batch`: embedded corpus + generated workload through run_batch().
/// Exit code 0 only when every spec completed (a CSC "no circuit" verdict
/// still counts as completed -- the verdict is the result).
int run_batch_cli(int argc, char** argv) {
    constexpr const char* prog = "asynth batch";
    batch::batch_options opt;
    benchmarks::generator_options gen;
    uint64_t seed = 1;
    std::size_t count = 64;
    bool use_corpus = true, quiet = false;
    std::string report_file, store_dir, trace_file;
    log_flags logs{obs::log_level::warn};

    arg_cursor a{argc, argv, prog, 1};
    while (a.next()) {
        const std::string arg = a.arg();
        if (const flow_option* row = find_flow_option(arg)) {
            row->set(opt.pipeline, a.flow_value(*row));
        } else if (arg == "--jobs") {
            opt.jobs = a.size();
        } else if (arg == "--seed") {
            seed = a.size();
        } else if (arg == "--count") {
            count = a.size();
        } else if (arg == "--size") {
            // Sizes beyond ~8 already exceed the state-graph budget; 4096 is
            // a generous bound that keeps the int cast from truncating.
            gen.size = static_cast<int>(a.size_in(1, 4096));
        } else if (arg == "--concurrency") {
            gen.concurrency = a.unit();
        } else if (arg == "--choice") {
            gen.choice = a.unit();
        } else if (arg == "--arbitration") {
            gen.arbitration = a.unit();
        } else if (arg == "--counter") {
            gen.counter = a.unit();
        } else if (arg == "--choice-ways") {
            gen.min_choice_ways = static_cast<int>(a.size_in(2, 64));
        } else if (arg == "--no-corpus") {
            use_corpus = false;
        } else if (arg == "--store") {
            store_dir = a.value();
        } else if (arg == "--report") {
            report_file = a.value();
        } else if (arg == "--trace") {
            trace_file = a.value();
        } else if (arg == "-q" || arg == "--quiet") {
            quiet = true;
        } else if (!logs.take(a)) {
            a.unknown();
        }
    }
    if (const std::string err = validate(opt.pipeline); !err.empty()) usage_error(prog, err);
    logs.apply(prog);
    // --report doubles as the failure-checkpoint path: a sweep that dies
    // mid-corpus still leaves the finished rows there (batch/batch.hpp).
    opt.checkpoint_file = report_file;

    if (!store_dir.empty()) {
        opt.store = store::result_store::open(store_dir);
        // A store that cannot be opened degrades to a cold sweep; that must
        // be loud (the user asked for resumability) but not fatal.
        if (!opt.store.enabled())
            std::fprintf(stderr, "%s: %s (continuing without a store)\n", prog,
                         opt.store.message().c_str());
    }

    std::vector<benchmarks::named_spec> specs;
    if (use_corpus) specs = benchmarks::corpus_specs();
    try {
        auto generated = benchmarks::generate_workload(seed, count, gen);
        specs.insert(specs.end(), std::make_move_iterator(generated.begin()),
                     std::make_move_iterator(generated.end()));
    } catch (const error& e) {
        // An unsatisfiable knob combination (generate.hpp's validation) is a
        // usage error, reported before any work starts -- never a silently
        // degraded workload.
        usage_error(prog, e.what());
    }
    if (specs.empty()) usage_error(prog, "nothing to run (--no-corpus with --count 0)");

    trace_capture trace(trace_file);
    auto report = batch::run_batch(specs, opt);
    if (!trace.finish(prog, quiet)) return 1;

    if (!quiet) std::fputs(batch::report_text(report).c_str(), stdout);
    for (const auto& s : report.specs)
        if (!s.completed)
            std::fprintf(stderr, "%s: %s failed at stage %s: %s\n", prog, s.name.c_str(),
                         s.failed_stage.c_str(), s.message.c_str());

    if (!report_file.empty() && !write_file(prog, report_file, batch::report_json(report), !quiet))
        return 1;
    return report.failed == 0 ? 0 : 1;
}

/// Parses a fuzz --budget value: "<n>x" = iterations, "<n>" or "<n>s" =
/// wall-clock seconds.
[[nodiscard]] bool parse_budget(std::string v, fuzz::fuzz_options& opt) {
    const char unit = v.empty() ? '\0' : v.back();
    if (unit == 'x' || unit == 's') v.pop_back();
    if (unit == 'x') {
        std::size_t n = 0;
        if (!parse_size_text(v, n) || n == 0) return false;
        opt.iterations = n;
        opt.seconds = 0.0;
        return true;
    }
    double secs = 0.0;
    if (!parse_double_text(v, secs) || !(secs > 0)) return false;
    opt.seconds = secs;
    opt.iterations = 0;
    return true;
}

/// `asynth fuzz`: the differential fuzzing harness (fuzz/fuzz.hpp), plus
/// counterexample replay.
int run_fuzz_cli(int argc, char** argv) {
    constexpr const char* prog = "asynth fuzz";
    fuzz::fuzz_options opt;
    uint32_t mask = 0;
    bool quiet = false;
    std::string replay_file;

    arg_cursor a{argc, argv, prog, 1};
    while (a.next()) {
        const std::string arg = a.arg();
        if (arg == "--budget") {
            if (!parse_budget(a.value(), opt))
                a.fail("--budget expects <seconds>[s] or <iterations>x");
        } else if (arg == "--seed") {
            opt.seed = a.size();
        } else if (arg == "--oracle") {
            const std::string v = a.value();
            if (v == "all") {
                mask = fuzz::all_oracles;
            } else if (auto o = fuzz::oracle_from_name(v)) {
                mask |= fuzz::oracle_bit(*o);
            } else {
                a.fail("unknown oracle '" + v +
                       "' (engines | minimizers | store-roundtrip | text-roundtrip |"
                       " csp-frontend | impl-vs-sg | bounded-vs-exact | all)");
            }
        } else if (arg == "--jobs") {
            opt.jobs = a.size();
            if (opt.jobs == 0) opt.jobs = std::max(1u, std::thread::hardware_concurrency());
        } else if (arg == "--max-size") {
            opt.max_size = static_cast<int>(a.size_in(2, 64));
        } else if (arg == "--dir") {
            opt.dir = a.value();
        } else if (arg == "--replay") {
            replay_file = a.value();
        } else if (arg == "-q" || arg == "--quiet") {
            quiet = true;
        } else {
            a.unknown();
        }
    }
    if (mask != 0) opt.oracles = mask;

    if (!replay_file.empty()) {
        const auto text = read_file(replay_file);
        if (!text) usage_error(prog, "cannot open '" + replay_file + "'");
        // The counterexample's '# profile:' header names the option profile
        // it was found under; replaying under another would not reproduce.
        fuzz::fuzz_profile profile = fuzz::fuzz_profile::deep;
        std::istringstream lines(*text);
        for (std::string line; std::getline(lines, line);) {
            const std::string key = "# profile: ";
            if (line.rfind(key, 0) == 0) {
                if (auto p = fuzz::profile_from_name(line.substr(key.size())))
                    profile = *p;
                break;
            }
            if (!line.empty() && line[0] != '#') break;
        }
        std::string csp_text;
        if (replay_file.size() > 2 && replay_file.ends_with(".g"))
            csp_text = read_file(replay_file.substr(0, replay_file.size() - 2) + ".csp")
                           .value_or(std::string());
        try {
            std::string diag = fuzz::replay_text(*text, csp_text, opt.oracles, profile);
            if (diag.empty()) {
                if (!quiet) std::printf("replay OK: all enabled oracles agree\n");
                return 0;
            }
            std::fputs(diag.c_str(), stdout);
            return 1;
        } catch (const error& e) {
            usage_error(prog, e.what());
        }
    }

    try {
        auto report = fuzz::run_fuzz(opt);
        std::string summary = report.summary();
        if (quiet) {
            // Keep only FINDING lines and the final verdict.
            std::istringstream lines(summary);
            summary.clear();
            for (std::string line; std::getline(lines, line);)
                if (line.rfind("  FINDING", 0) == 0 || line.rfind("FUZZ", 0) == 0)
                    summary += line + "\n";
        }
        std::fputs(summary.c_str(), stdout);
        return report.ok() ? 0 : 1;
    } catch (const error& e) {
        usage_error(prog, e.what());
    }
}

/// `asynth serve`: the synthesis daemon (service/server.hpp).
int run_serve_cli(int argc, char** argv) {
    constexpr const char* prog = "asynth serve";
    service::server_options opt;
    // Daemons default to info so the lifecycle and per-request events land in
    // the journal; one-shot commands stay at warn.
    log_flags logs{obs::log_level::info};
    arg_cursor a{argc, argv, prog, 1};
    while (a.next()) {
        const std::string arg = a.arg();
        if (arg == "--socket") {
            opt.socket_path = a.value();
        } else if (arg == "--store") {
            opt.service.store_dir = a.value();
        } else if (arg == "--jobs") {
            opt.service.jobs = a.size();
        } else if (arg == "--queue") {
            opt.service.queue_capacity = a.size(1);
        } else if (arg == "--report") {
            opt.report_file = a.value();
        } else if (arg == "--trace") {
            opt.trace_dir = a.value();
        } else if (arg == "--slow-ms") {
            opt.service.slow_ms = a.positive();
        } else if (arg == "--high-water") {
            opt.service.ready_high_water = a.size(1);
        } else if (arg == "-q" || arg == "--quiet") {
            opt.verbose = false;
        } else if (!logs.take(a)) {
            a.unknown();
        }
    }
    if (opt.service.ready_high_water > opt.service.queue_capacity)
        usage_error(prog, "--high-water cannot exceed --queue");
    logs.apply(prog);
    return service::run_server(opt);
}

/// `asynth client`: builds one protocol line, sends it, prints the response.
int run_client_cli(int argc, char** argv) {
    constexpr const char* prog = "asynth client";
    service::client_options opt;
    std::string op = "synth", corpus_name, input_file, name, out_file, req_id;
    std::size_t id = 0;
    bool quiet = false, no_store = false;
    std::vector<std::pair<const flow_option*, option_value>> overrides;

    arg_cursor a{argc, argv, prog, 1};
    while (a.next()) {
        const std::string arg = a.arg();
        const flow_option* row = find_flow_option(arg);
        if (row && row->key) {
            overrides.emplace_back(row, a.flow_value(*row));
        } else if (arg == "--socket") {
            opt.socket_path = a.value();
        } else if (arg == "--op") {
            op = a.value();
        } else if (arg == "--corpus") {
            corpus_name = a.value();
        } else if (arg == "--name") {
            name = a.value();
        } else if (arg == "--id") {
            id = a.size();
        } else if (arg == "--req-id") {
            req_id = a.value();
            if (req_id.empty() || req_id.size() > 128)
                a.fail("--req-id must be 1..128 characters");
        } else if (arg == "--out") {
            out_file = a.value();
        } else if (arg == "--no-store") {
            no_store = true;
        } else if (arg == "--timeout") {
            opt.response_timeout_seconds = a.positive();
        } else if (arg == "-q" || arg == "--quiet") {
            quiet = true;
        } else {
            a.operand(input_file);
        }
    }

    // Every synth request carries a correlation id (user-chosen or generated)
    // so its log lines, spans and response can be joined; other ops only echo
    // an explicit --req-id.
    if (req_id.empty() && op == "synth") req_id = generate_req_id();

    json_writer line;
    line.field("op", op);
    if (id != 0) line.field("id", static_cast<std::uint64_t>(id));
    if (!req_id.empty()) line.field("req_id", req_id);
    if (op == "synth") {
        if (input_file.empty() == corpus_name.empty())
            usage_error(prog, "op synth needs exactly one of <spec.g> or --corpus");
        std::string spec_text;
        if (!corpus_name.empty()) {
            spec_text = write_astg(corpus_spec(prog, corpus_name));
            if (name.empty()) name = corpus_name;
        } else if (auto text = read_file(input_file)) {
            spec_text = std::move(*text);
        } else {
            usage_error(prog, "cannot open '" + input_file + "'");
        }
        line.field("spec", spec_text);
        if (!name.empty()) line.field("name", name);
        for (const auto& [row, v] : overrides) service::append_override(line, *row, v);
        if (no_store) line.field("no_store", true);
        if (!out_file.empty()) line.field("astg", true);
    } else if (!out_file.empty()) {
        usage_error(prog, "--out only applies to op synth");
    }

    std::string response;
    const int code = service::run_client(opt, std::move(line).finish(), response);
    if (code == 2) usage_error(prog, response);
    const auto parsed = code == 0 ? service::json_parse(response) : std::nullopt;
    auto string_field = [&](const char* key) -> const std::string* {
        const service::json_value* v = parsed ? parsed->find(key) : nullptr;
        return v && v->k == service::json_value::kind::string ? &v->str : nullptr;
    };
    if (code == 0 && !out_file.empty()) {
        const std::string* astg = string_field("astg");
        if (!astg || astg->empty()) {
            std::fprintf(stderr,
                         "%s: response carries no recovered STG "
                         "(daemon running with recovery disabled?)\n",
                         prog);
            return 1;
        }
        if (!write_file(prog, out_file, *astg, false)) return 1;
    }
    // op metrics carries a Prometheus text exposition escaped inside the
    // JSON line; print it raw so the output pipes straight into a scrape
    // file or promtool.
    if (code == 0 && op == "metrics") {
        const std::string* text = string_field("text");
        if (!text) {
            std::fprintf(stderr, "%s: response carries no metrics text\n", prog);
            return 1;
        }
        if (!quiet) std::fputs(text->c_str(), stdout);
        return 0;
    }
    if (!quiet) std::printf("%s\n", response.c_str());
    return code;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc > 1) {
        const std::string_view sub = argv[1];
        if (sub == "batch") return run_batch_cli(argc, argv);
        if (sub == "fuzz") return run_fuzz_cli(argc, argv);
        if (sub == "serve") return run_serve_cli(argc, argv);
        if (sub == "client") return run_client_cli(argc, argv);
    }
    constexpr const char* prog = "asynth";
    pipeline_options opt;
    std::string input_file, corpus_name, out_file, dot_file, trace_file;
    log_flags logs{obs::log_level::warn};
    std::vector<std::string> emit_backends;
    bool quiet = false, print_spec = false;

    arg_cursor a{argc, argv, prog, 0};
    while (a.next()) {
        const std::string arg = a.arg();
        if (arg == "--list-corpus") {
            for (const auto& e : benchmarks::corpus_table())
                std::printf("%-12s %s\n", e.name, e.blurb);
            return 0;
        } else if (arg == "--corpus") {
            corpus_name = a.value();
        } else if (const flow_option* row = find_flow_option(arg)) {
            row->set(opt, a.flow_value(*row));
        } else if (arg == "--emit") {
            const std::string v = a.value();
            if (!find_backend(v)) a.fail("unknown --emit backend '" + v + "' (verilog | cmodel)");
            emit_backends.push_back(v);
        } else if (arg == "--out") {
            out_file = a.value();
        } else if (arg == "--dot") {
            dot_file = a.value();
        } else if (arg == "--trace") {
            trace_file = a.value();
        } else if (arg == "--print-spec") {
            print_spec = true;
        } else if (arg == "-q" || arg == "--quiet") {
            quiet = true;
        } else if (!logs.take(a)) {
            a.operand(input_file);
        }
    }

    if (input_file.empty() == corpus_name.empty()) {
        std::fprintf(stderr, "%s: exactly one of <spec.g> or --corpus is required\n\n", prog);
        print_usage(stderr);
        return 2;
    }
    if (const std::string err = validate(opt); !err.empty()) usage_error(prog, err);
    // --out needs the recovered STG, so it overrides --no-recover.
    if (!out_file.empty()) opt.recover_stg = true;
    logs.apply(prog);

    trace_capture trace(trace_file);
    pipeline_result result;
    if (!corpus_name.empty()) {
        stg spec = corpus_spec(prog, corpus_name);
        if (print_spec && !quiet) std::printf("%s\n", write_astg(spec).c_str());
        result = run_pipeline(spec, opt);
    } else {
        const auto text = read_file(input_file);
        if (!text) usage_error(prog, "cannot open '" + input_file + "'");
        if (print_spec && !quiet) std::printf("%s\n", text->c_str());
        result = run_pipeline_text(*text, opt);
    }
    if (!trace.finish(prog, quiet)) return 1;

    if (!quiet) std::fputs(pipeline_summary(result).c_str(), stdout);
    // A structured stage failure always reaches stderr and exits nonzero --
    // scripts must never mistake a failed run for a verdict.
    if (!result.completed)
        std::fprintf(stderr, "%s: stage %s failed: %s\n", prog,
                     result.failed ? stage_name(*result.failed) : "?", result.message.c_str());

    // Requested emissions go to stdout even under -q: the flag exists so the
    // netlist can be piped into other tools.
    if (!emit_backends.empty()) {
        if (result.impl_model.nets.empty()) {
            std::fprintf(stderr, "%s: no circuit to emit (%s)\n", prog,
                         result.completed ? "spec completed without a circuit"
                                          : result.message.c_str());
            return 1;
        }
        for (const auto& b : emit_backends)
            std::fputs((b == "verilog" ? result.verilog : result.cmodel).c_str(), stdout);
    }
    if (!out_file.empty()) {
        if (!result.recovered.ok) {
            std::fprintf(stderr, "%s: no recovered STG to write (%s)\n", prog,
                         result.recovered.message.c_str());
            return 1;
        }
        if (!write_file(prog, out_file, write_astg(result.recovered.net), !quiet)) return 1;
    }
    // A valid reduced subgraph always keeps the initial state live; after a
    // reduce-stage failure it is a default view with no base to render.
    if (!dot_file.empty() && result.base_sg && result.reduced.live_states().size() > 0 &&
        !write_file(prog, dot_file, write_dot(result.reduced), !quiet))
        return 1;
    return result.completed ? 0 : 1;
}
