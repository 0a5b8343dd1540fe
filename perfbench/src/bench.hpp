// perfbench: the end-to-end and per-layer benchmark of the asynth pipeline.
//
// One program, two workloads (README.md has the rationale of each):
//
//   sweep        embedded paper specs + generated size-4 specs through
//                batch::run_batch with 2 workers, no store;
//   serve_cold   the real `asynth serve` daemon driven over 2 Unix-socket
//                connections by a closed loop: 95% never-seen specs, 5% hits.
//
// `--trace 0` measures the end-to-end metrics with tracing off; `--trace 1`
// records spans from this program around each call into a layer's public
// entry point and reports the per-layer metrics.  Both finish with the
// correctness gate (checks.cpp) and print one JSON result line last.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.hpp"
#include "pipeline/pipeline.hpp"

namespace perfbench {

// ---- command line ----------------------------------------------------------

struct args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 30.0;
    bool trace = false;
    std::string work_dir = ".bench_work";  ///< scratch: store, socket, logs
    std::string asynth;                    ///< daemon binary (serve_cold)
    std::string expected;                  ///< expected-results file to check against
    std::string write_expected;            ///< write the expected-results file and exit
    std::string dump_specs;                ///< write every generated input as .g and exit
    std::string span_dir;                  ///< span files of a traced run
};

// ---- result ----------------------------------------------------------------

struct metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// What one run reports.  `failed` counts failed ops and failed self-checks.
struct run_result {
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<metric> metrics;

    void add(std::string name, double value, std::string unit) {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }
    /// Records one failed op or self-check and prints why.
    void fail(const std::string& what);
};

// ---- clocks, statistics, process ------------------------------------------

using clock_type = std::chrono::steady_clock;

inline double ms_since(clock_type::time_point t0) {
    return std::chrono::duration<double, std::milli>(clock_type::now() - t0).count();
}

[[nodiscard]] double median(std::vector<double> v);

/// One latency sample and the class it belongs to ("hit", "miss", "gen4", ...).
struct sample {
    double ms = 0.0;
    std::string cls;
};

/// A nearest-rank percentile with the evidence that it is reportable.
struct percentile_report {
    double value = 0.0;
    std::size_t n = 0;
    std::size_t beyond = 0;  ///< samples strictly above the percentile's rank
    std::string cls;         ///< class of the sample at the percentile's rank
    std::size_t window = 0;  ///< neighbours checked on each side
    double share = 0.0;      ///< share of the window's samples in class `cls`
};

/// A percentile sits inside one latency class when at least this share of
/// the samples within two standard errors of its rank belong to its class.
/// At a boundary between two classes the share is near one half, and the
/// reported value would jump between them from run to run.
inline constexpr double min_class_share = 0.9;

/// Percentile @p q of @p samples with its class evidence: the window is
/// max(5, 2 sqrt(n q (1-q))) ranks on either side.
[[nodiscard]] percentile_report class_percentile(std::vector<sample> samples, double q);

/// Prints the percentile line and fails @p res unless the percentile has at
/// least 10 samples beyond it and sits inside @p want_class (min_class_share).
void check_percentile(run_result& res, const char* name, double q, const percentile_report& p,
                      const std::string& want_class);

/// Nearest-rank percentile of plain values (0 for an empty vector).
[[nodiscard]] double percentile(std::vector<double> v, double q);

/// VmHWM of process @p pid ("self" for this process), MiB; 0 when unreadable.
[[nodiscard]] double peak_rss_mb(const std::string& pid = "self");

[[nodiscard]] std::uint64_t mix64(std::uint64_t x);

// ---- spans (traced runs only) ----------------------------------------------

/// A span from this program (category "perfbench") around one call into an
/// asynth layer, recorded while an obs::trace_session is armed and a plain
/// stopwatch otherwise.  @p op ties together the spans of one op.
struct layer_span : asynth::obs::span {
    layer_span(const char* name, std::uint64_t op) : span(name, "perfbench") { arg("op", op); }
    [[nodiscard]] double ms() const { return seconds() * 1e3; }
};

/// Stops @p session and writes its spans as Chrome trace-event JSON to
/// <span_dir>/<name>.json (nothing when --span-dir is unset).  The file
/// holds the library's own spans too; run.py checks it with
/// tools/validate_trace.py.
void save_spans(run_result& res, asynth::obs::trace_session& session, const args& a,
                const std::string& name);

// ---- inputs ----------------------------------------------------------------

/// One generated input: its canonical astg text, the only thing the program
/// under test receives, plus the latency class it belongs to.
struct spec_input {
    std::string name;
    std::string text;
    std::string cls;
};

/// Canonical text: write_astg(parse_astg(write_astg(net))) -- the pipeline's
/// own write/parse fixpoint, so the text replays byte-identically.
[[nodiscard]] std::string canonical_text(const asynth::stg& net);

/// sweep: the 8 embedded paper specs, then the generated size-4 specs.
[[nodiscard]] std::vector<spec_input> sweep_inputs(std::uint64_t seed);

/// serve_cold: the hit set and the pool of never-seen miss specs (size 3).
struct serve_inputs {
    std::vector<spec_input> hits;
    std::vector<spec_input> misses;
};
[[nodiscard]] serve_inputs make_serve_inputs(std::uint64_t seed);

/// Writes each input as DIR/<name>.g.  Returns false on an I/O error.
bool dump_inputs(const std::vector<spec_input>& inputs, const std::string& dir);

// ---- correctness gate --------------------------------------------------------

/// The result fields every check compares.
struct outcome {
    bool completed = false;
    std::size_t states = 0, explored = 0, csc_signals = 0, literals = 0;
    double area = -1.0, cycle = 0.0;
    bool has_equations = false;
    std::vector<std::string> equations;
};

[[nodiscard]] outcome outcome_of(const asynth::pipeline_result& r);
/// Compact, exact rendering of an outcome ("states/explored/csc/...").
[[nodiscard]] std::string digest(const outcome& o);
/// "" when equal on every field both sides carry; else the first difference.
[[nodiscard]] std::string compare(const outcome& got, const outcome& want);

/// Checks a pipeline result without trusting it: the emitted netlist must
/// replay clean against the encoded state graph, and every signal's cover
/// must verify against derive_nextstate.  "" when it passes.
[[nodiscard]] std::string independent_gate(const asynth::pipeline_result& r);

/// Fresh in-process synthesis of each input on a 4-thread pool, each result
/// put through independent_gate.  gate[i] is "" when input i passed.
struct reference {
    std::vector<outcome> out;
    std::vector<std::string> gate;
};
[[nodiscard]] reference synthesize_reference(const std::vector<spec_input>& inputs,
                                             const asynth::pipeline_options& opt);

/// The seed the checked-in expected results pin.  A run on it fails any op
/// whose spec the file does not pin, and every op when the file is missing.
inline constexpr std::uint64_t pinned_seed = 1;

/// Pinned results of the default seed, by spec name.
struct expected_file {
    bool loaded = false;
    std::uint64_t seed = 0;
    std::vector<std::pair<std::string, std::string>> specs;  ///< (name, digest)
    [[nodiscard]] const std::string* find(const std::string& name) const;
};
[[nodiscard]] expected_file load_expected(const std::string& path, const std::string& workload);
bool write_expected(const std::string& path, const std::string& workload, std::uint64_t seed,
                    const std::vector<spec_input>& inputs, const reference& ref);

/// Checks every reference result against its gate and, when @p seed is
/// pinned_seed or the seed @p exp pins, against the pinned digest (an input
/// without one fails).  why[i] is "" when input i passed.
[[nodiscard]] std::vector<std::string> check_reference(const std::vector<spec_input>& inputs,
                                                       const reference& ref,
                                                       const expected_file& exp,
                                                       std::uint64_t seed);

// ---- per-layer measurement -------------------------------------------------

/// Times a prefix of @p inputs (at least 8 specs, then up to 0.6 of
/// @p seconds): each spec through run_pipeline and through the stage-by-stage
/// replay, untraced and traced, back to back.  Then replays the same specs
/// under one trace session (written as "layers"), checks each replay against
/// run_pipeline, and adds the pipeline-layer metrics, bench.stage_sum_ratio
/// and bench.trace_overhead_ratio to @p res.
void measure_pipeline_layers(run_result& res, const args& a,
                             const std::vector<spec_input>& inputs,
                             const asynth::pipeline_options& opt, double seconds);

/// Adds the store/service/server metrics as 0: layers the workload's path
/// never enters.
void add_unused_service_layers(run_result& res);

// ---- workloads -------------------------------------------------------------

[[nodiscard]] run_result run_sweep(const args& a);
[[nodiscard]] run_result run_serve_cold(const args& a);

}  // namespace perfbench
