// sweep: the everyday regression sweep -- the embedded paper specs plus
// generated size-4 specs through batch::run_batch with 2 workers, search
// jobs 1 and no store.
#include <algorithm>
#include <cstdio>

#include "batch/batch.hpp"
#include "bench.hpp"
#include "petri/astg_io.hpp"

namespace perfbench {

namespace {

constexpr int setup_repeats = 5;  ///< set-ups before the timed phase (plus one per gap)
constexpr std::size_t chunk_size = 34;  ///< specs per run_batch call
constexpr double tail_q = 0.9;

outcome outcome_of_record(const asynth::batch::spec_record& r) {
    outcome o;
    o.completed = r.completed;
    o.states = r.states;
    o.explored = r.explored;
    o.csc_signals = r.csc_signals;
    o.literals = r.literals;
    o.area = r.area;
    o.cycle = r.cycle;
    return o;
}

}  // namespace

run_result run_sweep(const args& a) {
    run_result res;
    asynth::batch::batch_options bo;
    bo.jobs = 2;
    bo.pipeline.search.jobs = 1;

    // ---- set-up: generate, canonicalise and parse the inputs, then warm up
    // with one run_batch call over the paper specs.  The warm-up spares the
    // first timed call the pool's and allocator's first-touch costs, and it
    // keeps setup_s steady: the 5-8 ms of input generation alone is a
    // single-threaded, allocation-bound job whose speed on a shared VM
    // follows the host's load far more than synthesis does.  An untraced run
    // repeats the set-up between run_batch calls too, outside the timed
    // phase's clock, so its median samples the host across the whole run ---
    std::vector<spec_input> inputs;
    std::vector<std::vector<asynth::benchmarks::named_spec>> chunks;
    std::vector<double> setups;
    auto set_up = [&] {
        const auto t0 = clock_type::now();
        inputs = sweep_inputs(a.seed);
        chunks.clear();
        std::vector<asynth::benchmarks::named_spec> warm;
        for (std::size_t i = 0; i < inputs.size(); ++i) {
            if (i % chunk_size == 0) chunks.emplace_back();
            chunks.back().push_back({inputs[i].name, asynth::parse_astg(inputs[i].text)});
            if (inputs[i].cls == "paper") warm.push_back(chunks.back().back());
        }
        const asynth::batch::batch_report rep = asynth::batch::run_batch(warm, bo);
        setups.push_back(ms_since(t0) / 1e3);
        for (const auto& r : rep.specs)
            if (!r.completed)
                res.fail("warm-up " + r.name + ": stage " + r.failed_stage + " failed");
    };
    for (int k = 0; k < setup_repeats; ++k) set_up();

    // ---- timed phase: whole chunks, cycling, until the time is up and one
    // full pass is done (a traced run only needs half the time) -------------
    const double phase_s = a.trace ? a.seconds / 2 : a.seconds;
    std::vector<std::pair<std::size_t, asynth::batch::spec_record>> ops;  // (input, record)
    double busy_s = 0.0, wall_s = 0.0;
    std::vector<double> queue_wait_p50;
    asynth::obs::trace_session session;
    if (a.trace) session.start();
    for (std::size_t c = 0, first = 0;; ++c) {
        const auto& chunk = chunks[c % chunks.size()];
        asynth::batch::batch_report rep;
        const auto t0 = clock_type::now();
        {
            layer_span sp("batch.run_batch", c);
            rep = asynth::batch::run_batch(chunk, bo);
        }
        wall_s += ms_since(t0) / 1e3;
        for (std::size_t j = 0; j < rep.specs.size(); ++j)
            ops.emplace_back(first + j, std::move(rep.specs[j]));
        busy_s += rep.cpu_seconds;
        queue_wait_p50.push_back(rep.queue_wait_p50_ms);
        first = (first + chunk.size()) % inputs.size();
        const bool full_pass = a.trace || c + 1 >= chunks.size();
        if (full_pass && wall_s >= phase_s) break;
        if (!a.trace) set_up();
    }
    if (a.trace) save_spans(res, session, a, "sweep");
    const double rss = peak_rss_mb();

    // ---- correctness: every op against a fresh, independently gated run of
    // its spec (a traced run may not have reached every spec of the pass) --
    std::vector<std::size_t> slot(inputs.size(), inputs.size());
    std::vector<spec_input> checked;
    for (const auto& op : ops)
        if (slot[op.first] == inputs.size()) {
            slot[op.first] = checked.size();
            checked.push_back(inputs[op.first]);
        }
    const reference ref = synthesize_reference(checked, bo.pipeline);
    const std::vector<std::string> why =
        check_reference(checked, ref, load_expected(a.expected, "sweep"), a.seed);
    std::vector<sample> lat;
    std::size_t completed = 0;
    for (const auto& [i, rec] : ops) {
        ++res.attempted;
        std::string fault = why[slot[i]];
        if (fault.empty() && !rec.completed)
            fault = "stage " + rec.failed_stage + " failed: " + rec.message;
        if (fault.empty()) fault = compare(outcome_of_record(rec), ref.out[slot[i]]);
        if (!fault.empty()) {
            res.fail(inputs[i].name + ": " + fault);
            continue;
        }
        ++completed;
        lat.push_back({rec.seconds * 1e3, inputs[i].cls});
    }
    std::printf("sweep: %zu ops in %.2f s (%zu-spec pass, %zu specs per run_batch call, %zu "
                "workers)\n",
                ops.size(), wall_s, inputs.size(), chunk_size, bo.jobs);

    if (a.trace) {
        measure_pipeline_layers(res, a, inputs, bo.pipeline, a.seconds);
        res.add("batch.busy_ratio", busy_s / (static_cast<double>(bo.jobs) * wall_s), "ratio");
        res.add("batch.queue_wait_ms_p50", median(queue_wait_p50), "ms");
        add_unused_service_layers(res);
        return res;
    }

    double area = 0.0, cycle = 0.0;
    for (const outcome& o : ref.out) {
        area += std::max(0.0, o.area);
        cycle += o.cycle;
    }
    res.add("setup_s", median(setups), "s");
    res.add("throughput_per_s", static_cast<double>(completed) / wall_s, "op/s");
    const percentile_report p50 = class_percentile(lat, 0.5);
    check_percentile(res, "latency_ms_p50", 0.5, p50, "gen4");
    res.add("latency_ms_p50", p50.value, "ms");
    const percentile_report tail = class_percentile(lat, tail_q);
    check_percentile(res, "latency_ms_tail", tail_q, tail, "gen4");
    res.add("latency_ms_tail", tail.value, "ms");
    res.add("peak_rss_mb", rss, "MiB");
    res.add("circuit_area", area, "area");
    res.add("circuit_cycle", cycle, "time");
    return res;
}

}  // namespace perfbench
