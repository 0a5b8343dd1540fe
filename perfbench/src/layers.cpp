// Per-layer measurement: a prefix of the inputs is replayed stage by stage,
// with a span from this program around each layer's public entry point.
// The replay follows src/pipeline/pipeline.cpp step for step, so its
// per-layer times must add up to the pipeline's total and its results must
// equal the pipeline's.  A timing pass first runs each spec through
// run_pipeline and the replay, untraced and traced, back to back: the
// stage-sum check and bench.trace_overhead_ratio come from it.  The traced
// pass then replays the same specs under one trace session for the span
// file, the replay checks and the per-layer metrics.
#include <algorithm>
#include <cstdio>
#include <memory>

#include "bench.hpp"
#include "boolfn/cover.hpp"
#include "explore/analysis_cache.hpp"
#include "netlist/backend.hpp"
#include "netlist/emulate.hpp"
#include "petri/astg_io.hpp"

namespace perfbench {

using namespace asynth;

namespace {

/// Sums over the replayed specs; the metrics are per-spec means or ratios.
struct layer_sums {
    std::size_t specs = 0;
    double parse = 0, write = 0, expand = 0, sg = 0, reduce = 0, csc = 0, logic = 0, perf = 0,
           recover = 0, emit = 0, verify = 0;
    double states = 0, arcs = 0, explored = 0, levels = 0, pruned = 0;
    double csc_signals = 0, csc_solved = 0, warm_lookups = 0, warm_hits = 0;
    double exact_ms = 0, exact_ms_max = 0, heuristic_ms = 0, exact_calls = 0, fallbacks = 0;
    double vars_max = 0, on_max = 0, off_max = 0;
    double replay_ms = 0, stage_sum_ms = 0;
};

/// Times the exact and heuristic minimisers on every non-input signal's
/// next-state function of the encoded SG.  Returns "" or a failure.
std::string probe_boolfn(const subgraph& encoded, std::uint64_t op, layer_sums& s) {
    const state_graph& b = encoded.base();
    for (std::uint32_t sig = 0; sig < b.signals().size(); ++sig) {
        if (b.signals()[sig].kind == signal_kind::input) continue;
        if (!b.find_event(static_cast<std::int32_t>(sig), edge::plus) &&
            !b.find_event(static_cast<std::int32_t>(sig), edge::minus))
            continue;
        const nextstate_spec ns = derive_nextstate(encoded, sig);
        if (!ns.conflicting.empty()) continue;
        bool was_exact = true;
        cover exact;
        {
            layer_span sp("boolfn.minimize_exact", op);
            exact = minimize_exact(ns.spec, {}, &was_exact);
            const double ms = sp.ms();
            s.exact_ms += ms;
            s.exact_ms_max = std::max(s.exact_ms_max, ms);
        }
        {
            layer_span sp("boolfn.minimize_heuristic", op);
            const cover heuristic = minimize_heuristic(ns.spec);
            s.heuristic_ms += sp.ms();
            if (!verify_cover(heuristic, ns.spec)) return "heuristic cover fails verify_cover";
        }
        if (!verify_cover(exact, ns.spec)) return "exact cover fails verify_cover";
        s.exact_calls += 1;
        if (!was_exact) s.fallbacks += 1;
        s.vars_max = std::max(s.vars_max, static_cast<double>(ns.spec.nvars));
        s.on_max = std::max(s.on_max, static_cast<double>(ns.spec.on.size()));
        s.off_max = std::max(s.off_max, static_cast<double>(ns.spec.off.size()));
    }
    return "";
}

/// Replays one input stage by stage and compares the result with @p want,
/// run_pipeline's; then verifies the netlist and probes boolfn.  With no
/// @p want it only times the stages.  Returns "" or the first failure.
std::string replay(const spec_input& in, std::uint64_t op, const pipeline_options& opt,
                   const outcome* want, layer_sums& s) {
    layer_span whole("pipeline.replay", op);
    double stage_ms = 0;
    auto timed = [&](const char* name, double& acc, auto&& body) {
        layer_span sp(name, op);
        body();
        const double ms = sp.ms();
        acc += ms;
        stage_ms += ms;
    };

    stg spec, expanded;
    timed("petri.parse_astg", s.parse, [&] { spec = parse_astg(in.text); });
    std::string canon;
    timed("petri.write_astg", s.write, [&] { canon = write_astg(spec); });
    timed("petri.parse_astg", s.parse, [&] { spec = parse_astg(canon); });
    timed("core.expand_handshakes", s.expand,
          [&] { expanded = expand_handshakes(spec, opt.expand); });
    std::shared_ptr<const state_graph> base;
    timed("sg.generate", s.sg, [&] {
        base = std::make_shared<const state_graph>(state_graph::generate(expanded).graph);
    });

    search_options search = opt.search;
    const auto kc = keepconc_events(expanded);
    search.keep_concurrent.insert(search.keep_concurrent.end(), kc.begin(), kc.end());
    search_result sr;
    timed("core.run_reduction", s.reduce, [&] {
        const subgraph initial = subgraph::full(*base);
        const cost_breakdown initial_cost = estimate_cost(initial, search.cost);
        sr = run_reduction(initial, opt.strategy, search, &initial_cost);
    });
    csc_result csc;
    timed("csc.resolve_csc", s.csc, [&] { csc = resolve_csc(sr.best, opt.csc); });

    const subgraph encoded = subgraph::full(csc.graph);
    synthesis_options synth = opt.synth;
    if (sr.memo && !synth.warm_cover) {
        auto memo = sr.memo;
        synth.warm_cover = [memo](const sop_spec& sp) -> std::shared_ptr<const cover> {
            if (auto hit = memo->find(explore::key_of_spec(sp)); hit && hit->cubes)
                return hit->cubes;
            return nullptr;
        };
    }
    synthesis_result syn;
    timed("logic.synthesize", s.logic, [&] { syn = synthesize(encoded, synth); });

    perf_report perf;
    if (opt.run_performance) {
        delay_model delays = opt.delays;
        if (opt.zero_delay_wires && syn.ok)
            delays = wire_zero_delays(syn.ckt, csc.graph, std::move(delays));
        timed("perf.analyze_performance", s.perf,
              [&] { perf = analyze_performance(encoded, delays); });
    }
    if (opt.recover_stg)
        timed("regions.recover_stg", s.recover, [&] { (void)recover_stg(sr.best); });

    const bool circuit = csc.solved && syn.ok;
    circuit_netlist model;
    if (circuit)
        timed("netlist.emit", s.emit, [&] {
            model = build_circuit_netlist(syn.ckt, csc.graph, spec.model_name);
            (void)find_backend("verilog")->emit(model);
            (void)find_backend("cmodel")->emit(model);
        });
    s.replay_ms += whole.ms();
    s.stage_sum_ms += stage_ms;
    if (!want) return "";

    // Replay equality: the stage-by-stage results must be the pipeline's.
    outcome got;
    got.completed = true;
    got.states = base->state_count();
    got.explored = sr.explored;
    got.csc_signals = csc.signals_inserted;
    got.literals = sr.best_cost.literals;
    got.area = syn.ok ? syn.ckt.total_area : -1.0;
    got.cycle = perf.cycle_time;
    got.has_equations = true;
    if (syn.ok)
        for (const auto& impl : syn.ckt.impls) got.equations.push_back(impl.equation);
    if (const std::string d = compare(got, *want); !d.empty())
        return "stage-by-stage replay differs from run_pipeline: " + d;

    s.states += static_cast<double>(base->state_count());
    s.arcs += static_cast<double>(base->arc_count());
    s.explored += static_cast<double>(sr.explored);
    s.levels += static_cast<double>(sr.levels);
    s.pruned += static_cast<double>(sr.pruned);
    s.csc_signals += static_cast<double>(csc.signals_inserted);
    s.csc_solved += csc.solved ? 1 : 0;
    s.warm_lookups += static_cast<double>(syn.warm_lookups);
    s.warm_hits += static_cast<double>(syn.warm_hits);

    if (circuit) {
        layer_span sp("netlist.emulate_against_sg", op);
        const emulation_result em = emulate_against_sg(model, encoded);
        s.verify += sp.ms();
        if (!em.ok) return "netlist replay: " + em.message;
    }
    return probe_boolfn(encoded, op, s);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// The timing pass over a prefix of the inputs.
struct timing_pass {
    std::vector<pipeline_result> runs;  ///< run_pipeline's results
    double pipeline_total_ms = 0;       ///< sum of their stage-timed totals
    double stage_sum_ms = 0;            ///< sum of the untraced replays' layer times
    double untraced_ms = 0, traced_ms = 0;  ///< sums of the replay times
};

/// Runs at least 8 inputs, then more until @p ms have passed, each through
/// run_pipeline, the replay untraced and the replay under a trace session of
/// its own, back to back.  The order flips from spec to spec, so neither
/// side of a ratio always runs first on warm caches.  The traced replays'
/// spans are dropped (the traced pass writes the span file) and their
/// failures are left to the traced pass to report.
timing_pass run_timing_pass(const std::vector<spec_input>& inputs, const pipeline_options& opt,
                            double ms) {
    timing_pass p;
    const std::size_t min_count = std::min<std::size_t>(inputs.size(), 8);
    const auto t0 = clock_type::now();
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        if (i >= min_count && ms_since(t0) >= ms) break;
        auto pipeline = [&] {
            p.runs.push_back(run_pipeline_text(inputs[i].text, opt));
            p.pipeline_total_ms += p.runs.back().total_seconds * 1e3;
        };
        auto stages = [&](bool traced) {
            asynth::obs::trace_session session;
            if (traced) session.start();
            layer_sums timing;
            try {
                (void)replay(inputs[i], i, opt, nullptr, timing);
            } catch (const std::exception&) {
            }
            (traced ? p.traced_ms : p.untraced_ms) += timing.replay_ms;
            if (!traced) p.stage_sum_ms += timing.stage_sum_ms;
        };
        if (i % 2 == 0) {
            pipeline();
            stages(false);
            stages(true);
        } else {
            stages(true);
            stages(false);
            pipeline();
        }
    }
    return p;
}

}  // namespace

void measure_pipeline_layers(run_result& res, const args& a,
                             const std::vector<spec_input>& inputs, const pipeline_options& opt,
                             double seconds) {
    const timing_pass timing = run_timing_pass(inputs, opt, seconds * 1e3 * 0.6);

    // The traced pass: every spec of the timing pass once more under one
    // trace session, with the replay checks and the boolfn probe.
    layer_sums s;
    asynth::obs::trace_session session;
    session.start();
    for (std::size_t i = 0; i < timing.runs.size(); ++i) {
        std::string why;
        if (!timing.runs[i].completed) {
            why = "run_pipeline failed: " + timing.runs[i].message;
        } else {
            try {
                const outcome want = outcome_of(timing.runs[i]);
                why = replay(inputs[i], 1'000'000 + i, opt, &want, s);
            } catch (const std::exception& e) {
                why = std::string("stage-by-stage replay threw: ") + e.what();
            }
        }
        ++res.attempted;
        ++s.specs;
        if (!why.empty()) res.fail(inputs[i].name + ": " + why);
    }
    save_spans(res, session, a, "layers");

    const double n = static_cast<double>(std::max<std::size_t>(1, s.specs));
    const double stage_sum_ratio = ratio(timing.stage_sum_ms, timing.pipeline_total_ms);
    std::printf("layers: %zu specs replayed stage by stage; untraced layer times sum to %.1f ms, "
                "run_pipeline total %.1f ms (ratio %.3f, tolerance 0.85..1.15)\n",
                s.specs, timing.stage_sum_ms, timing.pipeline_total_ms, stage_sum_ratio);
    if (stage_sum_ratio < 0.85 || stage_sum_ratio > 1.15)
        res.fail("per-stage layer times do not sum to the run_pipeline total");
    std::printf("layers: replay %.1f ms traced, %.1f ms untraced\n", timing.traced_ms,
                timing.untraced_ms);

    res.add("petri.parse_ms", s.parse / n, "ms");
    res.add("petri.write_ms", s.write / n, "ms");
    res.add("expand.ms", s.expand / n, "ms");
    res.add("sg.ms", s.sg / n, "ms");
    res.add("sg.states", s.states / n, "count");
    res.add("sg.arcs", s.arcs / n, "count");
    res.add("reduce.ms", s.reduce / n, "ms");
    res.add("reduce.explored", s.explored / n, "count");
    res.add("reduce.levels", s.levels / n, "count");
    res.add("reduce.explored_per_s", ratio(s.explored, s.reduce / 1e3), "1/s");
    res.add("reduce.pruned_ratio", ratio(s.pruned, s.explored), "ratio");
    res.add("csc.ms", s.csc / n, "ms");
    res.add("csc.signals", s.csc_signals / n, "count");
    res.add("csc.solved_ratio", s.csc_solved / n, "ratio");
    res.add("logic.ms", s.logic / n, "ms");
    res.add("logic.warm_hit_ratio", ratio(s.warm_hits, s.warm_lookups), "ratio");
    res.add("logic.other_ms", (s.logic - s.exact_ms) / n, "ms");
    res.add("boolfn.exact_ms", s.exact_ms / n, "ms");
    res.add("boolfn.exact_ms_max", s.exact_ms_max, "ms");
    res.add("boolfn.exact_calls", s.exact_calls / n, "count");
    res.add("boolfn.heuristic_ms", s.heuristic_ms / n, "ms");
    res.add("boolfn.vars_max", s.vars_max, "count");
    res.add("boolfn.on_max", s.on_max, "count");
    res.add("boolfn.off_max", s.off_max, "count");
    res.add("boolfn.fallback_ratio", ratio(s.fallbacks, s.exact_calls), "ratio");
    res.add("perf.ms", s.perf / n, "ms");
    res.add("recover.ms", s.recover / n, "ms");
    res.add("netlist.emit_ms", s.emit / n, "ms");
    res.add("netlist.verify_ms", s.verify / n, "ms");
    res.add("bench.replayed_specs", static_cast<double>(s.specs), "count");
    res.add("bench.stage_sum_ratio", stage_sum_ratio, "ratio");
    res.add("bench.trace_overhead_ratio", ratio(timing.traced_ms, timing.untraced_ms), "ratio");
}

}  // namespace perfbench
