// Shared helpers for the reproduction benches: canonical flow configurations
// for every row of Tables 1 and 2 and the Fig. 10 case study, plus table
// printing.  Each bench binary prints the reproduced table first and then
// runs its google-benchmark micro timings.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

#include "benchmarks/corpus.hpp"
#include "core/protocol.hpp"
#include "pipeline/pipeline.hpp"
#include "sg/analysis.hpp"

namespace bench_util {

using namespace asynth;

inline void print_header(const std::string& title) {
    std::printf("\n=== %s ===\n", title.c_str());
    std::printf("%-22s %10s %10s %10s %12s\n", "circuit", "area", "#CSC sign.", "cr.cycle",
                "inp.events");
}

inline void print_row(const std::string& name, const pipeline_result& r) {
    if (r.synth.ok)
        std::printf("%-22s %10.0f %10zu %10.1f %12zu\n", name.c_str(), r.area(),
                    r.csc_signals(), r.cycle(), r.input_events());
    else
        std::printf("%-22s %10s %10zu %10s %12s  (%s)\n", name.c_str(), "-", r.csc_signals(),
                    "-", "-", r.synth.message.c_str());
}

inline int32_t signal_id(const state_graph& g, const std::string& name) {
    for (uint32_t s = 0; s < g.signals().size(); ++s)
        if (g.signals()[s].name == name) return static_cast<int32_t>(s);
    return -1;
}

/// Keep the falling edges of two wires concurrent.
inline void keep_minus_pair(search_options& so, const state_graph& g, const std::string& a,
                            const std::string& b) {
    so.keep_concurrent.push_back(
        {sg_event{signal_id(g, a), edge::minus}, sg_event{signal_id(g, b), edge::minus}});
}

/// The flow used for "keep this pair, serialise the rest" table rows.
inline pipeline_result keep_pair_flow(const stg& spec, const std::string& wire_a,
                                      const std::string& wire_b) {
    auto expanded = expand_handshakes(spec);
    auto sg = state_graph::generate(expanded).graph;
    pipeline_options o;
    o.strategy = reduction_strategy::full;
    o.search.cost.w = 0.2;
    keep_minus_pair(o.search, sg, wire_a, wire_b);
    return run_pipeline_from_sg(std::move(sg), o);
}

/// Beam (logic-biased) followed by greedy completion -- the configuration
/// that finds the asymmetric PAR solution and the LR wires.
inline pipeline_result chained_flow(state_graph sg,
                                    std::vector<std::pair<sg_event, sg_event>> keep = {}) {
    auto base = std::make_shared<const state_graph>(std::move(sg));
    search_options so;
    so.cost.w = 1.0;
    so.size_frontier = 8;
    so.keep_concurrent = keep;
    auto beam = reduce_concurrency(subgraph::full(*base), so);
    search_options so2 = so;
    so2.cost.w = 0.5;
    auto full = reduce_fully(beam.best, so2);

    pipeline_options fo;
    fo.strategy = reduction_strategy::none;
    return run_pipeline_from_sg(full.best.materialize(), fo);
}

}  // namespace bench_util
