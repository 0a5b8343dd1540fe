// The LR process walk-through (paper sections 3 and 8, Table 1).
//
// Starting from the channel-level specification l? -> r! -> r? -> l!, this
// example runs the complete flow: 4-phase handshake expansion with maximal
// reset concurrency, Fig. 9 concurrency reduction, CSC resolution, logic
// synthesis and timing -- and contrasts three implementations:
// maximum concurrency, the automatic best, and the hand-made Q-module.
#include <cstdio>

#include "benchmarks/corpus.hpp"
#include "petri/astg_io.hpp"
#include "pipeline/pipeline.hpp"

using namespace asynth;

namespace {

void describe(const char* tag, const pipeline_result& rep) {
    std::printf("\n--- %s ---\n", tag);
    std::printf("reduced SG: %zu states, %zu concurrent pairs, %zu CSC conflict pairs\n",
                rep.reduced.live_state_count(), count_concurrent_pairs(rep.reduced),
                rep.reduced_cost.csc_pairs);
    std::printf("state signals inserted: %zu\n", rep.csc_signals());
    if (rep.synth.ok) {
        std::printf("area: %.0f units, critical cycle: %.1f units, %zu input events\n",
                    rep.area(), rep.cycle(), rep.input_events());
        for (const auto& i : rep.synth.ckt.impls) std::printf("  %s\n", i.equation.c_str());
    } else {
        std::printf("synthesis failed: %s\n", rep.synth.message.c_str());
    }
}

}  // namespace

int main() {
    auto spec = benchmarks::lr_process();
    std::printf("channel-level specification:\n%s", write_astg(spec).c_str());

    {
        pipeline_options o;
        o.strategy = reduction_strategy::none;
        describe("maximum concurrency (no reshuffling)", run_pipeline(spec, o));
    }
    {
        pipeline_options o;
        o.strategy = reduction_strategy::beam;
        o.search.cost.w = 0.2;
        o.search.size_frontier = 6;
        auto rep = run_pipeline(spec, o);
        describe("automatic reshuffling (beam search)", rep);
        if (rep.recovered.ok)
            std::printf("\nrecovered STG for the best reduction:\n%s",
                        write_astg(rep.recovered.net).c_str());
    }
    {
        pipeline_options o;
        o.strategy = reduction_strategy::none;
        describe("Q-module (hand design, for comparison)",
                 run_pipeline_from_sg(state_graph::generate(benchmarks::qmodule_lr()).graph, o));
    }
    return 0;
}
