// The CSP-like front end (paper section 1, design scenario 2): describe the
// behaviour as channel actions, let the tool do everything else.
//
//   ./csp_frontend                      # runs the built-in demo processes
//   ./csp_frontend "p = a? ; b! ; a!"   # or pass your own process text
#include <cstdio>

#include "petri/astg_io.hpp"
#include "pipeline/pipeline.hpp"
#include "spec/csp.hpp"

using namespace asynth;

namespace {

void synthesise(const char* text) {
    std::printf("\nprocess: %s\n", text);
    stg spec;
    try {
        spec = parse_csp(text);
    } catch (const error& e) {
        std::printf("  error: %s\n", e.what());
        return;
    }
    pipeline_options o;
    o.strategy = reduction_strategy::beam;
    o.search.cost.w = 0.3;
    o.search.size_frontier = 4;
    auto rep = run_pipeline(spec, o);
    if (!rep.completed) {
        std::printf("  error: %s\n", rep.message.c_str());
        return;
    }
    if (!rep.synth.ok) {
        std::printf("  synthesis failed: %s\n", rep.synth.message.c_str());
        return;
    }
    std::printf("  expanded to %zu states, reduced to %zu; area %.0f, cycle %.1f\n",
                rep.base_sg->state_count(), rep.reduced.live_state_count(), rep.area(),
                rep.cycle());
    for (const auto& i : rep.synth.ckt.impls) std::printf("  %s\n", i.equation.c_str());
}

}  // namespace

int main(int argc, char** argv) {
    if (argc > 1) {
        synthesise(argv[1]);
        return 0;
    }
    // The paper's two case studies, straight from CSP-like text.
    synthesise("lr = l? ; r! ; r? ; l!");
    synthesise("par = a? ; (b! ; b?) || (c! ; c?) ; a!");
    // A three-way sequencer.
    synthesise("seq3 = t? ; a! ; a? ; b! ; b? ; c! ; c? ; t!");
    return 0;
}
