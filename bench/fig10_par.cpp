// Fig. 10: the PAR component case study.
//
// Paper claims reproduced here:
//  * the tool performs the 4-phase expansion automatically (Fig 10.b);
//  * a direct implementation of the maximally concurrent behaviour is about
//    twice as complex as the reduced one (extra encoding logic);
//  * reduction preserving b? || c? finds an *asymmetric* solution
//    (one channel's handshake chained behind the other's);
//  * comparison against the manual Tangram-style design (Fig 10.c/f).
#include "bench_util.hpp"

using namespace asynth;
using namespace bench_util;

namespace {

void print_figure() {
    std::printf("\n=== Fig. 10: PAR component ===\n");
    auto par = benchmarks::par_component();
    auto expanded = expand_handshakes(par);
    auto sg = state_graph::generate(expanded).graph;
    std::printf("4-phase expansion: %zu states, %zu concurrent event pairs\n", sg.state_count(),
                count_concurrent_pairs(subgraph::full(sg)));

    pipeline_options direct;
    direct.strategy = reduction_strategy::none;
    direct.csc.max_signals = 6;
    auto max_rep = run_pipeline_from_sg(sg, direct);
    print_header("PAR implementations");
    print_row("max concurrency", max_rep);

    std::vector<std::pair<sg_event, sg_event>> keep = {
        {sg_event{signal_id(sg, "bi"), edge::plus}, sg_event{signal_id(sg, "ci"), edge::plus}}};
    auto red_rep = chained_flow(sg, keep);
    print_row("reduced (b? || c?)", red_rep);

    pipeline_options manual;
    manual.strategy = reduction_strategy::none;
    auto man_rep =
        run_pipeline_from_sg(state_graph::generate(benchmarks::par_manual()).graph, manual);
    print_row("manual (Tangram)", man_rep);

    if (max_rep.synth.ok && red_rep.synth.ok && man_rep.synth.ok) {
        std::printf("\nmax-conc / reduced area ratio: %.2fx (paper: ~2x)\n",
                    max_rep.area() / red_rep.area());
        std::printf("reduced / manual area ratio:   %.2fx (paper: 0.88x)\n",
                    red_rep.area() / man_rep.area());
        std::printf("\nreduced circuit (asymmetric, cf. paper's observation):\n");
        for (const auto& i : red_rep.synth.ckt.impls)
            std::printf("    %s\n", i.equation.c_str());
        std::printf("manual circuit:\n");
        for (const auto& i : man_rep.synth.ckt.impls)
            std::printf("    %s\n", i.equation.c_str());
    }
}

void bm_par_expansion_flow(benchmark::State& state) {
    auto par = benchmarks::par_component();
    for (auto _ : state) {
        auto e = expand_handshakes(par);
        auto g = state_graph::generate(e);
        benchmark::DoNotOptimize(g.graph.state_count());
    }
}
BENCHMARK(bm_par_expansion_flow);

void bm_par_chained_reduction(benchmark::State& state) {
    auto sg = state_graph::generate(expand_handshakes(benchmarks::par_component())).graph;
    std::vector<std::pair<sg_event, sg_event>> keep = {
        {sg_event{signal_id(sg, "bi"), edge::plus}, sg_event{signal_id(sg, "ci"), edge::plus}}};
    for (auto _ : state) {
        auto rep = chained_flow(sg, keep);
        benchmark::DoNotOptimize(rep.area());
    }
}
BENCHMARK(bm_par_chained_reduction);

}  // namespace

int main(int argc, char** argv) {
    print_figure();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
