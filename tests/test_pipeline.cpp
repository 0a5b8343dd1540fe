// End-to-end pipeline integration: the Fig. 1 and MMU corpus entries through
// the full parse -> expand -> sg -> reduce -> csc -> logic -> perf -> recover
// flow, with cost monotonicity, per-stage timing bookkeeping, structured
// error reporting and the state-graph entry's agreement with the spec entry.
#include <gtest/gtest.h>

#include "benchmarks/corpus.hpp"
#include "petri/astg_io.hpp"
#include "pipeline/pipeline.hpp"
#include "util/error.hpp"

using namespace asynth;

namespace {

// The timings vector must hold exactly the executed stages, in order, with
// non-negative wall-clock readings summing to total_seconds.
void check_timings(const pipeline_result& r, const std::vector<pipeline_stage>& expected) {
    ASSERT_EQ(r.timings.size(), expected.size());
    double sum = 0.0;
    for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(r.timings[i].stage, expected[i]) << "stage " << i;
        EXPECT_GE(r.timings[i].seconds, 0.0);
        sum += r.timings[i].seconds;
    }
    EXPECT_DOUBLE_EQ(r.total_seconds, sum);
}

std::vector<std::string> equations(const pipeline_result& r) {
    std::vector<std::string> out;
    for (const auto& impl : r.synth.ckt.impls) out.push_back(impl.equation);
    return out;
}

}  // namespace

TEST(pipeline, fig1_completes_with_csc_verdict) {
    // Fig. 1 is the paper's motivating *unsynthesisable* example: the CSC
    // conflict states are separated only by input events, so neither
    // insertion nor (input-preserving) reduction can fix it.  The pipeline
    // must complete and report that verdict, not crash.
    auto r = run_pipeline(benchmarks::fig1_controller());
    EXPECT_TRUE(r.completed) << r.message;
    EXPECT_FALSE(r.failed.has_value());
    EXPECT_FALSE(r.synthesized());
    EXPECT_FALSE(r.csc.solved);
    EXPECT_FALSE(r.csc.message.empty());
    EXPECT_EQ(r.area(), -1.0);
    check_timings(r, {pipeline_stage::expand, pipeline_stage::state_graph, pipeline_stage::reduce,
                      pipeline_stage::csc, pipeline_stage::logic, pipeline_stage::perf,
                      pipeline_stage::recover});
    // Cost monotonicity: the Fig. 9 search only keeps improvements.
    EXPECT_LE(r.reduced_cost.value, r.initial_cost.value);
    // The paper's numbers for the unreduced controller.
    ASSERT_NE(r.base_sg, nullptr);
    EXPECT_EQ(r.base_sg->state_count(), 5u);
    EXPECT_EQ(r.base_sg->arc_count(), 6u);
}

TEST(pipeline, mmu_synthesizes_end_to_end) {
    pipeline_options opt;
    opt.csc.max_signals = 6;
    opt.csc.beam_width = 3;
    auto r = run_pipeline(benchmarks::mmu_controller(), opt);
    ASSERT_TRUE(r.completed) << r.message;
    EXPECT_TRUE(r.synthesized()) << r.csc.message << " / " << r.synth.message;
    EXPECT_GT(r.area(), 0.0);
    EXPECT_GE(r.csc.signals_inserted, 2u);
    EXPECT_TRUE(r.perf.periodic);
    EXPECT_GT(r.cycle(), 0.0);
    EXPECT_TRUE(r.recovered.ok) << r.recovered.message;
    EXPECT_LE(r.reduced_cost.value, r.initial_cost.value);
    EXPECT_GE(r.search.explored, 1u);
    // Per-stage accessor agrees with the raw vector.
    EXPECT_EQ(r.stage_seconds(pipeline_stage::parse), 0.0);
    EXPECT_GT(r.total_seconds, 0.0);
}

TEST(pipeline, lr_beam_reaches_wire_solution) {
    pipeline_options opt;
    opt.search.cost.w = 0.2;
    opt.search.size_frontier = 6;
    auto r = run_pipeline(benchmarks::lr_process(), opt);
    ASSERT_TRUE(r.completed) << r.message;
    ASSERT_TRUE(r.synthesized());
    EXPECT_EQ(r.area(), 0.0);  // Table 1: two wires
    EXPECT_DOUBLE_EQ(r.cycle(), 8.0);
    EXPECT_LE(r.reduced_cost.value, r.initial_cost.value);
}

TEST(pipeline, beam_reduction_cost_monotone_on_suite) {
    // The Fig. 9 search returns the best configuration over *all* explored
    // SGs, so its cost can never exceed the initial one.  (reduce_fully is
    // deliberately not monotone: it reduces to minimal concurrency even when
    // the cost worsens.)
    for (const auto& [name, spec] : benchmarks::spec_suite()) {
        auto expanded = expand_handshakes(spec);
        if (state_graph::generate(expanded).graph.state_count() > 120) continue;
        pipeline_options opt;
        opt.search.cost.w = 0.2;
        opt.run_performance = false;
        opt.recover_stg = false;
        auto r = run_pipeline(spec, opt);
        EXPECT_TRUE(r.completed) << name << ": " << r.message;
        EXPECT_LE(r.reduced_cost.value, r.initial_cost.value) << name;
    }
}

TEST(pipeline, text_entry_runs_parse_stage) {
    auto text = write_astg(benchmarks::fig1_controller());
    auto r = run_pipeline_text(text, pipeline_options{});
    EXPECT_TRUE(r.completed) << r.message;
    ASSERT_FALSE(r.timings.empty());
    EXPECT_EQ(r.timings.front().stage, pipeline_stage::parse);
    EXPECT_EQ(r.base_sg->state_count(), 5u);
}

TEST(pipeline, parse_failure_is_structured) {
    auto r = run_pipeline_text(".model broken\n.inputs a\n.graph\nnonsense here\n.end\n",
                               pipeline_options{});
    EXPECT_FALSE(r.completed);
    ASSERT_TRUE(r.failed.has_value());
    EXPECT_EQ(*r.failed, pipeline_stage::parse);
    EXPECT_FALSE(r.message.empty());
    // Only the failing stage was timed.
    check_timings(r, {pipeline_stage::parse});
}

TEST(pipeline, expansion_failure_is_structured) {
    // A partial signal with both polarities cannot be expanded.
    stg bad;
    auto a = static_cast<int32_t>(bad.add_signal("a", signal_kind::output, /*partial=*/true));
    auto tp = bad.add_transition({a, edge::plus, 0});
    auto tm = bad.add_transition({a, edge::minus, 0});
    bad.connect(tp, tm);
    bad.connect(tm, tp, 1);
    auto r = run_pipeline(bad, pipeline_options{});
    EXPECT_FALSE(r.completed);
    ASSERT_TRUE(r.failed.has_value());
    EXPECT_EQ(*r.failed, pipeline_stage::expand);
    EXPECT_NE(r.message.find("expand"), std::string::npos);
}

TEST(pipeline, optional_stages_can_be_disabled) {
    pipeline_options opt;
    opt.search.cost.w = 0.2;
    opt.run_performance = false;
    opt.recover_stg = false;
    auto r = run_pipeline(benchmarks::lr_process(), opt);
    ASSERT_TRUE(r.completed) << r.message;
    // Emission is not optional: it always follows a synthesised circuit.
    check_timings(r, {pipeline_stage::expand, pipeline_stage::state_graph, pipeline_stage::reduce,
                      pipeline_stage::csc, pipeline_stage::logic, pipeline_stage::emit});
    EXPECT_FALSE(r.perf.periodic);
    EXPECT_FALSE(r.recovered.ok);
}

TEST(pipeline, summary_mentions_stages_and_outcome) {
    pipeline_options opt;
    opt.search.cost.w = 0.2;
    opt.search.size_frontier = 6;
    auto r = run_pipeline(benchmarks::lr_process(), opt);
    auto s = pipeline_summary(r);
    EXPECT_NE(s.find("stage timings"), std::string::npos);
    EXPECT_NE(s.find("expand"), std::string::npos);
    EXPECT_NE(s.find("state graph"), std::string::npos);
    EXPECT_NE(s.find("(ok)"), std::string::npos);

    auto bad = run_pipeline_text("garbage", pipeline_options{});
    auto sbad = pipeline_summary(bad);
    EXPECT_NE(sbad.find("FAILED"), std::string::npos);
}

TEST(pipeline, sg_entry_matches_the_spec_entry) {
    // From reduce on, both entries run one stage list: fed the state graph
    // the spec entry builds (the expansion of the canonical spec), the SG
    // entry must reach the same circuit (or, for the unreduced MMU under
    // the default CSC budget, the same unsolved verdict).
    const std::pair<const char*, stg> specs[] = {{"lr", benchmarks::lr_process()},
                                                 {"mmu", benchmarks::mmu_controller()},
                                                 {"par", benchmarks::par_component()}};
    for (const auto& [name, spec] : specs) {
        const stg canonical = parse_astg(write_astg(spec));
        for (auto strategy : {reduction_strategy::none, reduction_strategy::beam}) {
            pipeline_options opt;
            opt.strategy = strategy;
            const auto from_spec = run_pipeline(spec, opt);
            const auto from_sg = run_pipeline_from_sg(
                state_graph::generate(expand_handshakes(canonical)).graph, opt);
            ASSERT_TRUE(from_spec.completed) << name << ": " << from_spec.message;
            ASSERT_TRUE(from_sg.completed) << name << ": " << from_sg.message;
            EXPECT_EQ(from_sg.timings.front().stage, pipeline_stage::reduce) << name;
            EXPECT_EQ(from_sg.area(), from_spec.area()) << name;
            EXPECT_EQ(from_sg.csc_signals(), from_spec.csc_signals()) << name;
            EXPECT_DOUBLE_EQ(from_sg.cycle(), from_spec.cycle()) << name;
            EXPECT_EQ(equations(from_sg), equations(from_spec)) << name;
        }
    }
}

TEST(pipeline, sg_entry_failure_is_structured) {
    // A stage error on the SG path comes back as (failed stage, message),
    // never as an exception.  A throwing warm-start source stands in for
    // any error inside the logic stage.
    pipeline_options opt;
    opt.synth.warm_cover = [](const sop_spec&) -> std::shared_ptr<const cover> {
        throw error("injected warm-start failure");
    };
    pipeline_result r;
    ASSERT_NO_THROW(
        r = run_pipeline_from_sg(state_graph::generate(benchmarks::qmodule_lr()).graph, opt));
    EXPECT_FALSE(r.completed);
    ASSERT_TRUE(r.failed.has_value());
    EXPECT_EQ(*r.failed, pipeline_stage::logic);
    EXPECT_NE(r.message.find("logic: injected warm-start failure"), std::string::npos);
    check_timings(r, {pipeline_stage::reduce, pipeline_stage::csc, pipeline_stage::logic});
}
