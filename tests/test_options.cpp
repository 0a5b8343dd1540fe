// The flow-option table (pipeline/options.hpp): every front end -- the CLI,
// `asynth batch`, `asynth client` and the service's request overrides --
// derives its handling of the flow knobs from it, so these tests pin the
// table itself: its range checks, its agreement with the store's options
// fingerprint, and the request protocol keys it serves.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "pipeline/options.hpp"
#include "service/service.hpp"
#include "store/result_store.hpp"

using namespace asynth;

namespace {

const flow_option& row_of(std::string_view flag) {
    const flow_option* row = find_flow_option(flag);
    EXPECT_NE(row, nullptr) << flag;
    return *row;
}

/// The pipeline_options a CLI `flag text` (or a bare flag) produces.
pipeline_options with(const flow_option& row, const char* text = nullptr) {
    option_value v{.on = !row.negated};
    std::string err;
    if (text) {
        EXPECT_TRUE(parse_option_value(row, text, v, err)) << row.flag << ": " << err;
    }
    pipeline_options opt;
    row.set(opt, v);
    return opt;
}

/// Two distinct valid CLI values of @p row (empty texts for flag rows).
std::vector<const char*> two_values(const flow_option& row) {
    switch (row.kind) {
        case option_kind::unit: return {"0.25", "0.75"};
        case option_kind::size: return {"1", "3"};
        case option_kind::choice: return {row.choices[0], row.choices[1]};
        case option_kind::flag: return {};
    }
    return {};
}

std::string fingerprint_of(const flow_option& row, const char* text) {
    return store::options_fingerprint(with(row, text));
}

}  // namespace

TEST(flow_options, non_finite_and_out_of_range_weights_are_rejected) {
    const flow_option& w = row_of("--w");
    for (const char* bad : {"nan", "NaN", "inf", "-inf", "-0.1", "1.5", "", "0.5x"}) {
        option_value v;
        std::string err;
        EXPECT_FALSE(parse_option_value(w, bad, v, err)) << bad;
        EXPECT_NE(err.find("--w"), std::string::npos) << err;
    }
    for (const char* good : {"0", "0.2", "1"}) {
        option_value v;
        std::string err;
        EXPECT_TRUE(parse_option_value(w, good, v, err)) << good << ": " << err;
    }
    EXPECT_EQ(with(w, "0.2").search.cost.w, 0.2);
}

TEST(flow_options, sizes_and_choices_are_range_checked) {
    option_value v;
    std::string err;
    EXPECT_FALSE(parse_option_value(row_of("--frontier"), "0", v, err));
    EXPECT_FALSE(parse_option_value(row_of("--max-levels"), "-1", v, err));
    EXPECT_FALSE(parse_option_value(row_of("--max-levels"), "99999999999999999999999", v, err));
    EXPECT_FALSE(parse_option_value(row_of("--deadline"), "1000000001", v, err));
    EXPECT_TRUE(parse_option_value(row_of("--deadline"), "1000000000", v, err));
    EXPECT_FALSE(parse_option_value(row_of("--phases"), "3", v, err));
    EXPECT_FALSE(parse_option_value(row_of("--strategy"), "fast", v, err));
    EXPECT_EQ(with(row_of("--phases"), "2").expand.phases, 2);
    EXPECT_EQ(with(row_of("--strategy"), "full").strategy, reduction_strategy::full);
    EXPECT_EQ(with(row_of("--quality"), "anytime").search.quality, search_quality::anytime);
    EXPECT_FALSE(with(row_of("--no-perf")).run_performance);
    EXPECT_TRUE(with(row_of("--verify-impl")).verify_impl);
}

TEST(flow_options, oracle_only_knobs_have_no_row) {
    EXPECT_EQ(find_flow_option("--engine"), nullptr);
    EXPECT_EQ(find_flow_option("--minimizer"), nullptr);
}

TEST(flow_options, deadline_requires_anytime_quality) {
    pipeline_options opt;
    EXPECT_TRUE(validate(opt).empty());
    opt.search.deadline_ms = 500;
    EXPECT_FALSE(validate(opt).empty());
    opt.search.quality = search_quality::anytime;
    EXPECT_TRUE(validate(opt).empty());
}

// The fingerprint keeps its hand-written byte format (tests/test_store.cpp
// pins it); this walks the table against it instead.  A result-affecting row
// whose two values shared a fingerprint would let the store serve one
// configuration's result for the other.
TEST(flow_options, result_affecting_rows_and_only_those_change_the_fingerprint) {
    const std::string defaults = store::options_fingerprint(pipeline_options{});
    for (const flow_option& row : flow_options()) {
        const std::vector<const char*> values = two_values(row);
        const std::string a = values.empty() ? fingerprint_of(row, nullptr)
                                             : fingerprint_of(row, values[0]);
        const std::string b = values.empty() ? defaults : fingerprint_of(row, values[1]);
        if (row.affects_result) {
            EXPECT_NE(a, b) << row.flag << " does not reach the fingerprint";
        } else {
            EXPECT_TRUE(a == defaults && b == defaults) << row.flag << " splits the store";
        }
    }
    // The oracle knobs without a row are result-neutral by construction.
    pipeline_options oracles;
    oracles.search.engine = search_engine::reference;
    oracles.search.minimizer = minimizer_mode::exact;
    EXPECT_EQ(store::options_fingerprint(oracles), defaults);
    EXPECT_FALSE(row_of("--search-jobs").affects_result);
}

TEST(flow_options, request_keys_are_the_protocol_keys) {
    std::set<std::string> keys;
    for (const flow_option& row : flow_options()) {
        if (row.key) {
            EXPECT_TRUE(keys.insert(row.key).second) << "duplicate key " << row.key;
        }
    }
    EXPECT_EQ(keys, (std::set<std::string>{"w", "strategy", "frontier", "max_levels",
                                           "csc_signals", "phases", "perf", "recover", "verify",
                                           "quality", "deadline_ms"}));
    // Scoring threads are a daemon-side resource, not a request knob.
    EXPECT_EQ(row_of("--search-jobs").key, nullptr);
}

// What `asynth client` forwards (append_override) is what the service
// applies (parse_request): every keyed row and value survives the trip.
TEST(flow_options, client_overrides_roundtrip_through_the_service) {
    for (const flow_option& row : flow_options()) {
        if (!row.key) continue;
        std::vector<const char*> values = two_values(row);
        if (values.empty()) values = {nullptr};
        for (const char* text : values) {
            option_value v{.on = !row.negated};
            std::string err;
            if (text) {
                ASSERT_TRUE(parse_option_value(row, text, v, err)) << err;
            }
            json_writer line;
            line.field("spec", ".model m\n.end\n");
            service::append_override(line, row, v);
            // A deadline is only valid under anytime quality.
            if (std::string_view(row.key) == "deadline_ms") line.field("quality", "anytime");
            const std::string request = std::move(line).finish();
            auto req = service::parse_request(request, pipeline_options{}, err);
            ASSERT_TRUE(req.has_value()) << request << ": " << err;
            pipeline_options expected;
            if (std::string_view(row.key) == "deadline_ms")
                expected.search.quality = search_quality::anytime;
            row.set(expected, v);
            EXPECT_EQ(store::options_fingerprint(req->options),
                      store::options_fingerprint(expected))
                << request;
        }
    }
}

TEST(flow_options, service_rejects_wrong_types_and_ranges) {
    std::string err;
    const pipeline_options defaults;
    for (const char* bad : {R"({"spec":"x","w":"0.5"})", R"({"spec":"x","phases":"4"})",
                            R"({"spec":"x","strategy":1})", R"({"spec":"x","frontier":2.5})",
                            R"({"spec":"x","max_levels":-1})", R"({"spec":"x","perf":1})",
                            R"({"spec":"x","max_levels":1e10})",
                            R"({"spec":"x","deadline_ms":5})"}) {
        EXPECT_FALSE(service::parse_request(bad, defaults, err).has_value()) << bad;
        EXPECT_FALSE(err.empty()) << bad;
    }
}
