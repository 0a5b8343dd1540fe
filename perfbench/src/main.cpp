// perfbench command line.  run.py builds this program and the daemon, then
// calls it; it can also be run directly:
//
//   perfbench --workload sweep|serve_cold --seed N --seconds S --trace 0|1
//             [--asynth PATH] [--expected FILE] [--work-dir DIR]
//             [--span-dir DIR] [--dump-specs DIR] [--write-expected FILE]
//
// The last line of standard output is the JSON result.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>

#include "bench.hpp"

namespace {

using namespace perfbench;

int usage(const char* why) {
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload sweep|serve_cold --seed N --seconds S "
                 "--trace 0|1\n"
                 "       [--asynth PATH] [--expected FILE] [--work-dir DIR] [--span-dir DIR]\n"
                 "       [--dump-specs DIR] [--write-expected FILE]\n",
                 why);
    return 2;
}

/// Every input of the workload; @p pinned_misses caps serve_cold's misses.
std::vector<spec_input> all_inputs(const args& a, std::size_t pinned_misses = SIZE_MAX) {
    if (a.workload == "sweep") return sweep_inputs(a.seed);
    serve_inputs in = make_serve_inputs(a.seed);
    in.misses.resize(std::min(in.misses.size(), pinned_misses));
    in.hits.insert(in.hits.end(), in.misses.begin(), in.misses.end());
    return in.hits;
}

void print_result(const run_result& r) {
    for (const auto& m : r.metrics)
        std::printf("metric %-28s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    std::printf("verdict: %s (%llu attempted, %llu failed)\n", r.correct ? "correct" : "INCORRECT",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed));
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                r.correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed));
    for (std::size_t i = 0; i < r.metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                    r.metrics[i].name.c_str(), r.metrics[i].value, r.metrics[i].unit.c_str());
    std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
    args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (i + 1 >= argc) return usage(("missing value for " + k).c_str());
        const std::string v = argv[++i];
        try {
            if (k == "--workload") a.workload = v;
            else if (k == "--seed") a.seed = std::stoull(v);
            else if (k == "--seconds") a.seconds = std::stod(v);
            else if (k == "--trace") a.trace = std::stoi(v) != 0;
            else if (k == "--asynth") a.asynth = v;
            else if (k == "--expected") a.expected = v;
            else if (k == "--work-dir") a.work_dir = v;
            else if (k == "--span-dir") a.span_dir = v;
            else if (k == "--dump-specs") a.dump_specs = v;
            else if (k == "--write-expected") a.write_expected = v;
            else return usage(("unknown option " + k).c_str());
        } catch (const std::exception&) {
            return usage(("bad value for " + k).c_str());
        }
    }
    if (a.workload != "sweep" && a.workload != "serve_cold")
        return usage("--workload must be sweep or serve_cold");
    if (!(a.seconds > 0)) return usage("--seconds must be positive");
    std::setvbuf(stdout, nullptr, _IOLBF, 0);

    if (!a.dump_specs.empty()) {
        const auto inputs = all_inputs(a);
        if (!dump_inputs(inputs, a.dump_specs)) return usage("cannot write --dump-specs");
        std::printf("wrote %zu specs to %s\n", inputs.size(), a.dump_specs.c_str());
        return 0;
    }
    if (!a.write_expected.empty()) {
        // sweep pins its whole pass; serve_cold the hit set and the first
        // 2000 misses (a 30 s run sends about 550).
        const auto inputs = all_inputs(a, 2000);
        const reference ref = synthesize_reference(inputs, asynth::pipeline_options{});
        for (std::size_t i = 0; i < inputs.size(); ++i)
            if (!ref.gate[i].empty())
                std::fprintf(stderr, "warning: %s: %s\n", inputs[i].name.c_str(),
                             ref.gate[i].c_str());
        if (!write_expected(a.write_expected, a.workload, a.seed, inputs, ref))
            return usage("cannot write --write-expected");
        std::printf("wrote %zu expected results to %s\n", inputs.size(), a.write_expected.c_str());
        return 0;
    }

    std::filesystem::create_directories(a.work_dir);
    run_result r = a.workload == "sweep" ? run_sweep(a) : run_serve_cold(a);
    print_result(r);
    return r.correct ? 0 : 1;
}
