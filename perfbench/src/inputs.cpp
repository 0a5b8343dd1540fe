// Workload inputs, made from the workload seed.  The program under test only
// ever receives the canonical .g text built here.
#include <filesystem>
#include <fstream>

#include "bench.hpp"
#include "benchmarks/corpus.hpp"
#include "benchmarks/generate.hpp"
#include "petri/astg_io.hpp"

namespace perfbench {

namespace {

constexpr std::size_t sweep_generated = 128;  ///< size-4 specs per sweep pass
constexpr std::size_t serve_hit_set = 64;      ///< size-3 specs warmed into the store
constexpr std::size_t serve_miss_pool = 6000;  ///< never-seen size-3 specs

/// First generator seed of one input family: spread over 40 bits so the
/// families of different workload seeds do not overlap.
std::uint64_t family_base(std::uint64_t seed, std::uint64_t tag) {
    return (mix64(seed * 8 + tag) >> 24) + 1;
}

std::vector<spec_input> generated(std::uint64_t first, std::size_t count, int size,
                                  const std::string& cls) {
    asynth::benchmarks::generator_options g;
    g.size = size;
    std::vector<spec_input> out;
    out.reserve(count);
    for (auto& s : asynth::benchmarks::generate_workload(first, count, g))
        out.push_back({s.name, canonical_text(s.net), cls});
    return out;
}

}  // namespace

std::string canonical_text(const asynth::stg& net) {
    return asynth::write_astg(asynth::parse_astg(asynth::write_astg(net)));
}

std::vector<spec_input> sweep_inputs(std::uint64_t seed) {
    std::vector<spec_input> out;
    for (auto& s : asynth::benchmarks::corpus_specs())
        out.push_back({s.name, canonical_text(s.net), "paper"});
    auto gen = generated(family_base(seed, 1), sweep_generated, 4, "gen4");
    out.insert(out.end(), gen.begin(), gen.end());
    return out;
}

serve_inputs make_serve_inputs(std::uint64_t seed) {
    serve_inputs in;
    in.hits = generated(family_base(seed, 2), serve_hit_set, 3, "hit");
    in.misses = generated(family_base(seed, 3), serve_miss_pool, 3, "miss");
    return in;
}

bool dump_inputs(const std::vector<spec_input>& inputs, const std::string& dir) {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    for (const auto& in : inputs) {
        std::ofstream f(dir + "/" + in.name + ".g", std::ios::binary);
        f << in.text;
        if (!f) return false;
    }
    return true;
}

}  // namespace perfbench
