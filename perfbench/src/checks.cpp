// The correctness gate: every completed op is checked against an in-process
// synthesis of the same text, whose netlist and covers are verified without
// trusting the synthesiser, and -- for the default seed -- against the
// checked-in expected results.
#include <cstdio>
#include <fstream>
#include <sstream>

#include "batch/pool.hpp"
#include "bench.hpp"
#include "logic/synthesis.hpp"
#include "netlist/emulate.hpp"
#include "service/json.hpp"
#include "util/hash.hpp"

namespace perfbench {

using namespace asynth;

outcome outcome_of(const pipeline_result& r) {
    outcome o;
    o.completed = r.completed;
    o.states = r.base_sg ? r.base_sg->state_count() : 0;
    o.explored = r.search.explored;
    o.csc_signals = r.csc.signals_inserted;
    o.literals = r.reduced_cost.literals;
    o.area = r.area();
    o.cycle = r.cycle();
    o.has_equations = true;
    if (r.synth.ok)
        for (const auto& impl : r.synth.ckt.impls) o.equations.push_back(impl.equation);
    return o;
}

std::string digest(const outcome& o) {
    std::string eqs;
    for (const auto& e : o.equations) eqs += e + "\n";
    const hash128 h = hash128_bytes(eqs.data(), eqs.size());
    char buf[160];
    std::snprintf(buf, sizeof buf, "%d/%zu/%zu/%zu/%zu/%.17g/%.17g/%08llx", o.completed ? 1 : 0,
                  o.states, o.explored, o.csc_signals, o.literals, o.area, o.cycle,
                  static_cast<unsigned long long>(h.lo & 0xffffffffULL));
    return buf;
}

std::string compare(const outcome& got, const outcome& want) {
    auto diff = [](const char* field, double g, double w) {
        char buf[128];
        std::snprintf(buf, sizeof buf, "%s %.17g != expected %.17g", field, g, w);
        return std::string(buf);
    };
    if (got.completed != want.completed) return diff("completed", got.completed, want.completed);
    if (got.states != want.states) return diff("states", got.states, want.states);
    if (got.explored != want.explored) return diff("explored", got.explored, want.explored);
    if (got.csc_signals != want.csc_signals)
        return diff("csc_signals", got.csc_signals, want.csc_signals);
    if (got.literals != want.literals) return diff("literals", got.literals, want.literals);
    if (got.area != want.area) return diff("area", got.area, want.area);
    if (got.cycle != want.cycle) return diff("cycle", got.cycle, want.cycle);
    if (got.has_equations && want.has_equations && got.equations != want.equations)
        return "equations differ";
    return "";
}

std::string independent_gate(const pipeline_result& r) {
    if (!r.completed) return "stage failure: " + r.message;
    if (!r.synthesized()) return "";  // a verdict-only result has no circuit to replay
    const subgraph encoded = subgraph::full(r.csc.graph);
    for (const auto& impl : r.synth.ckt.impls) {
        const nextstate_spec ns = derive_nextstate(encoded, impl.signal);
        if (!ns.conflicting.empty() || !verify_cover(impl.function, ns.spec))
            return "cover of '" + r.csc.graph.signals()[impl.signal].name +
                   "' does not implement its next-state function";
    }
    const emulation_result em = emulate_against_sg(r.impl_model, encoded);
    if (!em.ok) return "netlist replay: " + em.message;
    return "";
}

reference synthesize_reference(const std::vector<spec_input>& inputs,
                               const pipeline_options& opt) {
    reference ref;
    ref.out.resize(inputs.size());
    ref.gate.resize(inputs.size());
    batch::work_stealing_pool pool(4);
    pool.run(inputs.size(), [&](std::size_t i) {
        const pipeline_result r = run_pipeline_text(inputs[i].text, opt);
        ref.out[i] = outcome_of(r);
        ref.gate[i] = independent_gate(r);
    });
    return ref;
}

const std::string* expected_file::find(const std::string& name) const {
    for (const auto& [n, d] : specs)
        if (n == name) return &d;
    return nullptr;
}

expected_file load_expected(const std::string& path, const std::string& workload) {
    expected_file exp;
    std::ifstream f(path, std::ios::binary);
    if (!f) return exp;
    std::stringstream ss;
    ss << f.rdbuf();
    const auto doc = service::json_parse(ss.str());
    if (!doc || doc->get_string("workload") != workload) return exp;
    exp.seed = static_cast<std::uint64_t>(doc->get_number("seed"));
    if (const service::json_value* specs = doc->find("specs"))
        for (const auto& [name, v] : specs->obj) exp.specs.emplace_back(name, v.str);
    exp.loaded = !exp.specs.empty();
    return exp;
}

bool write_expected(const std::string& path, const std::string& workload, std::uint64_t seed,
                    const std::vector<spec_input>& inputs, const reference& ref) {
    std::ofstream f(path, std::ios::binary);
    f << "{\"workload\": \"" << workload << "\", \"seed\": " << seed << ",\n \"specs\": {";
    for (std::size_t i = 0; i < inputs.size(); ++i)
        f << (i ? ",\n  " : "\n  ") << "\"" << inputs[i].name << "\": \"" << digest(ref.out[i])
          << "\"";
    f << "\n }}\n";
    return static_cast<bool>(f);
}

std::vector<std::string> check_reference(const std::vector<spec_input>& inputs,
                                         const reference& ref, const expected_file& exp,
                                         std::uint64_t seed) {
    std::vector<std::string> why(inputs.size());
    std::size_t pinned = 0;
    const bool must_pin = seed == pinned_seed || (exp.loaded && exp.seed == seed);
    const bool have = exp.loaded && exp.seed == seed;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        why[i] = ref.gate[i];
        if (!why[i].empty() || !must_pin) continue;
        const std::string* want = have ? exp.find(inputs[i].name) : nullptr;
        if (!want) {
            why[i] = have ? "not pinned by the expected results"
                          : "no expected results for seed " + std::to_string(seed);
            continue;
        }
        ++pinned;
        if (*want != digest(ref.out[i]))
            why[i] = "differs from the expected results: " + digest(ref.out[i]) + " != " + *want;
    }
    std::printf("correctness: %zu distinct specs re-synthesised and gated, %zu pinned by the "
                "expected results%s\n",
                inputs.size(), pinned, must_pin ? "" : " (no expected results for this seed)");
    return why;
}

}  // namespace perfbench
