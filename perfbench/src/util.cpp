// Statistics, process memory and span files of the benchmark.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "bench.hpp"

namespace perfbench {

void run_result::fail(const std::string& what) {
    ++failed;
    correct = false;
    std::printf("FAIL %s\n", what.c_str());
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

namespace {
std::size_t rank_of(std::size_t n, double q) {
    auto r = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
    return std::clamp<std::size_t>(r, 1, n) - 1;
}
}  // namespace

double percentile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    return v[rank_of(v.size(), q)];
}

percentile_report class_percentile(std::vector<sample> samples, double q) {
    percentile_report p;
    p.n = samples.size();
    if (samples.empty()) return p;
    std::sort(samples.begin(), samples.end(),
              [](const sample& a, const sample& b) { return a.ms < b.ms; });
    const std::size_t r = rank_of(p.n, q);
    p.value = samples[r].ms;
    p.beyond = p.n - r - 1;
    p.cls = samples[r].cls;
    // Two standard errors of the percentile's rank, sqrt(n q (1-q)).
    const double n = static_cast<double>(p.n);
    p.window = std::max<std::size_t>(
        5, static_cast<std::size_t>(std::ceil(2 * std::sqrt(n * q * (1 - q)))));
    const std::size_t lo = r >= p.window ? r - p.window : 0;
    const std::size_t hi = std::min(p.n - 1, r + p.window);
    std::size_t same = 0;
    for (std::size_t i = lo; i <= hi; ++i) same += samples[i].cls == p.cls;
    p.share = static_cast<double>(same) / static_cast<double>(hi - lo + 1);
    return p;
}

void check_percentile(run_result& res, const char* name, double q, const percentile_report& p,
                      const std::string& want_class) {
    std::printf("%s = %.4f ms: p%g of %zu samples, %zu beyond it, class %s "
                "(%.0f%% of the samples within +-%zu ranks)\n",
                name, p.value, q * 100.0, p.n, p.beyond, p.cls.c_str(), p.share * 100.0,
                p.window);
    if (p.beyond < 10)
        res.fail(std::string(name) + ": fewer than 10 samples beyond the percentile");
    if (p.cls != want_class || p.share < min_class_share)
        res.fail(std::string(name) + ": percentile is not inside the " + want_class + " class");
}

double peak_rss_mb(const std::string& pid) {
    std::ifstream in("/proc/" + pid + "/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
    return 0.0;
}

std::uint64_t mix64(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

void save_spans(run_result& res, asynth::obs::trace_session& session, const args& a,
                const std::string& name) {
    session.stop();
    if (a.span_dir.empty()) return;
    std::filesystem::create_directories(a.span_dir);
    const std::string path = a.span_dir + "/" + name + ".json";
    std::ofstream f(path, std::ios::binary);
    f << session.chrome_json();
    if (!f) res.fail("cannot write the span file " + path);
    if (session.dropped() != 0)
        res.fail(path + ": " + std::to_string(session.dropped()) + " spans dropped");
}

}  // namespace perfbench
