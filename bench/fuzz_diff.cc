/**
 * @file
 * Seeded configuration fuzzer for the differential-testing harness
 * (src/noc/golden/).  Samples legal network configurations, runs the
 * full oracle battery on each, and on failure writes a *minimized*
 * repro config so it can be checked into tests/corpus/ and replayed by
 * the test suite forever.
 *
 * Usage:
 *   fuzz_diff [--configs N] [--seed S] [--out DIR]
 *             [--replay FILE]... [FILE]...
 *
 * Bare FILE operands are replay files as well, so find/xargs can batch
 * them: `find tests/corpus -name '*.cfg' -exec fuzz_diff --replay {} +`.
 *
 * Exit status: 0 when every config passes, 1 on any violation (or
 * usage error).  CI runs `fuzz_diff --configs 50 --seed <PR number>`
 * as a smoke job so every PR fuzzes a distinct slice of the space.
 */

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "noc/golden/diff.hh"

namespace
{

void
usage(const char *argv0)
{
    std::cerr << "usage: " << argv0
              << " [--configs N] [--seed S] [--out DIR]"
                 " [--replay FILE]... [FILE]...\n";
}

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    out = ss.str();
    return true;
}

void
printViolations(const tenoc::DiffReport &rep)
{
    for (const std::string &v : rep.violations)
        std::cerr << "    " << v << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    unsigned configs = 100;
    std::uint64_t seed = 1;
    std::string out_dir = "tests/corpus";
    std::vector<std::string> replays;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                usage(argv[0]);
                std::exit(1);
            }
            return argv[++i];
        };
        if (arg == "--configs") {
            configs = static_cast<unsigned>(std::strtoul(next(), nullptr, 0));
        } else if (arg == "--seed") {
            seed = std::strtoull(next(), nullptr, 0);
        } else if (arg == "--out") {
            out_dir = next();
        } else if (arg == "--replay") {
            replays.emplace_back(next());
        } else if (!arg.empty() && arg[0] != '-') {
            // Bare operands are replay files too, so xargs/find-style
            // invocations (`find ... -exec fuzz_diff --replay {} +`)
            // hand every file to one process.
            replays.emplace_back(arg);
        } else {
            usage(argv[0]);
            return 1;
        }
    }

    unsigned failures = 0;

    // Replay mode: run the oracle battery on explicit corpus files.
    for (const std::string &path : replays) {
        std::string text, err;
        tenoc::DiffConfig cfg;
        if (!readFile(path, text)) {
            std::cerr << "fuzz_diff: cannot read " << path << "\n";
            return 1;
        }
        if (!tenoc::DiffConfig::parse(text, cfg, &err)) {
            std::cerr << "fuzz_diff: " << path << ": " << err << "\n";
            return 1;
        }
        const tenoc::DiffReport rep = tenoc::runDiff(cfg);
        if (rep.ok()) {
            std::cout << "replay PASS " << path << " digest "
                      << std::hex << std::setw(16) << std::setfill('0')
                      << rep.signatureDigest << std::dec
                      << "\n";
        } else {
            ++failures;
            std::cerr << "replay FAIL " << path << ":\n";
            printViolations(rep);
        }
    }
    if (!replays.empty()) {
        return failures == 0 ? 0 : 1;
    }

    tenoc::Rng sampler(tenoc::deriveStreamSeed(seed, 0xd1ffULL));
    for (unsigned i = 0; i < configs; ++i) {
        const tenoc::DiffConfig cfg = tenoc::sampleDiffConfig(sampler);
        const tenoc::DiffReport rep = tenoc::runDiff(cfg);
        if (rep.ok()) {
            std::cout << "config " << (i + 1) << "/" << configs
                      << " ok\n";
            continue;
        }

        ++failures;
        std::cerr << "config " << (i + 1) << "/" << configs
                  << " FAILED (" << rep.violations.size()
                  << " violations):\n";
        printViolations(rep);

        // Shrink and persist a repro for the corpus.
        const tenoc::DiffConfig minimal =
            tenoc::minimizeConfig(cfg);
        std::error_code ec;
        std::filesystem::create_directories(out_dir, ec);
        std::ostringstream name;
        name << "repro_seed" << seed << "_cfg" << i << ".cfg";
        const std::filesystem::path path =
            std::filesystem::path(out_dir) / name.str();
        std::ofstream out(path);
        out << "# fuzz_diff repro: --seed " << seed << ", config #"
            << i << ", minimized\n";
        const tenoc::DiffReport minimal_rep =
            tenoc::runDiff(minimal);
        for (const std::string &v : minimal_rep.violations)
            out << "# violation: " << v << "\n";
        out << minimal.serialize();
        std::cerr << "  minimized repro written to " << path.string()
                  << "\n";
    }

    if (failures == 0) {
        std::cout << "fuzz_diff: all " << configs
                  << " configs passed the oracle battery\n";
        return 0;
    }
    std::cerr << "fuzz_diff: " << failures << "/" << configs
              << " configs failed\n";
    return 1;
}
