/**
 * @file
 * Replays every minimized fuzz repro checked into tests/corpus/
 * through the full differential-testing oracle battery.  Each corpus
 * file is a key file (diffConfigFromConfig) holding a configuration
 * that once exposed a bug or covers a directed case; it must load,
 * be legal, and pass forever.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "noc/golden/diff.hh"

#ifndef TENOC_CORPUS_DIR
#error "TENOC_CORPUS_DIR must point at tests/corpus"
#endif

namespace tenoc
{
namespace
{

std::vector<std::filesystem::path>
corpusFiles()
{
    std::vector<std::filesystem::path> files;
    for (const auto &entry :
         std::filesystem::directory_iterator(TENOC_CORPUS_DIR)) {
        if (entry.is_regular_file() &&
            entry.path().extension() == ".cfg")
            files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());
    return files;
}

/**
 * Recorded baseline-run signature digests (tests/corpus/digests.txt):
 * one `<file>.cfg <16-hex-digit digest>` line per corpus entry, as
 * printed by `fuzz_diff --replay`.  The toggle oracles compare one
 * scheduler with itself; only these recorded values catch a timing
 * change that every scheduler variant shares.
 */
std::map<std::string, std::uint64_t>
recordedDigests()
{
    std::map<std::string, std::uint64_t> digests;
    std::ifstream in(std::filesystem::path(TENOC_CORPUS_DIR) /
                     "digests.txt");
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string name, hex;
        fields >> name >> hex;
        digests[name] = std::stoull(hex, nullptr, 16);
    }
    return digests;
}

TEST(FuzzCorpus, HasSeedEntries)
{
    // The corpus is never empty: the burn-down checked in one repro
    // per bug the fuzzer surfaced.
    EXPECT_GE(corpusFiles().size(), 3u);
}

TEST(FuzzCorpus, EveryReproReplaysClean)
{
    const auto digests = recordedDigests();
    for (const auto &[name, digest] : digests) {
        EXPECT_TRUE(std::filesystem::exists(
            std::filesystem::path(TENOC_CORPUS_DIR) / name))
            << "digest recorded for missing corpus file " << name;
    }
    for (const auto &path : corpusFiles()) {
        SCOPED_TRACE(path.filename().string());

        std::ifstream in(path);
        ASSERT_TRUE(in) << "unreadable corpus file";
        std::ostringstream text;
        text << in.rdbuf();

        Config keys;
        keys.parseText(text.str());
        const DiffReport rep = runDiff(diffConfigFromConfig(keys));
        EXPECT_TRUE(rep.ok())
            << rep.violations.size() << " violations, first: "
            << rep.violations.front();
        const auto it = digests.find(path.filename().string());
        ASSERT_NE(it, digests.end()) << "no recorded digest";
        EXPECT_EQ(rep.signatureDigest, it->second)
            << std::hex << "digest " << rep.signatureDigest
            << " != recorded " << it->second;
    }
}

} // namespace
} // namespace tenoc
