// CLI argument-hardening suite (PR 9).
//
// Drives the real camo_cli binary (path injected by CMake as CAMO_CLI_PATH)
// through malformed and boundary flag values on every subcommand. Contract:
// a bad invocation always exits 2 after printing usage — it never crashes,
// never terminates on an uncaught std::sto* exception (the pre-PR failure
// mode), and never silently truncates an out-of-range value. Well-formed
// fast-path invocations still exit 0.
//
// Each bad-argument case only has to reach argument parsing, so the whole
// matrix runs in well under a second. The happy-path cases at the end
// (chipgen, a small serve run that overflows its admission queue, a
// scalar-backend CAMO batch at two thread counts, rule batches under both
// reward modes, and collect -> train plus a torn store) do real work and
// stay within a few seconds each.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/camo.hpp"
#include "core/experiment.hpp"
#include "rl/trajstore.hpp"

namespace {

using namespace camo;

/// Exit status of `camo_cli <args>` with stdout/stderr discarded.
/// Fails the test outright if the process died on a signal.
int run_cli(const std::string& args) {
    const std::string cmd = std::string(CAMO_CLI_PATH) + " " + args + " >/dev/null 2>&1";
    const int rc = std::system(cmd.c_str());
    EXPECT_NE(rc, -1) << cmd;
    EXPECT_TRUE(WIFEXITED(rc)) << "crashed (signal " << WTERMSIG(rc) << "): " << cmd;
    return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

void expect_usage_exit(const std::string& args) {
    EXPECT_EQ(run_cli(args), 2) << "camo_cli " << args;
}

TEST(CliRobustness, TopLevel) {
    expect_usage_exit("");
    expect_usage_exit("frobnicate");
    expect_usage_exit("--in");  // missing value and missing --out
    EXPECT_EQ(run_cli("--help"), 0);
    EXPECT_EQ(run_cli("--list-scenarios"), 0);
}

TEST(CliRobustness, SingleClipFlags) {
    const std::string base = "--in a.gds --out b.gds ";
    expect_usage_exit(base + "--layer abc");
    expect_usage_exit(base + "--layer 2x");      // trailing garbage
    expect_usage_exit(base + "--layer -1");
    expect_usage_exit(base + "--clip 0");
    expect_usage_exit(base + "--clip 99999999999999999999");  // overflow
    expect_usage_exit(base + "--iterations 0");
    expect_usage_exit(base + "--iterations -3");
    expect_usage_exit(base + "--reward-mode bogus");
    expect_usage_exit(base + "--train-workers 1.5");
    expect_usage_exit(base + "--style bogus");   // was fragmented as metal
    expect_usage_exit(base + "--engine bogus");  // was checked after the GDS read
}

TEST(CliRobustness, BatchFlags) {
    expect_usage_exit("batch --clips foo");
    expect_usage_exit("batch --clips 0");
    expect_usage_exit("batch --clips -4");
    expect_usage_exit("batch --clips 1e3");  // scientific notation is not an int
    expect_usage_exit("batch --threads 0");
    expect_usage_exit("batch --threads two");
    expect_usage_exit("batch --seed -1");
    expect_usage_exit("batch --seed 0x10");
    expect_usage_exit("batch --seed 99999999999999999999999");  // u64 overflow
    expect_usage_exit("batch --iterations 0");
    expect_usage_exit("batch --engine bogus");
    expect_usage_exit("batch --batched --engine rule");  // batched is camo-only
    expect_usage_exit("batch --doses 1.0");              // sweep-only flag
    // sweep-only whatever the flag order (batch --window is sweep mode).
    expect_usage_exit("batch --window --doses 1.0 --focuses 0 --clips 1 --iterations 1 "
                      "--threads 1 --quiet");
    expect_usage_exit("batch --no-such-flag");
}

TEST(CliRobustness, SweepLists) {
    expect_usage_exit("sweep --doses 1.0,abc");
    expect_usage_exit("sweep --doses 1.0,");    // empty trailing item
    expect_usage_exit("sweep --doses ,1.0");    // empty leading item
    expect_usage_exit("sweep --doses 1.0,,2");  // empty middle item
    expect_usage_exit("sweep --doses 1.0x,2");  // trailing garbage in item
    expect_usage_exit("sweep --doses ''");
    expect_usage_exit("sweep --focuses 0,nan");
    expect_usage_exit("sweep --focuses 12.5junk");
}

TEST(CliRobustness, CompareFlags) {
    expect_usage_exit("compare --clips abc");
    expect_usage_exit("compare --clips 0");
    expect_usage_exit("compare --threads 0");
    expect_usage_exit("compare --iterations -2");
    expect_usage_exit("compare --ilt-iterations 0");
    expect_usage_exit("compare --train-clips 0");
    expect_usage_exit("compare --seed abc");
    expect_usage_exit("compare --slack -0.5");
    expect_usage_exit("compare --slack nan");
    expect_usage_exit("compare --rewards nominal,bogus");
    expect_usage_exit("compare --engines ,");    // no items: was a 0-cell matrix
    expect_usage_exit("compare --rewards ,");
    expect_usage_exit("compare --scenarios ,");  // was every scenario
    expect_usage_exit("compare --no-such-flag");
    EXPECT_EQ(run_cli("compare --list-scenarios"), 0);
}

TEST(CliRobustness, ChipgenFlags) {
    expect_usage_exit("chipgen");  // --out is required
    expect_usage_exit("chipgen --out c.gds --cols 0");
    expect_usage_exit("chipgen --out c.gds --cols 1e9");
    expect_usage_exit("chipgen --out c.gds --rows -2");
    expect_usage_exit("chipgen --out c.gds --rows 12abc");
    expect_usage_exit("chipgen --out c.gds --pitch -5");
    expect_usage_exit("chipgen --out c.gds --no-such-flag");
}

TEST(CliRobustness, ShardFlags) {
    expect_usage_exit("shard --layer -1");
    expect_usage_exit("shard --cols 0");
    expect_usage_exit("shard --rows 0");
    expect_usage_exit("shard --pitch -1");
    expect_usage_exit("shard --tile 0");
    expect_usage_exit("shard --tile abc");
    expect_usage_exit("shard --halo -1");
    expect_usage_exit("shard --threads 0");
    expect_usage_exit("shard --queue-capacity 0");
    expect_usage_exit("shard --seed 18446744073709551616");  // 2^64
    expect_usage_exit("shard --iterations 0");
    expect_usage_exit("shard --engine oneshot");
    expect_usage_exit("shard --no-such-flag");
}

TEST(CliRobustness, ServeFlags) {
    expect_usage_exit("serve --requests -1");
    expect_usage_exit("serve --requests abc");
    expect_usage_exit("serve --clips 0");
    expect_usage_exit("serve --queue-capacity 0");
    expect_usage_exit("serve --priority-levels 0");
    expect_usage_exit("serve --deadline-s -1");
    expect_usage_exit("serve --deadline-s inf");
    expect_usage_exit("serve --threads 0");
    expect_usage_exit("serve --stream-queue 0");
    expect_usage_exit("serve --seed --quiet");  // flag where a value belongs
    expect_usage_exit("serve --iterations 0");
    expect_usage_exit("serve --engine ilt");
    expect_usage_exit("serve --no-such-flag");
}

TEST(CliRobustness, CollectFlags) {
    expect_usage_exit("collect");  // --out is required
    expect_usage_exit("collect --out s.ctrj --style bogus");
    expect_usage_exit("collect --out s.ctrj --clips 0");
    expect_usage_exit("collect --out s.ctrj --clips abc");
    expect_usage_exit("collect --out s.ctrj --train-workers 1.5");
    expect_usage_exit("collect --out s.ctrj --seed -1");
    expect_usage_exit("collect --out s.ctrj --no-such-flag");
    expect_usage_exit("collect --out s.ctrj --from-store x");  // train-only flag
}

TEST(CliRobustness, TrainFlags) {
    expect_usage_exit("train");  // --from-store and --weights are required
    expect_usage_exit("train --from-store s.ctrj");
    expect_usage_exit("train --weights w.bin");
    const std::string base = "train --from-store s.ctrj --weights w.bin ";
    expect_usage_exit(base + "--style bogus");
    expect_usage_exit(base + "--epochs 0");
    expect_usage_exit(base + "--epochs five");
    expect_usage_exit(base + "--clips -1");
    expect_usage_exit(base + "--train-workers abc");
    expect_usage_exit(base + "--seed 99999999999999999999999");
    expect_usage_exit(base + "--no-such-flag");
    expect_usage_exit(base + "--out x.ctrj");  // collect-only flag
}

TEST(CliRobustness, PretrainFlags) {
    // atoi regression: garbage used to silently become 0 (= all hardware
    // threads); now every malformed value is a diagnostic + exit 2.
    expect_usage_exit("pretrain --train-workers abc");
    expect_usage_exit("pretrain --train-workers 1.5");
    expect_usage_exit("pretrain --train-workers 2x");
    expect_usage_exit("pretrain --train-workers 99999999999999999999");
    expect_usage_exit("pretrain --train-workers");  // missing value
    expect_usage_exit("pretrain --log-level bogus");
    expect_usage_exit("pretrain --no-such-flag");
}

// Grid and request products that overflow int are rejected with a
// diagnostic; each used to crash on an out-of-bounds clip index.
TEST(CliRobustness, OversizedGridsAndRequests) {
    const std::string out = testing::TempDir() + "cli_robustness_huge.gds";
    EXPECT_EQ(run_cli("chipgen --out " + out + " --cols 50000 --rows 50000"), 1);
    EXPECT_EQ(run_cli("shard --cols 50000 --rows 50000"), 1);
    expect_usage_exit("serve --requests 1073741824 --clips 2");
    std::remove(out.c_str());
}

/// What shell command `cmd` prints on stdout.
std::string command_output(const std::string& cmd) {
    FILE* pipe = popen(cmd.c_str(), "r");
    EXPECT_NE(pipe, nullptr) << cmd;
    std::string text;
    if (pipe == nullptr) return text;
    char buf[256];
    while (std::fgets(buf, sizeof buf, pipe) != nullptr) text += buf;
    pclose(pipe);
    return text;
}

/// What `camo_cli <args>` prints on stderr.
std::string cli_stderr(const std::string& args) {
    return command_output(std::string(CAMO_CLI_PATH) + " " + args + " 2>&1 >/dev/null");
}

/// Flags whose value name in a generated usage line is numeric: N, NM
/// (integers), S (unsigned seed) or X (real).
std::vector<std::pair<std::string, std::string>> numeric_flags(const std::string& usage) {
    std::vector<std::pair<std::string, std::string>> out;
    std::istringstream words(usage);
    std::string prev;
    std::string word;
    while (words >> word) {
        word.erase(std::remove(word.begin(), word.end(), '['), word.end());
        word.erase(std::remove(word.begin(), word.end(), ']'), word.end());
        const bool numeric = word == "N" || word == "NM" || word == "S" || word == "X";
        if (numeric && prev.rfind("--", 0) == 0) out.emplace_back(prev, word);
        prev = word;
    }
    return out;
}

// The usage lines are generated from the flag tables, so fuzzing every
// numeric flag they list also covers any numeric flag added later. A real
// (X) takes 20 digits as a valid 1e20, so its overflow case is 1e999.
TEST(CliRobustness, EveryNumericUsageFlagRejectsGarbage) {
    const std::string tmp = testing::TempDir();
    const std::vector<std::pair<std::string, std::string>> modes = {
        {"", "--in " + tmp + "a.gds --out " + tmp + "b.gds"},
        {"batch", ""},
        {"sweep", ""},
        {"compare", ""},
        {"chipgen", "--out " + tmp + "c.gds"},
        {"shard", ""},
        {"serve", ""},
        {"collect", "--out " + tmp + "s.ctrj"},
        {"train", "--from-store " + tmp + "s.ctrj --weights " + tmp + "w.bin"},
        {"pretrain", ""},
    };
    for (const auto& [mode, base] : modes) {
        const std::string usage = cli_stderr(mode + " --no-such-flag");
        const auto flags = numeric_flags(usage);
        EXPECT_FALSE(flags.empty()) << "no numeric flags in the usage of '" << mode
                                    << "':\n" << usage;
        const std::string prefix = mode + " " + base + " ";
        for (const auto& [flag, meta] : flags) {
            const std::string overflow = meta == "X" ? "1e999" : "99999999999999999999";
            for (const std::string& value : {std::string("abc"), std::string("2x"), overflow}) {
                expect_usage_exit(prefix + flag + " " + value);
            }
            expect_usage_exit(prefix + flag);  // missing value
        }
    }
}

// Admission control end to end: six requests against four queue slots
// overflow the queue, and the rejections reach the metrics snapshot.
TEST(CliRobustness, ServeAdmissionOverflowRejects) {
    const std::string metrics = testing::TempDir() + "cli_robustness_serve.json";
    const std::string out = command_output(
        std::string(CAMO_CLI_PATH) +
        " serve --requests 6 --clips 2 --queue-capacity 4 --threads 4 --iterations 2"
        " --metrics-json " + metrics + " 2>/dev/null");
    EXPECT_NE(out.find("serve: 6 requests, 4 accepted, 2 rejected"), std::string::npos) << out;
    std::ifstream in(metrics);
    std::stringstream json;
    json << in.rdbuf();
    EXPECT_NE(json.str().find("\"serve.rejected\""), std::string::npos) << json.str();
    std::remove(metrics.c_str());
}

/// The per-clip rows of a `camo_cli batch` table (Clip Segs Iters EPE0 EPE
/// PVB RT), each without its RT column: everything but timing.
std::vector<std::string> batch_rows_without_rt(const std::string& out) {
    std::vector<std::string> rows;
    std::istringstream lines(out);
    std::string line;
    bool in_table = false;
    while (std::getline(lines, line)) {
        if (line.rfind("Clip ", 0) == 0) {
            in_table = true;
            continue;
        }
        if (!in_table) continue;
        std::istringstream cols(line);
        std::vector<std::string> cells;
        std::string cell;
        while (cols >> cell) cells.push_back(cell);
        if (cells.size() != 7) break;  // the summary line ends the table
        cells.pop_back();
        std::string row;
        for (const std::string& c : cells) row += c + " ";
        rows.push_back(row);
    }
    return rows;
}

// CAMO_BACKEND=scalar must force the reference kernels end to end, and a
// CAMO batch on them must give the same per-clip results at any thread
// count. The engine's weight cache is seeded with the untrained (seeded)
// network, so the CLI skips its one-time training: thread invariance holds
// for any fixed weights.
TEST(CliRobustness, ScalarBackendCamoBatchThreadInvariant) {
    namespace fs = std::filesystem;
    const fs::path dir = fs::path(testing::TempDir()) / "cli_robustness_scalar_camo";
    fs::create_directories(dir);
    const core::CamoConfig cfg = core::Experiment::via_camo_config();
    const fs::path weights = dir / core::Experiment::weights_path(cfg, "via");
    fs::create_directories(weights.parent_path());
    core::CamoEngine(cfg).save_weights(weights.string());

    const auto batch = [&](int threads) {
        return command_output("cd '" + dir.string() + "' && CAMO_BACKEND=scalar " +
                              std::string(CAMO_CLI_PATH) +
                              " batch --engine camo --clips 4 --iterations 2 --quiet --threads " +
                              std::to_string(threads) + " 2>/dev/null");
    };
    const std::string one = batch(1);
    const std::string two = batch(2);
    const std::vector<std::string> rows = batch_rows_without_rt(one);
    EXPECT_EQ(rows.size(), 4U) << one;
    EXPECT_EQ(rows, batch_rows_without_rt(two)) << one << "\nvs\n" << two;
    fs::remove_all(dir);
}

// Every reward mode's path through the batch runtime runs to completion:
// exit 0 means no clip failed.
TEST(CliRobustness, BatchRewardModesRun) {
    const std::string base = "batch --clips 4 --threads 2 --iterations 2 --quiet";
    EXPECT_EQ(run_cli(base), 0);
    EXPECT_EQ(run_cli(base + " --reward-mode worst"), 0);
}

// The trajectory-store workflow through the CLI: collect a store, train from
// it, and reject the same store with its last bytes lost (a torn tail) with
// a typed error instead of training on it.
TEST(CliRobustness, CollectTrainAndTornStore) {
    namespace fs = std::filesystem;
    const fs::path dir = fs::path(testing::TempDir()) / "cli_robustness_store";
    fs::create_directories(dir);
    const fs::path store = dir / "store.ctrj";
    const fs::path torn = dir / "torn.ctrj";
    const fs::path weights = dir / "w.bin";

    ASSERT_EQ(run_cli("collect --out " + store.string() + " --clips 1"), 0);
    // The dataset tag (FNV-1a of style, seed, clip cap and squish size) keys
    // which stores a train run accepts: pinned so stores stay loadable.
    EXPECT_EQ(rl::TrajStoreReader(store.string()).dataset_tag(), 423644996694706306ULL);
    EXPECT_EQ(run_cli("train --from-store " + store.string() + " --weights " +
                      weights.string() + " --clips 1 --epochs 1"),
              0);
    EXPECT_TRUE(fs::exists(weights));

    fs::copy_file(store, torn);
    fs::resize_file(torn, fs::file_size(store) - 5);
    const std::string train_torn = "train --from-store " + torn.string() + " --weights " +
                                   (dir / "torn.bin").string() + " --clips 1 --epochs 1";
    EXPECT_EQ(run_cli(train_torn), 1);
    const std::string err = cli_stderr(train_torn);
    EXPECT_NE(err.find("torn tail"), std::string::npos) << err;
    fs::remove_all(dir);
}

TEST(CliRobustness, ChipgenHappyPathStillWorks) {
    const std::string out = testing::TempDir() + "cli_robustness_chip.gds";
    EXPECT_EQ(run_cli("chipgen --out " + out + " --cols 1 --rows 1"), 0);
    std::remove(out.c_str());
}

}  // namespace
