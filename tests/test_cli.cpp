// CLI layer: argument parsing, `list` output, and small end-to-end `run` /
// `sweep` smokes through run_cli (no process spawning).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cli/cli.h"
#include "ckpt/checkpoint.h"

namespace gluefl::cli {
namespace {

std::vector<std::string> argv(std::initializer_list<const char*> parts) {
  return std::vector<std::string>(parts.begin(), parts.end());
}

struct CliResult {
  int code = 0;
  std::string out;
  std::string err;
};

CliResult invoke(std::initializer_list<const char*> parts) {
  std::ostringstream out, err;
  const int code = run_cli(argv(parts), out, err);
  return {code, out.str(), err.str()};
}

// ---------------------------------------------------------------- parsing

TEST(CliParse, CommandAndFlagStyles) {
  const ParsedArgs p = parse_args(
      argv({"run", "--strategy", "gluefl", "--rounds=5", "--scale", "0.1"}));
  EXPECT_TRUE(p.error.empty()) << p.error;
  EXPECT_EQ(p.command, "run");
  ASSERT_EQ(p.flags.size(), 3u);
  EXPECT_EQ(p.flags.at("strategy"), "gluefl");
  EXPECT_EQ(p.flags.at("rounds"), "5");
  EXPECT_EQ(p.flags.at("scale"), "0.1");
}

TEST(CliParse, EmptyArgsIsAnError) {
  EXPECT_FALSE(parse_args({}).error.empty());
}

TEST(CliParse, MissingValueIsAnError) {
  const ParsedArgs p = parse_args(argv({"run", "--rounds"}));
  EXPECT_NE(p.error.find("--rounds"), std::string::npos);
}

TEST(CliParse, PositionalTokenIsCollectedForTheCommand) {
  // parse_args collects positionals (resume consumes its checkpoint path
  // this way); every other command rejects them at dispatch.
  const ParsedArgs p = parse_args(argv({"run", "gluefl"}));
  EXPECT_TRUE(p.error.empty()) << p.error;
  ASSERT_EQ(p.positionals.size(), 1u);
  EXPECT_EQ(p.positionals[0], "gluefl");
}

TEST(CliParse, PositionalRejectedByRunSweepList) {
  for (const char* cmd : {"run", "sweep", "list"}) {
    const CliResult r = invoke({cmd, "stray"});
    EXPECT_EQ(r.code, 2) << cmd;
    EXPECT_NE(r.err.find("stray"), std::string::npos) << cmd;
  }
}

TEST(CliParse, DuplicateFlagIsAnError) {
  const ParsedArgs p =
      parse_args(argv({"run", "--rounds", "5", "--rounds", "6"}));
  EXPECT_NE(p.error.find("duplicate"), std::string::npos);
}

TEST(CliParse, EqualsValueMayContainEquals) {
  const ParsedArgs p = parse_args(argv({"run", "--json=a=b.json"}));
  EXPECT_TRUE(p.error.empty()) << p.error;
  EXPECT_EQ(p.flags.at("json"), "a=b.json");
}

// ---------------------------------------------------------------- list

TEST(CliList, EnumeratesAllRegistries) {
  const CliResult r = invoke({"list"});
  EXPECT_EQ(r.code, 0) << r.err;
  for (const auto& name : strategy_names()) {
    EXPECT_NE(r.out.find(name), std::string::npos) << name;
  }
  for (const auto& name : dataset_names()) {
    EXPECT_NE(r.out.find(name), std::string::npos) << name;
  }
  for (const auto& name : env_names()) {
    EXPECT_NE(r.out.find(name), std::string::npos) << name;
  }
  for (const auto& name : model_names()) {
    EXPECT_NE(r.out.find(name), std::string::npos) << name;
  }
}

TEST(CliList, RejectsUnknownFlags) {
  const CliResult r = invoke({"list", "--bogus", "1"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--bogus"), std::string::npos);
}

// ---------------------------------------------------------------- errors

TEST(CliErrors, UnknownCommand) {
  const CliResult r = invoke({"frobnicate"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("frobnicate"), std::string::npos);
}

TEST(CliErrors, UnknownStrategy) {
  const CliResult r = invoke({"run", "--strategy", "zeroth-order"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("zeroth-order"), std::string::npos);
}

TEST(CliErrors, MalformedNumber) {
  const CliResult r = invoke({"run", "--rounds", "abc"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("abc"), std::string::npos);
}

TEST(CliErrors, IntegerOverflowIsRejectedNotTruncated) {
  // 2^32 + 2 would truncate to 2 through a silent cast to int.
  const CliResult r = invoke({"run", "--rounds", "4294967298"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("rounds"), std::string::npos);
}

TEST(CliErrors, OutOfRangeScale) {
  const CliResult r = invoke({"run", "--scale", "1.5"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("scale"), std::string::npos);
}

TEST(CliErrors, HelpExitsCleanly) {
  const CliResult r = invoke({"help"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("usage"), std::string::npos);
}

TEST(CliErrors, CommandHelpFlagPrintsUsageToStdout) {
  for (const char* cmd : {"run", "sweep", "resume", "list", "profile",
                          "report"}) {
    const CliResult r = invoke({cmd, "--help"});
    EXPECT_EQ(r.code, 0) << cmd << ": " << r.err;
    EXPECT_EQ(r.out.rfind("usage: gluefl", 0), 0u) << cmd;
    EXPECT_TRUE(r.err.empty()) << cmd << ": " << r.err;
  }
  // --help wins over other flags, and never consumes the next token.
  const CliResult r = invoke({"run", "--help", "--rounds", "abc"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_EQ(r.out.rfind("usage: gluefl", 0), 0u);
}

// ---------------------------------------------------------------- run

TEST(CliRun, TwoRoundGlueFlSmokeEmitsTableAndJson) {
  const CliResult r =
      invoke({"run", "--strategy", "gluefl", "--dataset", "femnist",
              "--rounds", "2", "--scale", "0.02", "--eval-every", "1"});
  EXPECT_EQ(r.code, 0) << r.err;
  // Human-readable report table.
  EXPECT_NE(r.out.find("round"), std::string::npos);
  EXPECT_NE(r.out.find("best-acc"), std::string::npos);
  // Machine-readable summary with the trajectory.
  EXPECT_NE(r.out.find("JSON summary:"), std::string::npos);
  EXPECT_NE(r.out.find("\"schema\": \"gluefl.run.v1\""), std::string::npos);
  EXPECT_NE(r.out.find("\"strategy\": \"gluefl\""), std::string::npos);
  EXPECT_NE(r.out.find("\"trajectory\": [{"), std::string::npos);
}

TEST(CliRun, JsonFileFlagWritesTheSummary) {
  const std::string path = "test_cli_run_summary.json";
  const CliResult r =
      invoke({"run", "--strategy", "fedavg", "--dataset", "femnist",
              "--rounds", "1", "--scale", "0.02", "--json", path.c_str()});
  EXPECT_EQ(r.code, 0) << r.err;
  std::ifstream f(path);
  ASSERT_TRUE(f.good());
  std::stringstream content;
  content << f.rdbuf();
  EXPECT_NE(content.str().find("\"schema\": \"gluefl.run.v1\""),
            std::string::npos);
  EXPECT_NE(content.str().find("\"strategy\": \"fedavg\""), std::string::npos);
  f.close();
  std::remove(path.c_str());
}

// ------------------------------------------------------ agg / topology

TEST(CliAgg, ShardedRunEchoesSettingsInJson) {
  const CliResult r =
      invoke({"run", "--strategy", "fedavg", "--rounds", "1", "--scale",
              "0.02", "--agg", "sharded", "--agg-shards", "4"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("\"agg\": \"sharded\""), std::string::npos);
  EXPECT_NE(r.out.find("\"agg_shards\": 4"), std::string::npos);
  EXPECT_NE(r.out.find("\"topology\": \"flat\""), std::string::npos);
}

TEST(CliAgg, ShardedIsBitIdenticalToDenseThroughTheCli) {
  const std::initializer_list<const char*> common = {
      "run", "--strategy", "gluefl", "--rounds", "2", "--scale", "0.02",
      "--eval-every", "1"};
  std::vector<std::string> dense(common.begin(), common.end());
  std::vector<std::string> sharded = dense;
  sharded.insert(sharded.end(), {"--agg", "sharded", "--threads", "4"});
  std::ostringstream dout, derr, sout, serr;
  ASSERT_EQ(run_cli(dense, dout, derr), 0) << derr.str();
  ASSERT_EQ(run_cli(sharded, sout, serr), 0) << serr.str();
  // Identical trajectories / totals; only the echoed settings may differ.
  const auto traj = [](const std::string& s) {
    return s.substr(s.find("\"best_accuracy\""));
  };
  EXPECT_EQ(traj(dout.str()), traj(sout.str()));
}

TEST(CliAgg, ShardsBelowOneRejected) {
  const CliResult r = invoke({"run", "--agg", "sharded", "--agg-shards", "0",
                              "--rounds", "1", "--scale", "0.02"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--agg-shards"), std::string::npos);
}

TEST(CliAgg, ShardsRequireShardedBackend) {
  const CliResult r = invoke({"run", "--agg-shards", "4", "--rounds", "1",
                              "--scale", "0.02"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--agg-shards requires --agg=sharded"),
            std::string::npos);
}

TEST(CliAgg, UnknownBackendRejected) {
  const CliResult r = invoke({"run", "--agg", "turbo", "--rounds", "1"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("turbo"), std::string::npos);
}

TEST(CliTopology, HierarchicalRunEchoesTopology) {
  const CliResult r = invoke({"run", "--strategy", "fedavg", "--rounds", "1",
                              "--scale", "0.02", "--topology", "hier:2"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("\"topology\": \"hier:2\""), std::string::npos);
  EXPECT_NE(r.out.find("topology=hier:2"), std::string::npos);
}

TEST(CliTopology, ZeroEdgesRejected) {
  const CliResult r = invoke({"run", "--topology", "hier:0", "--rounds", "1"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("hier:<E>"), std::string::npos);
}

TEST(CliTopology, MalformedSpecRejected) {
  for (const char* spec : {"hier", "hier:", "hier:abc", "ring:3"}) {
    const CliResult r = invoke({"run", "--topology", spec, "--rounds", "1"});
    EXPECT_EQ(r.code, 2) << spec;
  }
}

TEST(CliTopology, MoreEdgesThanClientsRejected) {
  // femnist at scale 0.02 has well under 999999 clients.
  const CliResult r = invoke({"run", "--topology", "hier:999999", "--rounds",
                              "1", "--scale", "0.02"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("more edges than the population"), std::string::npos);
}

TEST(CliTopology, SweepAcceptsAggAndTopology) {
  const CliResult r =
      invoke({"sweep", "--dataset", "femnist", "--rounds", "1", "--scale",
              "0.02", "--q", "0.2", "--agg", "sharded", "--topology",
              "hier:2"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("\"agg\": \"sharded\""), std::string::npos);
  EXPECT_NE(r.out.find("\"topology\": \"hier:2\""), std::string::npos);
}

// ---------------------------------------------------------------- wire

TEST(CliWire, DefaultsToEncodedAndEchoesInJson) {
  const CliResult r = invoke({"run", "--rounds", "1", "--eval-every", "1",
                              "--scale", "0.02"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("\"wire\": \"encoded\""), std::string::npos);
  // Measured per-round byte fields ride the trajectory entries.
  EXPECT_NE(r.out.find("\"round_up_bytes\""), std::string::npos);
  EXPECT_NE(r.out.find("\"cum_up_gb\""), std::string::npos);
}

TEST(CliWire, AnalyticModeAcceptedForAbRegression) {
  const CliResult r = invoke({"run", "--rounds", "1", "--eval-every", "1",
                              "--scale", "0.02", "--wire", "analytic"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("\"wire\": \"analytic\""), std::string::npos);
}

TEST(CliWire, UnknownModeRejected) {
  const CliResult r = invoke({"run", "--wire", "telepathy", "--rounds", "1"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("wire mode"), std::string::npos);
}

TEST(CliWire, SweepEchoesWireMode) {
  const CliResult r =
      invoke({"sweep", "--dataset", "femnist", "--rounds", "1", "--scale",
              "0.02", "--q", "0.2", "--wire", "analytic"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("\"wire\": \"analytic\""), std::string::npos);
}

// ---------------------------------------------------------------- async

TEST(CliAsync, DefaultBufferClampsToLoweredConcurrency) {
  // femnist's K is 30; with only --async-conc lowered, the buffer default
  // must clamp to N rather than erroring about an unset --async-buffer.
  const CliResult r = invoke({"run", "--exec=async", "--rounds", "1",
                              "--scale", "0.02", "--async-conc", "5"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("\"buffer_size\": 5"), std::string::npos);
}

TEST(CliAsync, BufferLargerThanConcurrencyRejected) {
  const CliResult r =
      invoke({"run", "--exec=async", "--rounds", "1", "--scale", "0.02",
              "--async-buffer", "50", "--async-conc", "10"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("must not exceed --async-conc"), std::string::npos);
}

TEST(CliAsync, SweepRejectsBufferArmAboveConcurrency) {
  const CliResult r =
      invoke({"sweep", "--exec=async", "--rounds", "1", "--scale", "0.02",
              "--async-buffer", "3,50", "--async-conc", "10"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("must not exceed --async-conc"), std::string::npos);
  EXPECT_EQ(r.out.find("best-acc"), std::string::npos);  // no arm ran
}

TEST(CliAsync, RunEmitsAsyncBlockAndStalenessColumn) {
  const CliResult r =
      invoke({"run", "--exec=async", "--strategy", "async-fedbuff",
              "--dataset", "femnist", "--rounds", "3", "--scale", "0.02",
              "--eval-every", "1", "--async-buffer", "4", "--async-conc", "8"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("staleness"), std::string::npos);
  EXPECT_NE(r.out.find("\"exec\": \"async\""), std::string::npos);
  EXPECT_NE(r.out.find("\"async\": {\"buffer_size\": 4"), std::string::npos);
  EXPECT_NE(r.out.find("\"trajectory\": [{"), std::string::npos);
}

TEST(CliAsync, DefaultStrategyUnderAsyncExecIsFedBuff) {
  const CliResult r = invoke({"run", "--exec=async", "--rounds", "1",
                              "--scale", "0.02"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("\"strategy\": \"async-fedbuff\""), std::string::npos);
}

TEST(CliAsync, SyncStrategyRejectedUnderAsyncExec) {
  const CliResult r = invoke({"run", "--exec=async", "--strategy", "gluefl",
                              "--rounds", "1", "--scale", "0.02"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("gluefl"), std::string::npos);
  EXPECT_NE(r.err.find("async-fedbuff"), std::string::npos);
}

TEST(CliAsync, OvercommitRejectedUnderAsyncExec) {
  const CliResult r = invoke({"run", "--exec=async", "--overcommit", "2.0",
                              "--rounds", "1", "--scale", "0.02"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--overcommit requires --exec=sync"),
            std::string::npos);
}

TEST(CliAsync, AsyncFlagsRequireAsyncExec) {
  const CliResult r = invoke({"run", "--async-buffer", "4", "--rounds", "1",
                              "--scale", "0.02"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--async-buffer requires --exec=async"),
            std::string::npos);
}

TEST(CliAsync, RejectsUnknownExecMode) {
  const CliResult r = invoke({"run", "--exec", "turbo", "--rounds", "1"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("turbo"), std::string::npos);
}

TEST(CliAsync, RejectsBadStalenessMode) {
  const CliResult r = invoke({"run", "--exec=async", "--staleness", "linear",
                              "--rounds", "1", "--scale", "0.02"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("linear"), std::string::npos);
}

TEST(CliAsync, JsonIsIdenticalAcrossThreadCounts) {
  const CliResult t1 =
      invoke({"run", "--exec=async", "--rounds", "3", "--scale", "0.02",
              "--eval-every", "1", "--threads", "1"});
  const CliResult t4 =
      invoke({"run", "--exec=async", "--rounds", "3", "--scale", "0.02",
              "--eval-every", "1", "--threads", "4"});
  ASSERT_EQ(t1.code, 0) << t1.err;
  ASSERT_EQ(t4.code, 0) << t4.err;
  EXPECT_EQ(t1.out, t4.out);
}

TEST(CliAsync, SweepGridsBufferAndAlpha) {
  const CliResult r =
      invoke({"sweep", "--exec=async", "--dataset", "femnist", "--rounds", "2",
              "--scale", "0.02", "--async-buffer", "3,6", "--staleness-alpha",
              "0.0,0.5"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("4 arms"), std::string::npos);
  EXPECT_NE(r.out.find("K=3 alpha=0.00"), std::string::npos);
  EXPECT_NE(r.out.find("K=6 alpha=0.50"), std::string::npos);
  EXPECT_NE(r.out.find("\"exec\": \"async\""), std::string::npos);
}

TEST(CliAsync, SweepRejectsFractionalBufferInsteadOfTruncating) {
  const CliResult r = invoke({"sweep", "--exec=async", "--async-buffer",
                              "3.7", "--rounds", "1", "--scale", "0.02"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--async-buffer"), std::string::npos);
  EXPECT_EQ(r.out.find("best-acc"), std::string::npos);  // no arm ran
}

TEST(CliAsync, SweepRejectsSyncGridFlagsUnderAsync) {
  const CliResult r = invoke({"sweep", "--exec=async", "--q", "0.2",
                              "--rounds", "1", "--scale", "0.02"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--q requires --exec=sync"), std::string::npos);
}

// ---------------------------------------------------------------- sweep

TEST(CliSweep, TwoArmGridReportsCostTable) {
  const CliResult r =
      invoke({"sweep", "--dataset", "femnist", "--rounds", "2", "--scale",
              "0.02", "--q", "0.2", "--q-shr", "0.05,0.1"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("2 arms"), std::string::npos);
  EXPECT_NE(r.out.find("q_shr=5.0%"), std::string::npos);
  EXPECT_NE(r.out.find("q_shr=10.0%"), std::string::npos);
  EXPECT_NE(r.out.find("\"schema\": \"gluefl.sweep.v1\""), std::string::npos);
  EXPECT_NE(r.out.find("target_accuracy"), std::string::npos);
}

TEST(CliSweep, ValidatesGridBeforeRunningAnyArm) {
  const CliResult r = invoke({"sweep", "--dataset", "femnist", "--rounds", "1",
                              "--scale", "0.02", "--q", "0.2,1.5"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--q"), std::string::npos);
  // The valid q=0.2 arm must not have executed first.
  EXPECT_EQ(r.out.find("best-acc"), std::string::npos);
}

TEST(CliSweep, RejectsOversizedGrid) {
  // 5 * 5 * 3 = 75 arms > 64.
  const CliResult r = invoke(
      {"sweep", "--q", "0.1,0.2,0.3,0.4,0.5", "--q-shr",
       "0.01,0.02,0.03,0.04,0.05", "--sticky-c", "6,12,18"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("75"), std::string::npos);
}

// --------------------------------------------------- checkpoint / resume

namespace fs = std::filesystem;

/// RAII scratch directory under the test working directory.
struct ScratchDir {
  fs::path path;
  explicit ScratchDir(const std::string& name) : path(name) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~ScratchDir() { fs::remove_all(path); }
  std::string str() const { return path.string(); }
};

TEST(CliCkpt, ProvenanceEmbeddedInRunJson) {
  const CliResult r = invoke({"run", "--strategy", "fedavg", "--rounds", "1",
                              "--scale", "0.02"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("\"provenance\": {\"git_hash\": "), std::string::npos);
  EXPECT_NE(r.out.find("\"build_type\": "), std::string::npos);
}

TEST(CliCkpt, ProvenanceEmbeddedInSweepJson) {
  const CliResult r = invoke({"sweep", "--rounds", "1", "--scale", "0.02"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("\"provenance\": {\"git_hash\": "), std::string::npos);
}

TEST(CliCkpt, CheckpointEveryBelowOneRejected) {
  const CliResult r = invoke({"run", "--rounds", "2", "--scale", "0.02",
                              "--checkpoint-every", "0", "--checkpoint-dir",
                              "."});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("checkpoint-every"), std::string::npos);
}

TEST(CliCkpt, CheckpointEveryRequiresDir) {
  const CliResult r = invoke(
      {"run", "--rounds", "2", "--scale", "0.02", "--checkpoint-every", "1"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--checkpoint-dir"), std::string::npos);
}

TEST(CliCkpt, MissingCheckpointDirRejected) {
  const CliResult r = invoke({"run", "--rounds", "2", "--scale", "0.02",
                              "--checkpoint-every", "1", "--checkpoint-dir",
                              "no/such/dir/anywhere"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("missing or not writable"), std::string::npos);
}

TEST(CliCkpt, CrashRoundOutOfRangeRejected) {
  for (const char* bad : {"0", "7"}) {
    const CliResult r = invoke({"run", "--rounds", "6", "--scale", "0.02",
                                "--crash-at-round", bad});
    EXPECT_EQ(r.code, 2) << bad;
    EXPECT_NE(r.err.find("crash-at-round"), std::string::npos) << bad;
  }
}

TEST(CliCkpt, ResumeMissingCheckpointIsACleanError) {
  const CliResult r = invoke({"resume", "no-such-checkpoint.gfc"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("no-such-checkpoint.gfc"), std::string::npos);
  // One clean line, not a CHECK stack line.
  EXPECT_EQ(r.err.find("GLUEFL_CHECK"), std::string::npos);
}

TEST(CliCkpt, ResumeWithoutPathIsAUsageError) {
  const CliResult r = invoke({"resume"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("checkpoint path"), std::string::npos);
}

TEST(CliCkpt, ResumeTruncatedAndCorruptAndWrongVersionRejected) {
  ScratchDir dir("cli_ckpt_bad");
  // Write a real checkpoint first.
  const CliResult w =
      invoke({"run", "--strategy", "fedavg", "--rounds", "4", "--scale",
              "0.02", "--checkpoint-every", "2", "--checkpoint-dir",
              dir.str().c_str()});
  ASSERT_EQ(w.code, 0) << w.err;
  const fs::path good = dir.path / "ckpt-00000002.gfc";
  ASSERT_TRUE(fs::exists(good));
  std::ifstream in(good, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();

  const auto write_variant = [&](const std::string& name,
                                 const std::vector<char>& content) {
    const fs::path p = dir.path / name;
    std::ofstream out(p, std::ios::binary);
    out.write(content.data(),
              static_cast<std::streamsize>(content.size()));
    return p.string();
  };

  std::vector<char> truncated(bytes.begin(),
                              bytes.begin() + static_cast<long>(40));
  std::vector<char> corrupt = bytes;
  corrupt[bytes.size() / 2] ^= 0x20;
  std::vector<char> wrong_version = bytes;
  wrong_version[4] = 99;  // format byte

  struct Case {
    std::string path;
    const char* expect;
  };
  const Case cases[] = {
      {write_variant("trunc.gfc", truncated), "truncated"},
      {write_variant("corrupt.gfc", corrupt), "CRC"},
      {write_variant("version.gfc", wrong_version), "version"},
  };
  for (const Case& c : cases) {
    const CliResult r = invoke({"resume", c.path.c_str()});
    EXPECT_EQ(r.code, 1) << c.path;
    EXPECT_NE(r.err.find(c.expect), std::string::npos) << r.err;
  }
}

TEST(CliCkpt, CrashThenResumeReproducesUninterruptedJsonByteExactly) {
  ScratchDir dir("cli_ckpt_e2e");
  const std::string full_json = (dir.path / "full.json").string();
  const std::string resumed_json = (dir.path / "resumed.json").string();

  const CliResult full =
      invoke({"run", "--strategy", "gluefl", "--rounds", "4", "--scale",
              "0.02", "--eval-every", "1", "--json", full_json.c_str()});
  ASSERT_EQ(full.code, 0) << full.err;

  const CliResult crashed =
      invoke({"run", "--strategy", "gluefl", "--rounds", "4", "--scale",
              "0.02", "--eval-every", "1", "--checkpoint-every", "2",
              "--checkpoint-dir", dir.str().c_str(), "--crash-at-round",
              "3"});
  EXPECT_EQ(crashed.code, 3);  // the simulated-crash exit code
  EXPECT_NE(crashed.out.find("simulated crash"), std::string::npos);
  const std::string ckpt = (dir.path / "ckpt-00000002.gfc").string();
  EXPECT_NE(crashed.out.find(ckpt), std::string::npos);

  const CliResult resumed = invoke(
      {"resume", ckpt.c_str(), "--json", resumed_json.c_str()});
  ASSERT_EQ(resumed.code, 0) << resumed.err;

  std::ifstream a(full_json), b(resumed_json);
  std::stringstream sa, sb;
  sa << a.rdbuf();
  sb << b.rdbuf();
  ASSERT_FALSE(sa.str().empty());
  EXPECT_EQ(sa.str(), sb.str());  // byte-identical summary
}

TEST(CliCkpt, AsyncCrashThenResumeMatchesUninterruptedJson) {
  ScratchDir dir("cli_ckpt_async_e2e");
  const std::string full_json = (dir.path / "full.json").string();
  const std::string resumed_json = (dir.path / "resumed.json").string();

  const CliResult full =
      invoke({"run", "--exec", "async", "--rounds", "6", "--scale", "0.02",
              "--eval-every", "2", "--json", full_json.c_str()});
  ASSERT_EQ(full.code, 0) << full.err;

  const CliResult crashed =
      invoke({"run", "--exec", "async", "--rounds", "6", "--scale", "0.02",
              "--eval-every", "2", "--checkpoint-every", "3",
              "--checkpoint-dir", dir.str().c_str(), "--crash-at-round",
              "4"});
  EXPECT_EQ(crashed.code, 3);
  const std::string ckpt = (dir.path / "ckpt-00000003.gfc").string();
  ASSERT_TRUE(fs::exists(ckpt));

  const CliResult resumed = invoke(
      {"resume", ckpt.c_str(), "--json", resumed_json.c_str()});
  ASSERT_EQ(resumed.code, 0) << resumed.err;

  std::ifstream a(full_json), b(resumed_json);
  std::stringstream sa, sb;
  sa << a.rdbuf();
  sb << b.rdbuf();
  ASSERT_FALSE(sa.str().empty());
  EXPECT_EQ(sa.str(), sb.str());
}

TEST(CliCkpt, ResumeAcceptsThreadOverrideWithIdenticalJson) {
  ScratchDir dir("cli_ckpt_threads");
  const std::string full_json = (dir.path / "full.json").string();
  const std::string resumed_json = (dir.path / "resumed.json").string();

  const CliResult full =
      invoke({"run", "--strategy", "stc", "--rounds", "4", "--scale", "0.02",
              "--threads", "1", "--json", full_json.c_str()});
  ASSERT_EQ(full.code, 0) << full.err;

  const CliResult crashed =
      invoke({"run", "--strategy", "stc", "--rounds", "4", "--scale", "0.02",
              "--threads", "1", "--checkpoint-every", "2",
              "--checkpoint-dir", dir.str().c_str(), "--crash-at-round",
              "3"});
  EXPECT_EQ(crashed.code, 3);

  // Training is thread-count deterministic, so resuming with 4 threads
  // must still match the single-threaded original byte for byte.
  const std::string ckpt = (dir.path / "ckpt-00000002.gfc").string();
  const CliResult resumed =
      invoke({"resume", ckpt.c_str(), "--threads", "4", "--json",
              resumed_json.c_str()});
  ASSERT_EQ(resumed.code, 0) << resumed.err;

  std::ifstream a(full_json), b(resumed_json);
  std::stringstream sa, sb;
  sa << a.rdbuf();
  sb << b.rdbuf();
  EXPECT_EQ(sa.str(), sb.str());
}

TEST(CliCkpt, TamperedMetaOutOfRangeIsACleanError) {
  // A checkpoint whose CRC has been re-sealed around a nonsense meta
  // value (eval_every=0 would divide by zero in the round loop) must die
  // as one clean CkptError line, never as UB.
  ScratchDir dir("cli_ckpt_tamper");
  const CliResult w =
      invoke({"run", "--strategy", "fedavg", "--rounds", "4", "--scale",
              "0.02", "--checkpoint-every", "2", "--checkpoint-dir",
              dir.str().c_str()});
  ASSERT_EQ(w.code, 0) << w.err;
  const std::string good = (dir.path / "ckpt-00000002.gfc").string();

  ckpt::Snapshot snap = ckpt::load_checkpoint(good);
  snap.meta["eval_every"] = "0";
  const std::string bad = (dir.path / "tampered.gfc").string();
  ckpt::save_checkpoint(bad, snap);  // re-seals the CRC

  const CliResult r = invoke({"resume", bad.c_str()});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("eval_every"), std::string::npos) << r.err;
  EXPECT_NE(r.err.find("out of range"), std::string::npos) << r.err;
}

TEST(CliCkpt, AnyLegalRunConfigurationIsResumable) {
  // Resume's meta validation must accept exactly what run's flag
  // validation accepts — an extreme-but-legal overcommit must not strand
  // the campaign's snapshots.
  ScratchDir dir("cli_ckpt_extreme");
  const CliResult w =
      invoke({"run", "--strategy", "fedavg", "--rounds", "4", "--scale",
              "0.02", "--overcommit", "2000", "--checkpoint-every", "2",
              "--checkpoint-dir", dir.str().c_str()});
  ASSERT_EQ(w.code, 0) << w.err;
  const std::string ckpt = (dir.path / "ckpt-00000002.gfc").string();
  const CliResult r = invoke({"resume", ckpt.c_str()});
  EXPECT_EQ(r.code, 0) << r.err;
}

TEST(CliCkpt, TamperedRegistryNameIsACleanError) {
  // Unknown agg/wire names must reject as CkptError (exit 1), never fall
  // back to a silent default backend.
  ScratchDir dir("cli_ckpt_registry");
  const CliResult w =
      invoke({"run", "--strategy", "fedavg", "--rounds", "4", "--scale",
              "0.02", "--checkpoint-every", "2", "--checkpoint-dir",
              dir.str().c_str()});
  ASSERT_EQ(w.code, 0) << w.err;
  ckpt::Snapshot snap =
      ckpt::load_checkpoint((dir.path / "ckpt-00000002.gfc").string());
  snap.meta["agg"] = "bogus";
  const std::string bad = (dir.path / "bad-agg.gfc").string();
  ckpt::save_checkpoint(bad, snap);
  const CliResult r = invoke({"resume", bad.c_str()});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("bogus"), std::string::npos) << r.err;
}

TEST(CliCkpt, ResumeRejectsCrashRoundAtOrBeforeTheBoundary) {
  ScratchDir dir("cli_ckpt_crash_range");
  const CliResult w =
      invoke({"run", "--strategy", "fedavg", "--rounds", "4", "--scale",
              "0.02", "--checkpoint-every", "2", "--checkpoint-dir",
              dir.str().c_str()});
  ASSERT_EQ(w.code, 0) << w.err;
  const std::string ckpt = (dir.path / "ckpt-00000002.gfc").string();

  // Boundary 2 is already complete: a crash at 1 or 2 can never fire.
  for (const char* bad : {"1", "2"}) {
    const CliResult r = invoke({"resume", ckpt.c_str(), "--checkpoint-every",
                                "2", "--checkpoint-dir", dir.str().c_str(),
                                "--crash-at-round", bad});
    EXPECT_EQ(r.code, 2) << bad;
    EXPECT_NE(r.err.find("checkpoint boundary"), std::string::npos) << r.err;
  }
  // Boundary 3 is still ahead: the resumed run must crash there.
  const CliResult r = invoke({"resume", ckpt.c_str(), "--crash-at-round",
                              "3"});
  EXPECT_EQ(r.code, 3);
  EXPECT_NE(r.out.find("simulated crash"), std::string::npos);
}

TEST(CliCkpt, ResumeCrashReportPointsAtTheSourceCheckpoint) {
  // A crash injected before the resumed run's first NEW snapshot must
  // still point the user at the (valid) source checkpoint.
  ScratchDir dir("cli_ckpt_crash_report");
  const CliResult w =
      invoke({"run", "--strategy", "fedavg", "--rounds", "6", "--scale",
              "0.02", "--checkpoint-every", "2", "--checkpoint-dir",
              dir.str().c_str()});
  ASSERT_EQ(w.code, 0) << w.err;
  const std::string ckpt = (dir.path / "ckpt-00000002.gfc").string();

  const CliResult r = invoke({"resume", ckpt.c_str(), "--crash-at-round",
                              "3"});
  EXPECT_EQ(r.code, 3);
  EXPECT_NE(r.out.find("resume with: gluefl resume " + ckpt),
            std::string::npos)
      << r.out;
}

TEST(CliCkpt, SweepRejectsCheckpointFlags) {
  const CliResult r = invoke({"sweep", "--rounds", "1", "--scale", "0.02",
                              "--checkpoint-every", "1"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("checkpoint-every"), std::string::npos);
}

}  // namespace
}  // namespace gluefl::cli
