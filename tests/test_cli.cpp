// optcm's command-line validation, one row per argv: the exit code cli_main
// returns for it under --dry-run, and a substring of what it prints on
// stderr.  A rejected argv (exit 2) must also print the usage, and no argv
// may print anything on stdout before its work runs.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "optcm_cli.h"

namespace dsm::cli {
namespace {

struct Row {
  const char* name;
  int rc;
  const char* stderr_has;  ///< "" = stderr stays empty
  const char* args;        ///< after the program name, space-separated
};

void PrintTo(const Row& row, std::ostream* os) { *os << "exit " << row.rc; }

const Row kRows[] = {
    // Durability flags.  A state dir implies the recoverable stack, and a
    // node crashes only by SIGKILL, scheduled as a nemesis crash entry: the
    // flags that spelled either another way are gone (their names are
    // spelled in pieces so a search for them finds no live use).
    {"cli_reject_bad_fsync", 2, "unknown --fsync='sometimes'",
     "drive --script=h1 --spawn=3 --state-dir=/tmp/optcm-x --fsync=sometimes "
     "--dry-run"},
    {"cli_reject_kill_without_respawn", 2, "unknown flag --kill-" "host",
     "drive --script=h1 --spawn=3 --kill-" "host=0 --dry-run"},
    {"cli_accept_serve_state_dir", 0, "",
     "serve --id=0 --peers=127.0.0.1:7101 --state-dir=/tmp/optcm-x "
     "--dry-run"},
    // A peer address is HOST:PORT (TCP) or @NAME (abstract AF_UNIX).
    {"cli_accept_serve_abstract_peers", 0, "",
     "serve --id=0 --peers=@a,@b --dry-run"},
    {"cli_reject_serve_empty_abstract_name", 2, "bad peer address '@'",
     "serve --peers=@ --dry-run"},
    // A connection kill is a nemesis flap entry, A:B@MS+GAPxCNT; each of its
    // numbers is a strict decimal.
    {"cli_reject_kill_conn_trailing_text", 2, "bad --nemesis",
     "drive --script=h1 --spawn=3 --nemesis=flap=2:1@15x+0x1 --dry-run"},
    {"cli_reject_kill_conn_second_at", 2, "bad --nemesis",
     "drive --script=h1 --spawn=3 --nemesis=flap=2:1@15@9+0x1 --dry-run"},
    {"cli_accept_kill_conn", 0, "",
     "drive --script=h1 --spawn=3 --nemesis=flap=2:1@15+0x1 --dry-run"},
    {"cli_reject_kill_conn_negative_time", 2, "bad --nemesis",
     "drive --script=h1 --spawn=3 --nemesis=flap=0:1@-5+0x1 --dry-run"},
    {"cli_reject_kill_conn_signed_time", 2, "bad --nemesis",
     "drive --script=h1 --spawn=3 --nemesis=flap=0:1@+7+0x1 --dry-run"},
    // Sharding and group commit.
    {"cli_reject_zero_shards", 2, "--shards-per-proc='0' is out of range",
     "drive --script=h1 --spawn=3 --shards-per-proc=0 --dry-run"},
    {"cli_reject_shards_with_nemesis_crash", 2,
     "--shards-per-proc > 1 is incompatible",
     "drive --script=h1 --spawn=3 --shards-per-proc=2 --nemesis=crash=0@30 "
     "--dry-run"},
    {"cli_reject_group_commit_without_state_dir", 2,
     "--wal-group-commit needs --state-dir",
     "serve --id=0 --peers=127.0.0.1:7101 --wal-group-commit --dry-run"},
    // Nemesis schedules.
    {"cli_reject_bad_nemesis_prob", 2, "bad --nemesis",
     "drive --script=h1 --spawn=3 --dry-run --nemesis=drop=1.5"},
    {"cli_reject_bad_nemesis_node", 2, "bad --nemesis",
     "drive --script=h1 --spawn=3 --dry-run --nemesis=partition=0:9@5+5"},
    {"cli_reject_nemesis_negative_crash_time", 2, "bad --nemesis",
     "drive --script=h1 --spawn=3 --dry-run --nemesis=crash=0@-5"},
    {"cli_reject_nemesis_signed_crash_time", 2, "bad --nemesis",
     "drive --script=h1 --spawn=3 --dry-run --nemesis=crash=0@+40"},
    {"cli_reject_nemesis_partition_overflow", 2, "bad --nemesis",
     "drive --script=h1 --spawn=3 --dry-run "
     "--nemesis=partition=1:2@18446744073709551610+10"},
    {"cli_accept_nemesis_crash_at", 0, "",
     "drive --script=h1 --spawn=3 --nemesis=crash=1@25 --dry-run"},
    // Subscriptions: h1's p1 reads x0, so a map that drops p1 from subs(x0)
    // must be refused before the run.
    {"cli_reject_sub_outside_map", 2,
     "p1 accesses x0 outside the --subscriptions map",
     "drive --script=h1 --spawn=3 --protocol=optp-sharded "
     "--subscriptions=0:0;1:1,2 --dry-run"},
    {"cli_reject_shards_wrong_protocol", 2, "require --protocol=optp-sharded",
     "drive --script=h1 --spawn=3 --shards=2 --dry-run"},
    {"cli_reject_sharded_nemesis_crash", 2,
     "optp-sharded (no WAL/checkpoint seam",
     "drive --script=h1 --spawn=3 --protocol=optp-sharded "
     "--subscriptions=full --nemesis=crash=0@30 --dry-run"},
    {"cli_reject_sharded_crash_run", 2,
     "optp-sharded cannot run under a crash plan",
     "run --protocol=optp-sharded --procs=4 --vars=4 --crash=1@5000:8000 "
     "--dry-run"},
    {"cli_reject_chained_outside_script", 2,
     "p1 accesses x0 outside the --subscriptions map",
     "run --protocol=optp-sharded --script=h1 --subscriptions=chained:1 "
     "--dry-run"},
    {"cli_reject_bad_chained", 2, "chained:4 exceeds 3 procs",
     "run --protocol=optp-sharded --procs=3 --subscriptions=chained:4 "
     "--dry-run"},
    // Partial replication is one design: chained placement on optp-sharded.
    // The metadata-only protocol and its flag are gone (the removed names
    // are spelled in pieces so a search for them finds no live use).
    {"cli_reject_removed_partial_protocol", 2, "unknown --protocol='optp-",
     "run --protocol=optp-" "partial --dry-run"},
    {"cli_reject_removed_replication_flag", 2, "unknown flag --replication",
     "run --protocol=optp-sharded --replication=2 --dry-run"},
    {"cli_reject_bad_zipf", 2, "--zipf='hot' is not a number",
     "run --procs=3 --ops=10 --zipf=hot --dry-run"},
    // Typed objects.
    {"cli_reject_objects_wrong_protocol", 2,
     "typed objects require --protocol=optp, anbkh or optp-sharded",
     "run --protocol=optp-ws --objects=counter --dry-run"},
    {"cli_reject_objects_with_crash", 2,
     "typed objects cannot run under a crash plan",
     "run --protocol=optp --objects=counter --crash=1@5000:8000 --dry-run"},
    {"cli_reject_bad_object_spec", 2, "bad --objects 'blob'",
     "run --objects=blob --dry-run"},
    {"cli_reject_mix_without_objects", 2, "--mix needs --objects",
     "run --mix=1:1:1:1 --dry-run"},
    {"cli_reject_objects_with_script", 2,
     "--script=objects fixes its own schema",
     "run --script=objects --objects=counter --dry-run"},
    {"cli_reject_bad_mix", 2, "bad --mix '1:2'",
     "run --protocol=optp --objects=counter --mix=1:2 --dry-run"},
    {"cli_reject_objects_script_wrong_protocol", 2,
     "typed objects require --protocol=optp, anbkh or optp-sharded",
     "drive --script=objects --spawn=3 --protocol=optp-ws --dry-run"},
    {"cli_reject_objects_script_recoverable", 2,
     "typed payload) keeps no durable state",
     "drive --script=objects --spawn=3 --state-dir=/tmp/optcm-x --dry-run"},
    {"cli_reject_objects_with_subscriptions", 2,
     "typed objects with a restricted subscription map",
     "run --protocol=optp-sharded --subscriptions=0:0,1;1:1,2 "
     "--objects=counter --vars=2 --procs=3 --dry-run"},
    // Fault windows: digits only, DUR > 0, START+DUR must fit in 64 bits.
    {"crash_negative_duration", 2, "bad --crash",
     "faults --procs=3 --ops=5 --crash=1@100:-5"},
    {"crash_trailing_text", 2, "bad --crash",
     "faults --procs=3 --ops=5 --crash=1@100:50x"},
    {"crash_window_overflow", 2, "bad --crash",
     "faults --procs=3 --ops=5 --crash=1@18446744073709551615:1"},
    {"partition_negative_start", 2, "bad --partition",
     "faults --procs=3 --ops=5 --partition=-1:5"},
    {"partition_trailing_text", 2, "bad --partition",
     "faults --procs=3 --ops=5 --partition=100:50xyz"},
    {"partition_window_overflow", 2, "bad --partition",
     "faults --procs=3 --ops=5 --partition=18446744073709551615:1"},
    {"partition_and_crash_windows", 0, "",
     "faults --procs=3 --ops=5 --partition=100:50 --crash=1@100:50,2@0:1"},
    // Values that used to abort, be replaced or be ignored.
    {"negative_ops", 2, "--ops='-1' is out of range [0, inf]",
     "run --ops=-1"},
    {"zero_procs", 2, "--procs='0' is out of range [1, 1024]",
     "run --procs=0"},
    {"procs_above_range", 2, "--procs='1025' is out of range [1, 1024]",
     "run --procs=1025"},
    {"vars_above_range", 2, "--vars='65537' is out of range [1, 65536]",
     "run --vars=65537"},
    {"write_fraction_above_one", 2,
     "--write-fraction='2' is out of range [0, 1]",
     "run --write-fraction=2"},
    {"mistyped_flag", 2, "unknown flag --sead",
     "run --procs=3 --ops=5 --sead=3"},
    {"drop_above_one", 2, "--drop='1.5' is out of range",
     "run --drop=1.5"},
    {"unknown_pattern", 2, "unknown --pattern='zipff'",
     "run --pattern=zipff"},
    {"unknown_latency", 2, "unknown --latency='gaussian'",
     "run --latency=gaussian"},
    {"negative_time_scale", 2, "--time-scale='-5' is out of range",
     "drive --time-scale=-5 --dry-run"},
    {"spawn_with_suffix", 2, "--spawn='3x' is not an integer",
     "drive --spawn=3x --dry-run"},
    {"shards_not_a_number", 2, "--shards='abc' is not an integer",
     "drive --shards=abc --dry-run"},
    {"procs_not_a_number", 2, "--procs='abc' is not an integer",
     "run --procs=abc"},
    {"procs_on_drive", 2, "--procs does not apply to this command",
     "drive --procs=abc --dry-run"},
    {"protocol_on_compare", 2, "--protocol does not apply to this command",
     "compare --protocol=optp"},
    {"recoverable_on_drive", 2, "unknown flag --recov" "erable",
     "drive --script=h1 --recov" "erable --dry-run"},
    // Every command rejects a flag it does not know or take.
    {"unknown_flag_on_compare", 2, "unknown flag --typo",
     "compare --typo"},
    {"unknown_flag_on_faults", 2, "unknown flag --typo",
     "faults --typo=1"},
    {"unknown_flag_on_drive", 2, "unknown flag --wal-group-comit",
     "drive --wal-group-comit"},
    {"unknown_flag_on_serve", 2, "unknown flag --typo",
     "serve --peers=127.0.0.1:7101 --typo"},
    {"unknown_flag_on_paper", 2, "unknown flag --typo",
     "paper table1 --typo"},
    {"unknown_flag_on_replay", 2, "unknown flag --typo",
     "replay run.log --typo"},
    {"spawn_on_run", 2, "--spawn does not apply",
     "run --spawn=3"},
    {"script_on_faults", 2, "--script does not apply",
     "faults --script=h1"},
    {"procs_on_paper", 2, "--procs does not apply",
     "paper table1 --procs=3"},
    {"trace_on_replay", 2, "--trace does not apply",
     "replay run.log --trace"},
    {"spawn_on_serve", 2, "--spawn does not apply",
     "serve --peers=127.0.0.1:7101 --spawn=3"},
    // Command-line shape.
    {"no_command", 2, "usage:",
     ""},
    {"unknown_command", 2, "unknown command 'frobnicate'",
     "frobnicate"},
    {"stray_argument", 2, "unexpected argument 'extra'",
     "run extra"},
    {"replay_without_file", 2, "replay needs a run archive",
     "replay"},
    {"unknown_paper_artifact", 2, "unknown paper artifact 'table9'",
     "paper table9"},
    {"serve_without_peers", 2, "serve needs --peers",
     "serve --id=0"},
    {"switch_with_value", 2, "--trace takes no value",
     "run --trace=1"},
    {"missing_value", 2, "--procs needs a value",
     "run --procs"},
    {"flag_is_not_a_value", 2, "--metrics-out needs a value",
     "run --metrics-out --trace"},
    // Partners declared in the table.
    {"fsync_without_durable_state", 2,
     "--fsync needs --state-dir or --wal-group-commit",
     "drive --fsync=none"},
    {"fsync_on_serve_without_state_dir", 2,
     "--fsync needs --state-dir or --wal-group-commit\n",
     "serve --peers=127.0.0.1:7101 --fsync=none"},
    {"fsync_with_group_commit", 0, "",
     "drive --wal-group-commit --fsync=interval"},
    {"state_dir_on_drive_implies_recoverable", 0, "",
     "drive --state-dir=/tmp/optcm-x"},
    {"durable_serve", 0, "",
     "serve --peers=127.0.0.1:7101 --state-dir=/tmp/optcm-x "
     "--fsync=none --wal-group-commit"},
    {"subscriptions_and_shards", 2,
     "--subscriptions and --shards exclude each other",
     "run --protocol=optp-sharded --subscriptions=full --shards=2"},
    // Value forms.
    {"key_value_form", 0, "",
     "run --protocol=optp --procs=3"},
    {"detached_value", 0, "",
     "run --protocol optp --procs 3"},
    {"detached_value_is_checked", 2, "--procs='0' is out of range",
     "run --procs 0"},
    {"switch_before_positional", 0, "",
     "replay --history run.log"},
    {"switch_after_positional", 0, "",
     "replay run.log --history"},
    {"last_duplicate_wins", 0, "",
     "run --procs=0 --procs=3"},
    {"last_duplicate_is_checked", 2, "--procs='0' is out of range",
     "run --procs=3 --procs=0"},
};

class OptcmArgv : public ::testing::TestWithParam<Row> {};

TEST_P(OptcmArgv, ExitCode) {
  const Row& row = GetParam();
  std::vector<std::string> words;
  std::istringstream in(row.args);
  for (std::string word; in >> word;) words.push_back(word);
  std::vector<const char*> argv{"optcm"};
  for (const std::string& word : words) argv.push_back(word.c_str());
  if (!words.empty()) argv.push_back("--dry-run");  // else: no command
  testing::internal::CaptureStdout();
  testing::internal::CaptureStderr();
  const int rc = cli_main(static_cast<int>(argv.size()), argv.data());
  const std::string out = testing::internal::GetCapturedStdout();
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(rc, row.rc);
  EXPECT_EQ(out, "");
  if (*row.stderr_has == '\0') {
    EXPECT_EQ(err, "");
  } else {
    EXPECT_NE(err.find(row.stderr_has), std::string::npos) << err;
  }
  if (rc == 2) {
    EXPECT_NE(err.find("usage:\n  optcm "), std::string::npos);
  }
}

INSTANTIATE_TEST_SUITE_P(Rows, OptcmArgv, ::testing::ValuesIn(kRows),
                         [](const auto& p) { return p.param.name; });

// Crash mode's telemetry, pinned the way TelemetryGolden pins the plain run:
// the CSV `optcm run --metrics-out` writes for Fig. 1 with p1 crashed over
// [3 ms, 7 ms) must match tests/golden/h1_optp_crash_metrics.csv byte for
// byte (checkpoint_bytes counts the ARQ state riding in each checkpoint).
TEST(CliGolden, Fig1OptPCrashMetricsMatchGoldenFile) {
  const std::string out_path =
      ::testing::TempDir() + "optcm_h1_optp_crash_metrics.csv";
  const std::string metrics_flag = "--metrics-out=" + out_path;
  const char* argv[] = {"optcm", "run", "--protocol=optp", "--script=fig1",
                        "--crash=1@3000:4000", metrics_flag.c_str()};
  testing::internal::CaptureStdout();
  const int rc = cli_main(static_cast<int>(std::size(argv)), argv);
  (void)testing::internal::GetCapturedStdout();
  ASSERT_EQ(rc, 0);

  const auto slurp = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "cannot read " << path;
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
  };
  const std::string actual = slurp(out_path);
  std::remove(out_path.c_str());
  EXPECT_EQ(actual, slurp(std::string(OPTCM_SOURCE_DIR) +
                          "/tests/golden/h1_optp_crash_metrics.csv"));
}

}  // namespace
}  // namespace dsm::cli
