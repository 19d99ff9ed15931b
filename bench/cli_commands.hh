/**
 * @file
 * Implementations of the `sst` CLI commands (dispatched by
 * bench/sst_main.cc).
 *
 * Every *Main takes (argc, argv, first) where argv[first] is the first
 * command-specific argument (2 behind the `sst <command>` dispatcher).
 */

#ifndef SST_BENCH_CLI_COMMANDS_HH
#define SST_BENCH_CLI_COMMANDS_HH

namespace sst {
namespace cli {

/** `sst trace info`: validate and describe a recorded op trace
 *  (recording and replay run on the driver: `--record-dir`,
 *  `--trace-dir`). */
int traceMain(int argc, char **argv, int first);

/** `sst run` and its alias `sst sweep`: run an experiment grid from a
 *  spec file (`--spec FILE`) or the defaults, with every spec key also
 *  a flag (`--threads 2,4`, `--set machine.llc-bytes=1M`). */
int runMain(int argc, char **argv, int first);

/** `sst list profiles|scheds|frontends`: enumerate the registries. */
int listMain(int argc, char **argv, int first);

/** `sst serve`: run the persistent sweep service (src/serve/). */
int serveMain(int argc, char **argv, int first);

/** `sst worker --connect`: lease and execute jobs from a server. */
int workerMain(int argc, char **argv, int first);

/** `sst submit`: client for a running server (submit/results/...). */
int submitMain(int argc, char **argv, int first);

/** `sst metrics ENDPOINT`: stream a live server's telemetry text. */
int metricsMain(int argc, char **argv, int first);

/** `sst --version`: print every persisted-format version. */
int versionMain();

} // namespace cli
} // namespace sst

#endif // SST_BENCH_CLI_COMMANDS_HH
