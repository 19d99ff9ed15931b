/**
 * @file
 * The `sst` CLI's commands (bench/sst_main.cc is its main()). One
 * dispatcher serves `sst <command>`, `sst list <registry>` and `sst
 * trace <subcommand>` from a Command table each, and every command
 * parses its flags from a Flag table (cli_common.hh), so usage text is
 * generated from the same tables that parse.
 */

#ifndef SST_BENCH_CLI_COMMANDS_HH
#define SST_BENCH_CLI_COMMANDS_HH

namespace sst {
namespace cli {

/** Run `sst ARGS` and return its exit code. An exception escaping a
 *  command is fatal here, in one place: its message, exit 1. */
int sstMain(int argc, char **argv);

} // namespace cli
} // namespace sst

#endif // SST_BENCH_CLI_COMMANDS_HH
