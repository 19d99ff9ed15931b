/**
 * @file
 * The unified `sst` CLI: one binary for every experiment workflow.
 *
 *   sst run --spec examples/specs/fig01.spec   declarative experiments
 *   sst run --profiles all --threads 16        the same keys as flags
 *                                              (`sweep` is another name)
 *   sst trace info --in FILE                   check and describe a trace
 *   sst list profiles|scheds|frontends         enumerate the registries
 *   sst serve / worker / submit                persistent sweep service
 *
 * Traces are recorded and replayed by `run` (`--record-dir`,
 * `--trace-dir`), like every other experiment. The commands live in
 * bench/cli_commands.cc. The dispatcher is
 * table-driven: usage text and the unknown-command error enumerate the
 * same table, so a new command cannot be half-registered.
 */

#include "cli_commands.hh"

int
main(int argc, char **argv)
{
    return sst::cli::sstMain(argc, argv);
}
