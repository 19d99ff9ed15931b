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

#include <cstdio>
#include <string>

#include "cli_commands.hh"

namespace {

struct Command
{
    const char *name;
    const char *description;
    int (*run)(int argc, char **argv, int first);
};

constexpr Command kCommands[] = {
    {"run", "run an experiment: a spec file and/or spec-key flags",
     sst::cli::runMain},
    {"sweep", "the same command as run", sst::cli::runMain},
    {"trace", "check and describe a recorded op trace",
     sst::cli::traceMain},
    {"list", "enumerate registered profiles, scheds, frontends, mixes",
     sst::cli::listMain},
    {"serve", "run the persistent sweep service", sst::cli::serveMain},
    {"worker", "lease and execute jobs from a server",
     sst::cli::workerMain},
    {"submit", "submit campaigns / fetch results from a server",
     sst::cli::submitMain},
    {"metrics", "stream telemetry from a running server",
     sst::cli::metricsMain},
};

void
usage()
{
    std::printf("usage: sst <command> [options]\n");
    for (const Command &c : kCommands)
        std::printf("  %-7s %s\n", c.name, c.description);
    std::printf("`sst <command> --help` shows the command's options;\n"
                "`sst --version` prints every persisted-format "
                "version\n");
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage();
        return 1;
    }
    const std::string cmd = argv[1];
    for (const Command &c : kCommands)
        if (cmd == c.name)
            return c.run(argc, argv, 2);
    if (cmd == "--help" || cmd == "-h") {
        usage();
        return 0;
    }
    if (cmd == "--version" || cmd == "-V")
        return sst::cli::versionMain();
    usage();
    std::fprintf(stderr, "fatal: unknown command '%s'\n", cmd.c_str());
    return 1;
}
