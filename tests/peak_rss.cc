/**
 * @file
 * peak_rss: run a command and report its own peak resident set size.
 *
 * Usage: peak_rss -o FILE COMMAND [ARGS...]
 *
 * Forks, execs COMMAND with the launcher's stdio, waits for it with
 * wait4() and writes the child's ru_maxrss (KB) as one line to FILE.
 * Unlike a measurement taken from an interpreter, the figure holds no
 * parent's pages: the child is exec'd straight from this small binary.
 * Exits with the command's status (128 + signal when it was killed),
 * or 127 when the command cannot be started.
 */

#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

int
main(int argc, char **argv)
{
    if (argc < 4 || std::strcmp(argv[1], "-o") != 0) {
        std::fprintf(stderr, "usage: peak_rss -o FILE COMMAND [ARGS...]\n");
        return 2;
    }
    const char *out_path = argv[2];

    const pid_t pid = fork();
    if (pid < 0) {
        std::perror("peak_rss: fork");
        return 127;
    }
    if (pid == 0) {
        execvp(argv[3], argv + 3);
        std::fprintf(stderr, "peak_rss: cannot run %s: %s\n", argv[3],
                     std::strerror(errno));
        _exit(127);
    }

    int status = 0;
    struct rusage usage {};
    while (wait4(pid, &status, 0, &usage) < 0) {
        if (errno != EINTR) {
            std::perror("peak_rss: wait4");
            return 127;
        }
    }

    std::FILE *out = std::fopen(out_path, "w");
    if (out == nullptr) {
        std::fprintf(stderr, "peak_rss: cannot write %s\n", out_path);
        return 127;
    }
    std::fprintf(out, "%ld\n", usage.ru_maxrss);
    std::fclose(out);

    if (WIFSIGNALED(status))
        return 128 + WTERMSIG(status);
    return WEXITSTATUS(status);
}
