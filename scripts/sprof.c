/* sprof: a SIGPROF sampling profiler as an LD_PRELOAD library.
 *
 *   cc -O2 -shared -fPIC -o sprof.so scripts/sprof.c
 *   LD_PRELOAD=$PWD/sprof.so <program> <args>      # writes ./sprof.out
 *   python3 scripts/sprof_report.py sprof.out
 *
 * Every millisecond of process CPU time the handler stores one
 * backtrace() into a fixed buffer; at exit the buffer is written with
 * /proc/self/maps on top, so the report can turn addresses of a PIE
 * binary into file offsets. Nothing is allocated or formatted inside
 * the handler. Outside every Cargo build on purpose. */
#define _GNU_SOURCE
#include <execinfo.h>
#include <signal.h>
#include <stdio.h>
#include <string.h>
#include <sys/time.h>

#define DEPTH 48
#define MAX_SAMPLES 65536

static void *frames[MAX_SAMPLES][DEPTH];
static int depth[MAX_SAMPLES];
static volatile int n_samples;

static void on_prof(int sig) {
    (void)sig;
    int i = __atomic_fetch_add(&n_samples, 1, __ATOMIC_RELAXED);
    if (i < MAX_SAMPLES)
        depth[i] = backtrace(frames[i], DEPTH);
}

__attribute__((constructor)) static void sprof_start(void) {
    void *warm[4];
    backtrace(warm, 4); /* loads the unwinder outside the handler */
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_handler = on_prof;
    sa.sa_flags = SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every_ms = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every_ms, NULL);
}

__attribute__((destructor)) static void sprof_stop(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    FILE *out = fopen("sprof.out", "w"), *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps)
        return;
    char line[512];
    while (fgets(line, sizeof line, maps))
        fprintf(out, "M %s", line);
    int n = n_samples < MAX_SAMPLES ? n_samples : MAX_SAMPLES;
    for (int i = 0; i < n; i++) {
        fputc('S', out);
        /* frames 0 and 1 are on_prof and the signal trampoline */
        for (int d = 2; d < depth[i]; d++)
            fprintf(out, " %p", frames[i][d]);
        fputc('\n', out);
    }
    fclose(out);
}
