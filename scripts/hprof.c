/* hprof: a sampling heap profiler as an LD_PRELOAD library.
 *
 *   cc -O2 -shared -fPIC -o hprof.so scripts/hprof.c
 *   LD_PRELOAD=$PWD/hprof.so <program> <args>      # writes ./hprof.out
 *   python3 scripts/hprof_report.py hprof.out
 *
 * malloc, calloc, realloc, free and the aligned allocators are wrapped
 * around glibc's own (__libc_malloc and friends, so no dlsym bootstrap).
 * Live bytes are counted with malloc_usable_size. Every 4 KiB allocated
 * (cumulative, all threads) charges one backtrace() with 4 KiB of
 * weight; an allocation larger than that carries one backtrace() with
 * the weight of every boundary it crosses. A sampled block's weight
 * stays on its stack until the block is freed. Whenever the live heap
 * passes its last recorded peak by 64 KiB, the live sampled bytes of
 * every stack are copied aside: that copy, taken at the peak, is what
 * the report attributes. At exit ./hprof.out gets /proc/self/maps on
 * top (as sprof.c does), a P line and one S line per stack: its bytes
 * at the peak, then its frames, innermost first, starting inside this
 * library (the report strips those). Outside every Cargo build on
 * purpose. */
#define _GNU_SOURCE
#include <errno.h>
#include <execinfo.h>
#include <malloc.h>
#include <stddef.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>

extern void *__libc_malloc(size_t);
extern void *__libc_calloc(size_t, size_t);
extern void *__libc_realloc(void *, size_t);
extern void *__libc_memalign(size_t, size_t);
extern void __libc_free(void *);

#define SAMPLE_BYTES 4096L
#define HYSTERESIS (64L * 1024)
#define DEPTH 40
#define STACK_SLOTS (1 << 14) /* distinct stacks, a power of two */
#define BLOCK_BITS 18
#define BLOCK_SLOTS (1 << BLOCK_BITS) /* live sampled blocks */

struct stack {
    uint64_t hash;
    int depth;
    void *frames[DEPTH];
    long live; /* sampled bytes of this stack live now */
    long snap; /* ... at the recorded peak */
};

struct block {
    void *ptr; /* NULL = empty slot */
    int stack;
    long weight;
};

static struct stack stacks[STACK_SLOTS];
static struct block blocks[BLOCK_SLOTS];
static long live, peak, peak_mark, allocated, until_sample = SAMPLE_BYTES;
static long dropped; /* samples with no free stack or block slot */
static int stopped;  /* set at exit: the peak copy is final */
static char lock;
static __thread int in_hook __attribute__((tls_model("initial-exec")));

static void acquire(void) {
    while (__atomic_test_and_set(&lock, __ATOMIC_ACQUIRE))
        ;
}

static void release(void) { __atomic_clear(&lock, __ATOMIC_RELEASE); }

static size_t slot_of(void *p) { return ((uintptr_t)p >> 4) * 0x9E3779B97F4A7C15ull >> (64 - BLOCK_BITS); }

/* Under the lock: count a new block; returns its sample weight. */
static long note_alloc(void *p) {
    long n = (long)malloc_usable_size(p), weight = 0;
    live += n;
    allocated += n;
    if (live > peak)
        peak = live;
    if (!stopped && live > peak_mark + HYSTERESIS) {
        peak_mark = live;
        for (int i = 0; i < STACK_SLOTS; i++)
            stacks[i].snap = stacks[i].live;
    }
    for (until_sample -= n; until_sample <= 0; until_sample += SAMPLE_BYTES)
        weight += SAMPLE_BYTES;
    return weight;
}

/* Under the lock: count a block going away, and its sample if any. */
static void note_free(void *p) {
    if (!p)
        return;
    live -= (long)malloc_usable_size(p);
    size_t i = slot_of(p);
    for (size_t probes = 0; probes < BLOCK_SLOTS && blocks[i].ptr; probes++) {
        if (blocks[i].ptr == p) {
            stacks[blocks[i].stack].live -= blocks[i].weight;
            /* backward-shift deletion keeps every probe chain intact */
            size_t hole = i;
            for (size_t j = (i + 1) & (BLOCK_SLOTS - 1); blocks[j].ptr; j = (j + 1) & (BLOCK_SLOTS - 1)) {
                size_t home = slot_of(blocks[j].ptr);
                if (((j - home) & (BLOCK_SLOTS - 1)) >= ((j - hole) & (BLOCK_SLOTS - 1))) {
                    blocks[hole] = blocks[j];
                    hole = j;
                }
            }
            blocks[hole].ptr = NULL;
            return;
        }
        i = (i + 1) & (BLOCK_SLOTS - 1);
    }
}

static int intern(void **frames, int depth) {
    uint64_t h = 0xcbf29ce484222325ull;
    for (int d = 0; d < depth; d++)
        h = (h ^ (uintptr_t)frames[d]) * 0x100000001b3ull;
    h |= 1; /* 0 marks an empty slot */
    for (int i = h & (STACK_SLOTS - 1), probes = 0; probes < STACK_SLOTS; probes++, i = (i + 1) & (STACK_SLOTS - 1)) {
        struct stack *s = &stacks[i];
        if (!s->hash) {
            s->hash = h;
            s->depth = depth;
            memcpy(s->frames, frames, sizeof(void *) * depth);
            return i;
        }
        if (s->hash == h && s->depth == depth && !memcmp(s->frames, frames, sizeof(void *) * depth))
            return i;
    }
    return -1;
}

/* Outside the lock: take the backtrace, then record the sample. */
static void sample(void *p, long weight) {
    void *frames[DEPTH];
    in_hook = 1; /* backtrace() may allocate on its first call */
    int depth = backtrace(frames, DEPTH);
    in_hook = 0;
    acquire();
    int s = intern(frames, depth);
    size_t i = slot_of(p), probes = 0;
    while (probes < BLOCK_SLOTS && blocks[i].ptr)
        i = (i + 1) & (BLOCK_SLOTS - 1), probes++;
    if (s < 0 || probes == BLOCK_SLOTS) {
        dropped++;
    } else {
        blocks[i] = (struct block){p, s, weight};
        stacks[s].live += weight;
    }
    release();
}

static void *track(void *p) {
    if (!p)
        return p;
    acquire();
    long weight = note_alloc(p);
    release();
    if (weight && !in_hook)
        sample(p, weight);
    return p;
}

void *malloc(size_t n) { return track(__libc_malloc(n)); }

void *calloc(size_t k, size_t n) { return track(__libc_calloc(k, n)); }

void *memalign(size_t align, size_t n) { return track(__libc_memalign(align, n)); }

void *aligned_alloc(size_t align, size_t n) { return memalign(align, n); }

int posix_memalign(void **out, size_t align, size_t n) {
    if (align % sizeof(void *) || (align & (align - 1)))
        return EINVAL;
    void *p = memalign(align, n);
    if (!p)
        return ENOMEM;
    *out = p;
    return 0;
}

void free(void *p) {
    if (!p)
        return;
    acquire();
    note_free(p);
    release();
    __libc_free(p);
}

void *realloc(void *p, size_t n) {
    if (!p)
        return malloc(n);
    if (!n) {
        free(p);
        return NULL;
    }
    /* the old block stops being counted before realloc can reuse it */
    acquire();
    note_free(p);
    release();
    void *q = __libc_realloc(p, n);
    if (!q) { /* p is still live: count it again, without its sample */
        acquire();
        note_alloc(p);
        release();
        return NULL;
    }
    return track(q);
}

__attribute__((constructor)) static void hprof_start(void) {
    void *warm[4];
    in_hook = 1;
    backtrace(warm, 4); /* loads the unwinder before it is needed */
    in_hook = 0;
}

__attribute__((destructor)) static void hprof_stop(void) {
    in_hook = 1;
    acquire();
    stopped = 1;
    release();
    FILE *out = fopen("hprof.out", "w"), *maps = fopen("/proc/self/maps", "r");
    if (out && maps) {
        char line[512];
        while (fgets(line, sizeof line, maps))
            fprintf(out, "M %s", line);
        fprintf(out, "P peak %ld recorded %ld allocated %ld sample %ld dropped %ld\n", peak, peak_mark,
                allocated, SAMPLE_BYTES, dropped);
        for (int i = 0; i < STACK_SLOTS; i++) {
            if (stacks[i].snap <= 0)
                continue;
            fprintf(out, "S %ld", stacks[i].snap);
            for (int d = 0; d < stacks[i].depth; d++)
                fprintf(out, " %p", stacks[i].frames[d]);
            fputc('\n', out);
        }
    }
    if (maps)
        fclose(maps);
    if (out)
        fclose(out);
}
