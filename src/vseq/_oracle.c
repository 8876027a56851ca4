/* The Q_{r,s} recursion Q(n) = Q(n - Q(n-r)) + Q(n - Q(n-s)) under the
   all-ones seed Q(1..s) = 1, compiled for sequences.py, which loads it with
   ctypes and keeps the same loops in Python as the reference.  vseq_qrs
   stores Q; vseq_count keeps only the counts F(a) = #{n : Q(n) = a}, reading
   Q's earlier terms back from them.  Both functions return a status; info[]
   carries what the caller needs to raise:
     DEAD           info = {n, argument}  an argument left [1, n-1]
     NOT_MONOTONE   info = {n, Q(n-1), Q(n)}
     COUNT_OVERFLOW info = {value}         a count would pass 255
     VALUE_OVERFLOW info = {n, Q(n)}       Q(n) does not fit 32 bits
     UNSETTLED      info = {n, argument}  Q(argument) read from a count that
                                          was still growing
   In vseq_qrs, Q(i) lives at q[i - 1].

   Two passes that number values, with numpy passes kept as the reference:
     vseq_distinct_bytes  the number of distinct values among n bytes, for
                          level 0 of synthesis.kernel_probe
     vseq_join            for sequences.join_ids: one id per tuple of parts
                          ids q apart (a probe block's q sub-blocks, or a
                          rule scan's 4-window at q = 1, the tuples then
                          overlapping); ids 1, 2 or 4 bytes wide, one loop
                          per pair of widths; returns the number of distinct
                          ids, or -1 for a width, code or rank out of range */
#include <stdint.h>

enum { OK, DEAD, NOT_MONOTONE, COUNT_OVERFLOW, VALUE_OVERFLOW, UNSETTLED };

static int step(const uint32_t *q, int64_t n, int64_t r, int64_t s,
                int64_t *info, uint32_t *out)
{
    int64_t i1 = n - q[n - r - 1], i2 = n - q[n - s - 1];
    if (i1 < 1 || i2 < 1) {
        info[0] = n;
        info[1] = i1 < i2 ? i1 : i2;
        return DEAD;
    }
    uint64_t val = (uint64_t)q[i1 - 1] + q[i2 - 1];
    if (val > UINT32_MAX) {
        info[0] = n;
        info[1] = (int64_t)val;
        return VALUE_OVERFLOW;
    }
    *out = (uint32_t)val;
    return OK;
}

/* Q(n_done + 1..n_max) into the caller's q[0..n_max-1], which holds
   Q(1..n_done) already, n_done >= s. */
int vseq_qrs(uint32_t *q, int64_t r, int64_t s, int64_t n_done, int64_t n_max,
             int64_t *info)
{
    for (int64_t n = n_done + 1; n <= n_max; n++) {
        int status = step(q, n, r, s, info, &q[n - 1]);
        if (status != OK)
            return status;
    }
    return OK;
}

/* A read position in F's prefix sums: Q(p) = value exactly when
   below < p <= below + counts[value], with below = S(value - 1) and
   S(a) = #{n : Q(n) <= a}.  The count at value is read fresh, because it is
   still growing while value is Q's latest term. */
struct cursor {
    int64_t value, below;
};

/* Move c to Q(p).  Q is non-decreasing with steps in {0, 1} (checked as it
   is counted), so both arguments n - Q(n-r) and n - Q(n-s) are
   non-decreasing in n and a cursor only moves forward; it may pass only
   counts below latest = Q(n-1), the ones that are final. */
static int seek(const uint8_t *counts, struct cursor *c, int64_t p,
                int64_t latest)
{
    while (p > c->below + counts[c->value]) {
        if (c->value >= latest)
            return UNSETTLED;
        c->below += counts[c->value++];
    }
    return OK;
}

/* counts[a] += #{n > s : Q(n) = a} for a in [0, a_max]: Q runs until it
   first reaches a_max + 1.  Q itself is not stored: its last s terms sit in
   the caller's ring, a power of two of them larger than s (Q(i) at
   ring[i & mask]), and every older term is read from the counts by two
   cursors.  The caller zeroes counts and sets counts[1] = s for the seed. */
int vseq_count(uint8_t *counts, int64_t a_max, int64_t r, int64_t s,
               uint32_t *ring, int64_t mask, int64_t *info)
{
    struct cursor c1 = {1, 0}, c2 = {1, 0};
    int64_t prev = 1;
    for (int64_t i = 1; i <= s; i++)
        ring[i & mask] = 1;
    for (int64_t n = s + 1;; n++) {
        int64_t i1 = n - ring[(n - r) & mask], i2 = n - ring[(n - s) & mask];
        if (i1 < 1 || i2 < 1) {
            info[0] = n;
            info[1] = i1 < i2 ? i1 : i2;
            return DEAD;
        }
        int64_t unread = seek(counts, &c1, i1, prev) != OK ? i1
                         : seek(counts, &c2, i2, prev) != OK ? i2 : 0;
        if (unread) {
            info[0] = n;
            info[1] = unread;
            return UNSETTLED;
        }
        int64_t val = c1.value + c2.value;
        if (val > UINT32_MAX) {
            info[0] = n;
            info[1] = val;
            return VALUE_OVERFLOW;
        }
        if (val != prev) {
            if (val != prev + 1) {
                info[0] = n;
                info[1] = prev;
                info[2] = val;
                return NOT_MONOTONE;
            }
            prev = val;
            if (val > a_max)
                return OK;
        }
        if (counts[val] == 255) {
            info[0] = val;
            return COUNT_OVERFLOW;
        }
        counts[val]++;
        ring[n & mask] = (uint32_t)val;
    }
}

int64_t vseq_distinct_bytes(const uint8_t *v, int64_t n)
{
    uint8_t seen[256] = {0};
    int64_t distinct = 0;
    for (int64_t i = 0; i < n; i++)
        seen[v[i]] = 1;
    for (int b = 0; b < 256; b++)
        distinct += seen[b];
    return distinct;
}

/* out[i] = the id of the code c_0 k^(parts-1) + ... + c_(parts-1), with
   c_j = ids[first + q i + j], for i < count: ids in order of first
   appearance, each the rank stored at rank[code] less one.  The caller
   zeroes rank, which spans the codes below space.  A code at or past space
   returns -1, so that a child at or past k reads and writes nothing outside
   rank; so does a rank past the width of OUT, before it would wrap.
   The joins of base 2 (q = parts = 2) get a loop of their own, with both
   as constants. */
#define JOIN(IN, OUT)                                                        \
static inline __attribute__((always_inline)) int64_t                         \
join_loop_##IN##_##OUT(const IN##_t *ids, int64_t q, int64_t parts,          \
                       int64_t count, int64_t k, OUT##_t *rank,              \
                       uint64_t space, OUT##_t *out)                         \
{                                                                            \
    int64_t distinct = 0;                                                    \
    for (int64_t i = 0; i < count; i++, ids += q) {                          \
        uint64_t code = ids[0];                                              \
        for (int64_t j = 1; j < parts; j++)                                  \
            code = code * (uint64_t)k + ids[j];                              \
        if (code >= space)                                                   \
            return -1;                                                       \
        OUT##_t r = rank[code];                                              \
        if (!r) {                                                            \
            if (distinct == (OUT##_t)-1)                                     \
                return -1;                                                   \
            rank[code] = r = (OUT##_t)++distinct;                            \
        }                                                                    \
        out[i] = (OUT##_t)(r - 1);                                           \
    }                                                                        \
    return distinct;                                                         \
}                                                                            \
                                                                             \
static int64_t join_##IN##_##OUT(const void *ids_, int64_t first, int64_t q, \
                                 int64_t parts, int64_t count, int64_t k,    \
                                 void *rank, uint64_t space, void *out)      \
{                                                                            \
    const IN##_t *ids = (const IN##_t *)ids_ + first;                        \
    if (q == 2 && parts == 2)                                                \
        return join_loop_##IN##_##OUT(ids, 2, 2, count, k, rank, space, out);\
    return join_loop_##IN##_##OUT(ids, q, parts, count, k, rank, space, out);\
}

#define JOINS_FROM(IN) JOIN(IN, uint8) JOIN(IN, uint16) JOIN(IN, uint32)
JOINS_FROM(uint8)
JOINS_FROM(uint16)
JOINS_FROM(uint32)

typedef int64_t join_fn(const void *, int64_t, int64_t, int64_t, int64_t,
                        int64_t, void *, uint64_t, void *);

/* [in][out] by width_index */
static join_fn *const joins[3][3] = {
    {join_uint8_uint8, join_uint8_uint16, join_uint8_uint32},
    {join_uint16_uint8, join_uint16_uint16, join_uint16_uint32},
    {join_uint32_uint8, join_uint32_uint16, join_uint32_uint32},
};

static int width_index(int64_t width)
{
    return width == 1 ? 0 : width == 2 ? 1 : width == 4 ? 2 : -1;
}

/* The join of ids in_width bytes wide into ids out_width bytes wide; the
   rank table has the width of the ids it makes. */
int64_t vseq_join(const void *ids, int64_t in_width, int64_t first, int64_t q,
                  int64_t parts, int64_t count, int64_t k, void *rank,
                  uint64_t space, void *out, int64_t out_width)
{
    int a = width_index(in_width), b = width_index(out_width);
    if (a < 0 || b < 0)
        return -1;
    return joins[a][b](ids, first, q, parts, count, k, rank, space, out);
}
