/* The Q_{r,s} recursion Q(n) = Q(n - Q(n-r)) + Q(n - Q(n-s)) under the
   all-ones seed Q(1..s) = 1, compiled for sequences.py, which loads it with
   ctypes and keeps the same loops in Python as the reference.  vseq_qrs
   stores Q; vseq_count keeps only the counts F(a) = #{n : Q(n) = a}, reading
   Q's earlier terms back from them, and resumes a finished count as it
   starts a fresh one.  Both functions return a status; info[]
   carries what the caller needs to raise:
     DEAD           info = {n, argument}  an argument left [1, n-1]
     NOT_MONOTONE   info = {n, Q(n-1), Q(n)}
     COUNT_OVERFLOW info = {value}         a count would pass 255
     VALUE_OVERFLOW info = {n, Q(n)}       Q(n) does not fit 32 bits
     UNSETTLED      info = {n, argument}  Q(argument) read from a count that
                                          was still growing
   In vseq_qrs, Q(i) lives at q[i - 1].

   Seven more passes, with numpy passes kept as the reference:
     vseq_marks           Q's steps from a finished count, for
                          sequences.first_difference: Q(p + 1) - Q(p) = 1
                          exactly when p = S(a) for some a
     vseq_byte_sum        the sum of n bytes, for sequences.extend_f: the
                          number of terms a finished count holds
     vseq_byte_max        the largest of n bytes, the bound k of the ids a
                          tuple join reads from bytes
     vseq_distinct_bytes  the number of distinct values among n bytes, for
                          level 0 of synthesis.kernel_probe
     vseq_join            for sequences.join_ids: one id per tuple of parts
                          ids q apart (a probe block's q sub-blocks, or a
                          4-window at q = 1, the tuples then overlapping);
                          ids 1, 2 or 4 bytes wide, one loop per pair of
                          widths; returns the number of distinct ids, -1
                          for a width or code out of range, or WIDER for
                          more ids than the output width holds
     vseq_check           for synthesis.cross_validate: the least n whose
                          state's output differs from F, or -1
     vseq_pairs           for rules._scan: the least a whose pair F(2a),
                          F(2a+1) differs from its window's expected pair,
                          or -1 */
#include <stdint.h>
#include <string.h>

enum { OK, DEAD, NOT_MONOTONE, COUNT_OVERFLOW, VALUE_OVERFLOW, UNSETTLED };
enum { WIDER = -2 };

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

/* Move c towards Q(p) 64 counts at a time, passing a block only when Q(p)
   lies past it and every count in it is final (below latest); seek then
   finishes the move.  A resumed count calls it once per cursor, so that it
   does not step through all of F one count at a time: a plain block sum
   runs several times faster than seek's loop, but slows every step of the
   count if seek does it. */
static void skip(const uint8_t *counts, struct cursor *c, int64_t p,
                 int64_t latest)
{
    while (c->value + 64 <= latest) {
        int64_t sum = 0;
        for (int j = 0; j < 64; j++)
            sum += counts[c->value + j];
        if (p <= c->below + sum)
            return;
        c->below += sum;
        c->value += 64;
    }
}

/* counts[a] += #{n > done : Q(n) = a} for a in [0, a_max]: Q runs until it
   first reaches a_max + 1.  Q itself is not stored: its last s terms sit in
   the caller's ring, a power of two of them larger than s (Q(i) at
   ring[i & mask]), and every older term is read from the counts by two
   cursors.  The counts hold Q(1..done) already, done >= s: for a fresh
   count the caller zeroes them and sets counts[1] = s for the seed, with
   done = s; to resume a finished count up to some value, done is the sum
   of its counts, and the ring's terms past the seed are read back from
   them like the older ones. */
int vseq_count(uint8_t *counts, int64_t a_max, int64_t r, int64_t s,
               int64_t done, uint32_t *ring, int64_t mask, int64_t *info)
{
    struct cursor c1 = {1, 0}, c2 = {1, 0}, back = {1, 0};
    int64_t prev = 1;
    /* Q(done - s + 1..done): 1 in the seed, read back from the counts
       past it */
    skip(counts, &back, done - s + 1, a_max);
    for (int64_t i = done - s + 1; i <= done; i++) {
        if (i > s) {
            if (seek(counts, &back, i, a_max) != OK) {
                info[0] = done + 1;
                info[1] = i;
                return UNSETTLED;
            }
            prev = back.value;
        }
        ring[i & mask] = (uint32_t)prev;
    }
    /* at n = done + 1 both arguments are at least done + 1 - Q(done), and
       they never decrease */
    skip(counts, &c1, done + 1 - prev, prev);
    c2 = c1;
    for (int64_t n = done + 1;; n++) {
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

/* out[S(a) - 1] = 1 for each a in [1, a_max] with 0 < S(a) <= n, where
   S(a) = counts[1] + ... + counts[a]; returns S at the first a whose S
   passes n, or S(a_max) if none does. */
int64_t vseq_marks(const uint8_t *counts, int64_t a_max, uint8_t *out,
                   int64_t n)
{
    int64_t s = 0;
    for (int64_t a = 1; a <= a_max; a++) {
        s += counts[a];
        if (s > n)
            break;
        if (s > 0)
            out[s - 1] = 1;
    }
    return s;
}

/* The byte sum and maximum go 64 bytes at a time, a block loop that gcc
   vectorizes at -O2 (two to four times the speed of a plain loop), then
   byte by byte past the last block. */
int64_t vseq_byte_sum(const uint8_t *v, int64_t n)
{
    int64_t sum = 0, i = 0;
    for (; i + 64 <= n; i += 64) {
        uint32_t block = 0;
        for (int j = 0; j < 64; j++)
            block += v[i + j];
        sum += block;
    }
    for (; i < n; i++)
        sum += v[i];
    return sum;
}

int64_t vseq_byte_max(const uint8_t *v, int64_t n)
{
    uint8_t lanes[64] = {0}, most = 0;
    int64_t i = 0;
    for (; i + 64 <= n; i += 64)
        for (int j = 0; j < 64; j++)
            lanes[j] = v[i + j] > lanes[j] ? v[i + j] : lanes[j];
    for (int j = 0; j < 64; j++)
        most = lanes[j] > most ? lanes[j] : most;
    for (; i < n; i++)
        most = v[i] > most ? v[i] : most;
    return most;
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
   rank; a rank past the width of OUT returns WIDER before it would wrap,
   for the caller to join again into wider ids.
   The joins of base 2 (q = parts = 2) and of 4-windows (q = 1, parts = 4)
   get loops of their own, with both as constants. */
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
                return WIDER;                                                \
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
    if (q == 1 && parts == 4)                                                \
        return join_loop_##IN##_##OUT(ids, 1, 4, count, k, rank, space, out);\
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

/* Whether the w bytes at out equal F(n) (w = 1) or the window
   F(n-2), ..., F(n+1) (w = 4, n >= 2). */
static inline __attribute__((always_inline)) int
same(const uint8_t *out, const uint8_t *f, int64_t n, int64_t w)
{
    if (w == 1)
        return out[0] == f[n];
    uint32_t a, b;
    memcpy(&a, out, 4);
    memcpy(&b, f + n - 2, 4);
    return a == b;
}

static inline __attribute__((always_inline)) int64_t
check_loop(const uint8_t *table, int64_t width, const uint8_t *head,
           const uint8_t *outputs, int64_t w, const uint8_t *f, int64_t n_max)
{
    /* the windows at 0 and 1 read F(-2) = F(-1) = 0: low + 2 stands for
       f there */
    const uint8_t low[5] = {0, 0, f[0], w == 4 ? f[1] : 0,
                            w == 4 && n_max >= 1 ? f[2] : 0};
    for (int64_t n = 0; n < width && n <= n_max; n++)
        if (!same(outputs + w * head[n], w == 4 && n < 2 ? low + 2 : f, n, w))
            return n;
    for (int64_t b = 1; b * width <= n_max; b++) {
        const uint8_t *row = table + width * head[b];
        int64_t n = b * width, end = n_max - n < width ? n_max - n + 1 : width;
        for (int64_t c = 0; c < end; c++)
            if (!same(outputs + w * row[c], f, n + c, w))
                return n + c;
    }
    return -1;
}

/* The least n in [0, n_max] at which the output of state(n) differs from
   F, or -1: state(n) = head[n] for n < width, and state(b width + c) =
   table[width head[b] + c] from n = width on, table the S x width stride
   table of Dfao.stride_table (width = q^k, δ composed over k digits), and
   head state(n) for n <= max(n_max / width, width - 1).  The output of
   state s is the w bytes at outputs[w s], w = 1 or else 4; f holds F(0) to
   F(n_max) for w = 1, or to F(n_max + 1) for w = 4. */
int64_t vseq_check(const uint8_t *table, int64_t width, const uint8_t *head,
                   const uint8_t *outputs, int64_t w, const uint8_t *f,
                   int64_t n_max)
{
    return w == 1 ? check_loop(table, width, head, outputs, 1, f, n_max)
                  : check_loop(table, width, head, outputs, 4, f, n_max);
}

/* The least i < count with known[ids[i]] and the two bytes at pairs[2 i]
   unlike the two at expect[2 ids[i]], or -1: the rule scan's images F(2a),
   F(2a+1) against its window's expected pair.  expect and known span all
   256 one-byte ids. */
int64_t vseq_pairs(const uint8_t *ids, const uint8_t *expect,
                   const uint8_t *known, const uint8_t *pairs, int64_t count)
{
    uint16_t want[256];
    memcpy(want, expect, sizeof want);
    for (int64_t i = 0; i < count; i++) {
        uint16_t got;
        memcpy(&got, pairs + 2 * i, 2);
        if (got != want[ids[i]] && known[ids[i]])
            return i;
    }
    return -1;
}
