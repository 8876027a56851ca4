/* The Q_{r,s} recursion Q(n) = Q(n - Q(n-r)) + Q(n - Q(n-s)) under the
   all-ones seed Q(1..s) = 1, compiled for sequences.py, which loads it with
   ctypes and keeps the same loops in Python as the reference.  vseq_qrs
   stores Q; vseq_count keeps only the counts F(a) = #{n : Q(n) = a}, reading
   Q's earlier terms back from them, and resumes a finished count as it
   starts a fresh one; vseq_ring_count resumes V's into a ring of counts
   and keeps only the windows of F a plan names.  The three return a status;
   info[] carries what the caller needs to raise:
     DEAD           info = {n, argument}  an argument left [1, n-1]
     NOT_MONOTONE   info = {n, Q(n-1), Q(n)}
     COUNT_OVERFLOW info = {value}         a count would pass 255
     VALUE_OVERFLOW info = {n, Q(n)}       Q(n) does not fit 32 bits
     UNSETTLED      info = {n, argument}  Q(argument) read from a count that
                                          was still growing
     RING_SHORT     info = {value, lag, size}  counting value would reuse the
                                          ring slot of a value a read position
                                          lag values back still needs
   In vseq_qrs, Q(i) lives at q[i - 1].

   Seven more passes, with numpy passes kept as the reference:
     vseq_marks           Q's steps from a finished count, for
                          sequences.first_difference: Q(p + 1) - Q(p) = 1
                          exactly when p = S(a) for some a
     vseq_byte_sum        the sum of n bytes, for sequences.extend_f and
                          count_windows: the number of terms a finished
                          count holds
     vseq_byte_max        the largest of n bytes, the bound k of the ids a
                          tuple join reads from bytes
     vseq_distinct_bytes  the number of distinct values among n bytes, for
                          level 0 of synthesis.kernel_probe
     vseq_join            for sequences.join_ids: one id per tuple of parts
                          ids q apart (a probe block's q sub-blocks, or a
                          4-window at q = 1, the tuples then overlapping),
                          after any ids the caller has ranked already;
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

enum { OK, DEAD, NOT_MONOTONE, COUNT_OVERFLOW, VALUE_OVERFLOW, UNSETTLED,
       RING_SHORT };
enum { WIDER = -2 };
/* a ring of counts is zeroed this many slots at a time */
enum { BLOCK = 64 };

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
   below < p <= top = below + counts[value], with below = S(value - 1) and
   S(a) = #{n : Q(n) <= a}.  top is as read when the cursor last looked:
   the count at value may still be growing while value is Q's latest term,
   so a position past top is looked up again before the cursor moves. */
struct cursor {
    int64_t value, below, top;
};

/* Move c to Q(p).  Q is non-decreasing with steps in {0, 1} (checked as it
   is counted), so both arguments n - Q(n-r) and n - Q(n-s) are
   non-decreasing in n and a cursor only moves forward; it may pass only
   counts below latest = Q(n-1), the ones that are final.  The count of a
   value a is at counts[a & cmask]: cmask = -1 for a flat table. */
static inline __attribute__((always_inline)) int
seek(const uint8_t *counts, int64_t cmask, struct cursor *c, int64_t p,
     int64_t latest)
{
    if (p > c->top) {
        c->top = c->below + counts[c->value & cmask];
        while (p > c->top) {
            if (c->value >= latest)
                return UNSETTLED;
            c->below = c->top;
            c->top += counts[++c->value & cmask];
        }
    }
    return OK;
}

/* Move c towards Q(p) 64 counts at a time, passing a block only when Q(p)
   lies past it and every count in it is final (below latest); seek then
   finishes the move.  A resumed count calls it once per cursor, so that it
   does not step through all of F one count at a time: a plain block sum
   runs several times faster than seek's loop, but slows every step of the
   count if seek does it.  counts is flat. */
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

/* The start of a count that resumes the flat counts, which hold
   Q(1..done), done >= s, for the values up to latest: Q(done - s + 1..done)
   into the ring of Q's terms, 1 in the seed and read back from the counts
   past it, *prev = Q(done), and c moved towards the read position of
   n = done + 1, which is at least done + 1 - Q(done). */
static inline __attribute__((always_inline)) int
resume(const uint8_t *counts, int64_t latest, int64_t s, int64_t done,
       uint32_t *ring, int64_t mask, struct cursor *c, int64_t *prev,
       int64_t *info)
{
    struct cursor back = {1, 0, 0};
    *prev = 1;
    skip(counts, &back, done - s + 1, latest);
    for (int64_t i = done - s + 1; i <= done; i++) {
        if (i > s) {
            if (seek(counts, -1, &back, i, latest) != OK) {
                info[0] = done + 1;
                info[1] = i;
                return UNSETTLED;
            }
            *prev = back.value;
        }
        ring[i & mask] = (uint32_t)*prev;
    }
    skip(counts, c, done + 1 - *prev, *prev);
    return OK;
}

/* The loop of both counts from n = done + 1, with c placed by resume and
   prev = Q(done), until Q first reaches a_max + 1.  Each caller passes
   flat as a constant, so that each gets a loop of its own.  Flat counts
   are a table (cmask and the planned windows unused); otherwise they are a
   ring of cmask + 1 counts, the count of a at counts[a & cmask].  As
   each block of BLOCK values starts, and once the count is done, a ring
   copies out each planned window F(n-2..n+1) whose last count is final,
   n + 2 <= value (F(-1) reads 0); then, before it zeroes the new block's
   slots, it refuses with RING_SHORT to reuse the slot of a value a cursor
   may still read. */
static inline __attribute__((always_inline)) int
count_loop(int flat, uint8_t *counts, int64_t cmask, int64_t a_max, int64_t r,
           int64_t s, int64_t done, struct cursor c1, int64_t prev,
           uint32_t *ring, int64_t mask, const int64_t *plan,
           int64_t planned, uint8_t *windows, int64_t *info)
{
    struct cursor c2 = c1;
    if (flat)
        cmask = -1;
    for (int64_t n = done + 1;; n++) {
        int64_t i1 = n - ring[(n - r) & mask], i2 = n - ring[(n - s) & mask];
        if (i1 < 1 || i2 < 1) {
            info[0] = n;
            info[1] = i1 < i2 ? i1 : i2;
            return DEAD;
        }
        int64_t unread = seek(counts, cmask, &c1, i1, prev) != OK ? i1
                         : seek(counts, cmask, &c2, i2, prev) != OK ? i2 : 0;
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
            if (!flat && (!(val & (BLOCK - 1)) || val > a_max)) {
                for (; planned && *plan + 2 <= val; plan++, planned--)
                    for (int64_t a = *plan - 2; a < *plan + 2; a++)
                        *windows++ = a < 0 ? 0 : counts[a & cmask];
                if (val > a_max)
                    return OK;
                int64_t back = c1.value < c2.value ? c1.value : c2.value;
                if (val + BLOCK - 1 - back > cmask) {
                    info[0] = val;
                    info[1] = val + BLOCK - 1 - back;
                    info[2] = cmask + 1;
                    return RING_SHORT;
                }
                memset(counts + (val & cmask), 0, BLOCK);
                /* the slots a few blocks on were last written a ring ago */
                __builtin_prefetch(counts + ((val + 4 * BLOCK) & cmask), 1);
            }
            if (val > a_max)
                return OK;
        }
        if (counts[val & cmask] == 255) {
            info[0] = val;
            return COUNT_OVERFLOW;
        }
        counts[val & cmask]++;
        ring[n & mask] = (uint32_t)val;
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
    struct cursor c = {1, 0, 0};
    int64_t prev;
    int status = resume(counts, a_max, s, done, ring, mask, &c, &prev, info);
    if (status != OK)
        return status;
    if (r == 1 && s == 4 && mask == 7) /* V's loop, with its constants */
        return count_loop(1, counts, -1, a_max, 1, 4, done, c, prev, ring, 7,
                          NULL, 0, NULL, info);
    return count_loop(1, counts, -1, a_max, r, s, done, c, prev, ring, mask,
                      NULL, 0, NULL, info);
}

/* vseq_count of V = Q_{1,4} resumed from the finished flat counts
   pre[0..p], p >= 1, done their sum, into the caller's ring of cmask + 1
   counts (a power of two, at least BLOCK), which takes the counts of the
   last values: the cursors start over pre, the ring is seeded with pre's
   last values, and the count goes on in the ring to a_max.  The windows
   F(n-2..n+1) at the plan[]'s sorted, distinct n in [p, a_max - 1] go to
   windows[], four bytes each.
   A read position lags a count by about half its value, so the ring needs
   just over a_max / 2 counts; a smaller one returns RING_SHORT. */
int vseq_ring_count(const uint8_t *pre, int64_t p, uint8_t *counts,
                    int64_t cmask, int64_t a_max, int64_t done,
                    const int64_t *plan, int64_t planned, uint8_t *windows,
                    int64_t *info)
{
    uint32_t ring[8]; /* V's last four terms, V(i) at ring[i & 7] */
    struct cursor c = {1, 0, 0};
    int64_t prev;
    int status = resume(pre, p, 4, done, ring, 7, &c, &prev, info);
    if (status != OK)
        return status;
    int64_t last = (p | (BLOCK - 1)); /* the last value of p's block */
    if (last - c.value > cmask) {
        info[0] = p;
        info[1] = last - c.value;
        info[2] = cmask + 1;
        return RING_SHORT;
    }
    /* pre[first..p] into the ring, in two pieces where it wraps, and the
       slots of the values past p to the end of their block zeroed */
    int64_t first = p - cmask > 0 ? p - cmask : 0, at = first & cmask;
    int64_t len = p - first + 1, head = len < cmask + 1 - at ? len : cmask + 1 - at;
    memcpy(counts + at, pre + first, head);
    memcpy(counts, pre + first + head, len - head);
    for (int64_t a = p + 1; a & (BLOCK - 1); a++)
        counts[a & cmask] = 0;
    return count_loop(0, counts, cmask, a_max, 1, 4, done, c, prev, ring, 7,
                      plan, planned, windows, info);
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
   appearance, each the rank stored at rank[code] less one, after the
   distinct ids the caller has already ranked.  The caller zeroes rank
   (but for those ranks), which spans the codes below space.  A code at or past space
   returns -1, so that a child at or past k reads and writes nothing outside
   rank; a rank past the width of OUT returns WIDER before it would wrap,
   for the caller to join again into wider ids.
   The joins of base 2 (q = parts = 2) and of 4-windows (q = 1, parts = 4)
   get loops of their own, with both as constants. */
#define JOIN(IN, OUT)                                                        \
static inline __attribute__((always_inline)) int64_t                         \
join_loop_##IN##_##OUT(const IN##_t *ids, int64_t q, int64_t parts,          \
                       int64_t count, int64_t k, OUT##_t *rank,              \
                       uint64_t space, OUT##_t *out, int64_t distinct)       \
{                                                                            \
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
                                 void *rank, uint64_t space, void *out,      \
                                 int64_t ranked)                             \
{                                                                            \
    const IN##_t *ids = (const IN##_t *)ids_ + first;                        \
    if (q == 2 && parts == 2)                                                \
        return join_loop_##IN##_##OUT(ids, 2, 2, count, k, rank, space, out, \
                                      ranked);                               \
    if (q == 1 && parts == 4)                                                \
        return join_loop_##IN##_##OUT(ids, 1, 4, count, k, rank, space, out, \
                                      ranked);                               \
    return join_loop_##IN##_##OUT(ids, q, parts, count, k, rank, space, out, \
                                  ranked);                                   \
}

#define JOINS_FROM(IN) JOIN(IN, uint8) JOIN(IN, uint16) JOIN(IN, uint32)
JOINS_FROM(uint8)
JOINS_FROM(uint16)
JOINS_FROM(uint32)

typedef int64_t join_fn(const void *, int64_t, int64_t, int64_t, int64_t,
                        int64_t, void *, uint64_t, void *, int64_t);

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

/* The join of ids in_width bytes wide into ids out_width bytes wide, after
   ranked ids already in rank; the rank table has the width of the ids it
   makes. */
int64_t vseq_join(const void *ids, int64_t in_width, int64_t first, int64_t q,
                  int64_t parts, int64_t count, int64_t k, void *rank,
                  uint64_t space, void *out, int64_t out_width, int64_t ranked)
{
    int a = width_index(in_width), b = width_index(out_width);
    if (a < 0 || b < 0)
        return -1;
    return joins[a][b](ids, first, q, parts, count, k, rank, space, out, ranked);
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
