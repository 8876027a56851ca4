/* V's count, compiled for sequences.py, which loads it with ctypes and
   keeps a plain-Python loop for each pass as the reference.  V = Q_{1,4}:
   V(1..4) = 1 and V(n) = V(n - V(n-1)) + V(n - V(n-4)) for n > 4.
   vseq_count keeps only the counts F(a) = #{n : V(n) = a}, seeding them
   itself and reading V's earlier terms back from them; vseq_ring_count
   resumes a finished count of V's from the counts alone, its read
   positions reading them in place until they pass them, keeps the counts
   past them in a ring, two bits a count, and keeps only the windows of F a
   plan names; vseq_unary rewrites V's counts in place as V's steps
   V(k+1) - V(k), and vseq_expand writes them out as V's terms.  V's flat
   count takes six terms a table lookup between its first terms and its
   last (count_kernel): a 128 KB table, which vseq_init builds once as the
   library loads, maps V's last four steps and the next six at each read
   position to V's next six steps and how far each read position moves.
   The kernel stops short of the end, and hands any block it cannot take
   (a count not yet final or outside 1..4, a step of 2, a count past 4)
   back to the scalar loop with its exact state, so the scalar loop returns
   every status.  The four return a status; info[] carries what the caller
   needs to raise:
     DEAD           info = {n, argument}  an argument left [1, n-1], which
                                          only corrupted counts can make
     NOT_MONOTONE   info = {n, V(n-1), V(n)}
     COUNT_OVERFLOW info = {value, bound, count}  a count would pass bound,
                                          255 in a flat table and 4 in a
                                          ring (count = bound + 1), or a
                                          finished count a ring count reads
                                          lies outside 1..4
     VALUE_OVERFLOW info = {n, V(n)}       V(n) does not fit 32 bits
     UNSETTLED      info = {n, argument}  V(argument) read from a count that
                                          was still growing
     RING_SHORT     info = {value, lag, size}  counting value would reuse the
                                          ring slot of a value a read position
                                          or planned window lag values back
                                          still needs
     OVERWRITE      info = {value, end, at}  vseq_unary's store through
                                          out[end - 1] would reach the count
                                          of value, at out[at], not yet read
     TOO_FEW        info = {a, S(a), n}   the counts F(1..a) of vseq_unary
                                          or vseq_expand hold S(a) <= n
                                          terms, too few for V's steps to n

   Three more passes, whose plain-Python loops run where no library loads;
   ids are 1, 2 or 4 bytes wide:
     vseq_byte_max        the largest of n bytes, the bound k of the ids a
                          tuple join reads from bytes
     vseq_join            for sequences.join_ids: one id per tuple of parts
                          ids q apart (a probe block's q sub-blocks or its
                          bytes, or a 4-window at q = 1, the tuples then
                          overlapping), numbered in order of first appearance
                          through a rank table or a hash table; returns the
                          number of distinct ids, -1 for a width or code out
                          of range, WIDER for more ids than the output width
                          holds, or FULL for a hash table half full
     vseq_pairs           for rules._scan: the least a whose pair F(2a),
                          F(2a+1) differs from its window's expected pair,
                          or -1 */
#include <stdint.h>
#include <string.h>

enum { OK, DEAD, NOT_MONOTONE, COUNT_OVERFLOW, VALUE_OVERFLOW, UNSETTLED,
       RING_SHORT, OVERWRITE, TOO_FEW,
       HANDOVER /* between two loops of vseq_ring_count */ };
enum { WIDER = -2, FULL = -3 };
/* a ring of counts is zeroed this many slots at a time; it holds a count
   of at most RING_MOST */
enum { BLOCK = 64, RING_MOST = 4 };

/* A read position in F's prefix sums: V(p) = value exactly when
   below < p <= top = below + counts[value], with below = S(value - 1) and
   S(a) = #{n : V(n) <= a}.  top is as read when the cursor last looked:
   the count at value may still be growing while value is V's latest term,
   so over a flat table a position past top is looked up again before the
   cursor moves.  Over a ring, whose counts are dearer to read, the count
   moves the top of a cursor at V's latest term with each term it counts,
   so that a top is never looked up again. */
struct cursor {
    int64_t value, below, top;
};

/* The count of a value a: counts[a] in a flat table; in a ring of
   cmask + 1 counts, F(a) - 1 in the two bits at 2 (a & 3) of byte
   (a & cmask) / 4, four counts a byte.  A ring holds only counts of 1 to
   4, as F(a) is past F(0) = 0, so a zeroed slot reads 1. */
static inline __attribute__((always_inline)) int64_t
count_of(const uint8_t *counts, int flat, int64_t cmask, int64_t a)
{
    if (flat)
        return counts[a];
    return (counts[(a & cmask) >> 2] >> 2 * (a & 3) & 3) + 1;
}

/* Move c to V(p).  V is non-decreasing with steps in {0, 1} (checked as it
   is counted), so both arguments n - V(n-1) and n - V(n-4) are
   non-decreasing in n and a cursor only moves forward; it may pass only
   counts below latest = V(n-1), the ones that are final. */
static inline __attribute__((always_inline)) int
seek(const uint8_t *counts, int flat, int64_t cmask, struct cursor *c,
     int64_t p, int64_t latest)
{
    if (p > c->top) {
        if (flat)
            c->top = c->below + counts[c->value];
        while (p > c->top) {
            if (c->value >= latest)
                return UNSETTLED;
            c->below = c->top;
            c->top += count_of(counts, flat, cmask, ++c->value);
        }
    }
    return OK;
}

/* Move c towards V(p) 64 counts at a time, passing a block only when V(p)
   lies past it and every count in it is final (below latest); seek then
   finishes the move.  A resumed count calls it for its cursors' start, so
   that it does not step through all of F one count at a time: a plain block sum
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

/* The sum of n bytes, 64 at a time, a block loop that gcc vectorizes at
   -O2 (two to four times the speed of a plain loop), then byte by byte
   past the last block. */
static int64_t byte_sum(const uint8_t *v, int64_t n)
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

/* The start of a count of V that resumes the flat counts pre[0..p], p >= 1:
   their sum done = S(p) = #{n : V(n) <= p} into *done, V(done - 3..done)
   into the ring of V's terms, read off the top counts p, p - 1, ... (V is
   slow, so V(done) = p, and the read stops at V = 1, whatever the counts
   hold), *prev = V(done), and c moved towards the read position of
   n = done + 1, which is at least done + 1 - V(done). */
static void resume(const uint8_t *pre, int64_t p, uint32_t *ring,
                   struct cursor *c, int64_t *done, int64_t *prev)
{
    *done = byte_sum(pre + 1, p);
    int64_t a = p, below = *done - pre[p];
    for (int64_t i = *done; i > *done - 4; i--) {
        while (i <= below && a > 1)
            below -= pre[--a];
        ring[i & 7] = (uint32_t)a;
    }
    *prev = ring[*done & 7];
    skip(pre, c, *done + 1 - *prev, *prev);
}

static int overflow(int64_t *info, int64_t value, int64_t bound, int64_t count)
{
    info[0] = value;
    info[1] = bound;
    info[2] = count;
    return COUNT_OVERFLOW;
}

/* The three loops of a count: a fresh count into a flat table, and a count
   resumed into a ring of counts whose cursors read a flat prefix or the
   ring itself */
enum { FLAT, PREFIX, RING };

/* Where a count stands between two loops: the next term n, prev = V(n-1),
   the cursors, at or before the read positions of n, and the planned
   windows not yet copied out */
struct count {
    int64_t n, prev;
    struct cursor c1, c2;
    const int64_t *plan;
    int64_t planned;
    uint8_t *windows;
};

/* Copy out each planned window F(n-2..n+1) whose last count is final,
   n + 2 <= value, from a ring of cmask + 1 counts: F(-1) and F(0) read 0,
   and the values below p from pre where one is given. */
static inline __attribute__((always_inline)) void
copy_out(struct count *at, const uint8_t *pre, int64_t p,
         const uint8_t *counts, int64_t cmask, int64_t value)
{
    for (; at->planned && at->plan[0] + 2 <= value; at->plan++, at->planned--)
        for (int64_t a = at->plan[0] - 2; a < at->plan[0] + 2; a++)
            *at->windows++ = a < 1 ? 0 : pre && a < p ? pre[a]
                             : count_of(counts, 0, cmask, a);
}

/* The loop of both counts of V from at->n until V first reaches
   a_max + 1, V's last four terms in ring[] (V(i) at ring[i & 7]).  Each
   caller passes mode as a constant, so that each mode gets a loop of its
   own.  Only a PREFIX loop reads pre and p.  FLAT counts are a table
   (cmask and the planned windows unused); otherwise they are a ring of
   cmask + 1 counts of two bits
   (count_of).  There a value's first term leaves its zeroed slot, which
   reads 1, and each later term adds 1 to it and, in a RING loop, to the
   top of a cursor at the value; the terms of the latest value, counted in
   a register, find a fifth.  A PREFIX loop's cursors read the flat counts
   pre[0..p - 1] in place: when one would pass them, it hands over,
   returning HANDOVER with *at where the count stands.  As each block of
   BLOCK values starts, and once the count is done, a ring copies out the
   planned windows whose last count is final (copy_out, which a PREFIX
   loop lets read the values below p from pre); then, before it zeroes the
   new block's slots, it refuses with RING_SHORT to reuse the slot of a
   value a cursor may still read, or in a PREFIX loop a window still to be
   copied out.  The planned windows stay in *at, touched only as a block
   starts, so that they take no register from the loop. */
static inline __attribute__((always_inline)) int
count_loop(int mode, const uint8_t *pre, int64_t p, uint8_t *counts,
           int64_t cmask, int64_t a_max, struct count *at, uint32_t *ring,
           int64_t *info)
{
    int flat = mode == FLAT;
    struct cursor c1 = at->c1, c2 = at->c2;
    int64_t prev = at->prev;
    /* what the cursors read, and whether flat */
    const uint8_t *reads = mode == PREFIX ? pre : counts;
    int flat_reads = mode != RING;
    /* in a ring, the terms counted so far of the latest value */
    int64_t run = flat ? 0 : count_of(counts, 0, cmask, prev);
    if (flat)
        cmask = -1;
    for (int64_t n = at->n;; n++) {
        int64_t i1 = n - ring[(n - 1) & 7], i2 = n - ring[(n - 4) & 7];
        if (i1 < 1 || i2 < 1) {
            info[0] = n;
            info[1] = i1 < i2 ? i1 : i2;
            return DEAD;
        }
        /* the last value a cursor may move to */
        int64_t latest = mode == PREFIX ? p - 1 : prev;
        int64_t unread =
            seek(reads, flat_reads, cmask, &c1, i1, latest) != OK ? i1
            : seek(reads, flat_reads, cmask, &c2, i2, latest) != OK ? i2 : 0;
        if (unread) {
            if (mode == PREFIX) {
                at->n = n;
                at->prev = prev;
                at->c1 = c1;
                at->c2 = c2;
                return HANDOVER;
            }
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
        int moved = val != prev;
        if (moved) {
            if (val != prev + 1) {
                info[0] = n;
                info[1] = prev;
                info[2] = val;
                return NOT_MONOTONE;
            }
            prev = val;
            run = 1;
            if (!flat && (!(val & (BLOCK - 1)) || val > a_max)) {
                copy_out(at, mode == PREFIX ? pre : NULL, p, counts, cmask,
                         val);
                if (val > a_max)
                    return OK;
                int64_t back = mode == RING
                    ? (c1.value < c2.value ? c1.value : c2.value)
                    : !at->planned ? val
                    : at->plan[0] - 2 > p ? at->plan[0] - 2 : p;
                if (val + BLOCK - 1 - back > cmask) {
                    info[0] = val;
                    info[1] = val + BLOCK - 1 - back;
                    info[2] = cmask + 1;
                    return RING_SHORT;
                }
                memset(counts + ((val & cmask) >> 2), 0, BLOCK / 4);
                /* the slots a few blocks on were last written a ring ago */
                __builtin_prefetch(
                    counts + (((val + 4 * BLOCK) & cmask) >> 2), 1);
            }
            if (val > a_max) {
                if (flat) { /* where the count stands, for V's kernel */
                    at->n = n;
                    at->prev = val - 1;
                    at->c1 = c1;
                    at->c2 = c2;
                }
                return OK;
            }
        }
        if (flat) {
            if (counts[val] == 255)
                return overflow(info, val, 255, 256);
            counts[val]++;
        } else if (!moved) {
            if (++run > RING_MOST)
                return overflow(info, val, RING_MOST, RING_MOST + 1);
            counts[(val & cmask) >> 2] += (uint8_t)(1 << 2 * (val & 3));
            if (mode == RING) {
                c1.top += c1.value == val;
                c2.top += c2.value == val;
            }
        }
        ring[n & 7] = (uint32_t)val;
    }
}

/* V's kernel: KSTEPS terms of V a table lookup, between the scalar loop's
   first terms and its last.  V's step e(m) = V(m) - V(m-1) is a function of
   three things: the last four steps, and the next step at each read
   position, as a read position n - V(n-1) moves on at term m iff
   e(m-1) = 0, and n - V(n-4) iff e(m-4) = 0, each gaining the step it
   moves onto.  So kstep[h | b1 << 4 | b2 << 4 + KSTEPS], h the steps
   e(n-4..n-1) from bit 0 and b1, b2 the next KSTEPS steps at the two read
   positions, holds the steps E of terms n..n+KSTEPS-1 (bit j for n + j),
   with the number of steps each read position moved (3 bits each above
   E); or 0 where a step would be 2 or E is 0 (KSTEPS equal terms), which
   hands the block back to the scalar loop.  128 KB. */
enum { KSTEPS = 6, KMASK = (1 << KSTEPS) - 1 };
static uint16_t kstep[16 << 2 * KSTEPS];
/* E's terms as counts, for vseq_count: its first lead terms take the
   latest value, and its ones 1s start as many values after it, whose
   counts are the bytes of gaps from the low byte, the last one, tail,
   still growing; lead is 8, a count past RING_MOST, where E is 0 or one
   of those counts passes RING_MOST */
static struct {
    uint64_t gaps;
    uint8_t lead, ones, tail;
} runs[1 << KSTEPS];
/* four counts c of 1..4, c - 1 in two bits each from bit 0: their steps,
   1 0^(c-1) each from bit 0, and their sum << 16 */
static uint32_t pattern[256];
/* a byte's bits one a byte, bit j as byte j's 0 or 1, for vseq_unary */
static uint64_t spread[256];

/* The kernel's tables, built once.  Until then they are zeros: kstep hands
   every block back and pattern reads every count as out of range, so the
   kernel hands back at once. */
void vseq_init(void)
{
    static int built;
    if (built)
        return;
    for (int i = 0; i < 16 << 2 * KSTEPS; i++) {
        int e[4 + KSTEPS], b1 = i >> 4 & KMASK, b2 = i >> (4 + KSTEPS);
        int m1 = 0, m2 = 0, E = 0;
        for (int j = 0; j < 4; j++)
            e[j] = i >> j & 1;
        for (int j = 0; j < KSTEPS && E >= 0; j++) {
            e[j + 4] = (e[j + 3] ? 0 : b1 >> m1++ & 1)
                       + (e[j] ? 0 : b2 >> m2++ & 1);
            E = e[j + 4] > 1 ? -1 : E | e[j + 4] << j;
        }
        kstep[i] = E > 0 ? (uint16_t)(E | m1 << KSTEPS | m2 << (KSTEPS + 3))
                         : 0;
    }
    for (int E = 0; E <= KMASK; E++) {
        int at = -1, ones = 0, lead = 8;
        uint64_t gaps = 0;
        for (int j = 0; j <= KSTEPS; j++)
            if (j == KSTEPS || E >> j & 1) {
                if (at < 0)
                    lead = j;
                else if (j - at > RING_MOST)
                    lead = 8;
                else
                    gaps |= (uint64_t)(j - at) << 8 * (ones - 1);
                at = j;
                ones += j < KSTEPS;
            }
        runs[E].gaps = gaps;
        runs[E].lead = (uint8_t)(E ? lead : 8);
        runs[E].ones = (uint8_t)ones;
        runs[E].tail = (uint8_t)(gaps >> 8 * (ones - 1 + !ones) & 0xff);
    }
    for (int i = 0; i < 256; i++) {
        uint32_t bits = 0, len = 0;
        for (int k = 0; k < 4; k++) {
            bits |= 1u << len;
            len += (i >> 2 * k & 3) + 1;
        }
        pattern[i] = bits | len << 16;
        /* byte j keeps bit j of i, and adding 0x7f carries it to the top */
        uint64_t w = i * 0x0101010101010101u & 0x8040201008040201u;
        spread[i] = (w + 0x7f7f7f7f7f7f7f7fu) >> 7 & 0x0101010101010101u;
    }
    built = 1;
}

/* A read position's next steps in count_kernel: bit i of buf is
   e(p + 1 + i) for i < nb, p the position, and 0 past nb; the steps after
   them are those of the counts from value next on.  Each block refills
   buf while it holds few enough steps to take more. */
struct bits {
    uint64_t buf;
    int64_t nb, next;
};

/* The steps of the four counts counts[a..a+3]: pattern[], or 0 where one
   lies outside 1..4. */
static inline uint32_t four_counts(const uint8_t *counts, int64_t a)
{
    uint32_t w;
    memcpy(&w, counts + a, 4);
    w -= 0x01010101; /* a count of 0 borrows, and shows in the mask */
    /* the four two-bit counts gathered into bits 24..31 */
    return w & 0xfcfcfcfc ? 0 : pattern[(w * 0x01041040u) >> 24];
}

/* The read position p's next steps from the flat counts: those left in the
   run of V(p), which c, at p or at p + 1, holds or follows, then the counts'
   steps from the next value on, read while final (below latest) and 1..4;
   0 where they run out before buf holds 49. */
static int count_bits(const uint8_t *counts, int64_t latest,
                      const struct cursor *c, int64_t p, struct bits *b)
{
    int64_t value = c->value, top = c->below + counts[value];
    if (p <= c->below) {
        value--;
        top = c->below;
    }
    *b = (struct bits){0, top - p, value + 1};
    while (b->nb <= 48) {
        uint32_t f = b->next + 4 <= latest ? four_counts(counts, b->next) : 0;
        if (!f)
            return 0;
        b->buf |= (uint64_t)(f & 0xffff) << b->nb;
        b->nb += f >> 16;
        b->next += 4;
    }
    return 1;
}

/* The cursor of read position p, from its next steps buf, the counts of
   the values from next on after them: each 1 in buf starts a value */
static struct cursor count_cursor(const uint8_t *counts, int64_t p,
                                  uint64_t buf, int64_t next)
{
    int64_t value = next - 1 - __builtin_popcountll(buf);
    int64_t top = p + __builtin_ctzll(buf);
    return (struct cursor){value, top - counts[value], top};
}

/* V's flat count from where *at stands, its last terms in ring[] (mask 7),
   KSTEPS terms a block while the blocks write below a_max and the counts
   the read positions read next are final and 1..4, and while each block's
   steps are 0 or 1 and make counts of 1..4; then *at and ring[] where the
   count stands, for the scalar loop to go on from.  The counts past prev
   are zero: a block stores the counts of the values it finishes and of
   the value it ends on eight bytes at once. */
static __attribute__((noinline)) void
count_kernel(uint8_t *counts, int64_t a_max, struct count *at, uint32_t *ring)
{
    int64_t n = at->n, prev = at->prev, run = counts[prev];
    /* the read positions of term n - 1 */
    int64_t p1 = n - 1 - ring[(n - 2) & 7], p2 = n - 1 - ring[(n - 5) & 7];
    struct bits b1, b2;
    if (!count_bits(counts, prev, &at->c1, p1, &b1)
        || !count_bits(counts, prev, &at->c2, p2, &b2))
        return;
    unsigned h = 0;
    for (int j = 0; j < 4; j++)
        h |= (ring[(n - 4 + j) & 7] - ring[(n - 5 + j) & 7]) << j;
    uint64_t buf1 = b1.buf, buf2 = b2.buf;
    int64_t nb1 = b1.nb, nb2 = b2.nb, next1 = b1.next, next2 = b2.next;
    unsigned i = h | (unsigned)(buf1 & KMASK) << 4
                 | (unsigned)(buf2 & KMASK) << (4 + KSTEPS);
    while (prev + 8 <= a_max && next1 + 4 <= prev && next2 + 4 <= prev) {
        uint32_t f1 = four_counts(counts, next1);
        uint32_t f2 = four_counts(counts, next2);
        unsigned t = kstep[i], E = t & KMASK;
        if (!f1 || !f2 || run + runs[E].lead > RING_MOST)
            break;
        counts[prev] = (uint8_t)(run + runs[E].lead);
        memcpy(counts + prev + 1, &runs[E].gaps, 8);
        prev += runs[E].ones;
        run = runs[E].tail;
        n += KSTEPS;
        /* the next index from the steps left, the refills above them */
        unsigned d1 = t >> KSTEPS & 7, d2 = t >> (KSTEPS + 3);
        uint64_t left1 = buf1 >> d1, left2 = buf2 >> d2;
        i = E >> (KSTEPS - 4) | (unsigned)(left1 & KMASK) << 4
            | (unsigned)(left2 & KMASK) << (4 + KSTEPS);
        nb1 -= d1;
        nb2 -= d2;
        int take1 = nb1 <= 48, take2 = nb2 <= 48;
        buf1 = left1 | (take1 ? (uint64_t)(f1 & 0xffff) << nb1 : 0);
        buf2 = left2 | (take2 ? (uint64_t)(f2 & 0xffff) << nb2 : 0);
        nb1 += take1 ? f1 >> 16 : 0;
        nb2 += take2 ? f2 >> 16 : 0;
        next1 += take1 ? 4 : 0;
        next2 += take2 ? 4 : 0;
    }
    /* V(n-1..n-5) from prev down through the steps of h */
    int64_t v = prev;
    for (int j = 1; j <= 4; j++) {
        ring[(n - j) & 7] = (uint32_t)v;
        v -= i >> (4 - j) & 1;
    }
    at->n = n;
    at->prev = prev;
    at->c1 = count_cursor(counts, n - 1 - ring[(n - 2) & 7], buf1, next1);
    at->c2 = count_cursor(counts, n - 1 - v, buf2, next2);
}

/* V's flat count, one loop of its own */
static __attribute__((noinline)) int
v_count(uint8_t *counts, int64_t a_max, struct count *at, uint32_t *ring,
        int64_t *info)
{
    return count_loop(FLAT, NULL, 0, counts, -1, a_max, at, ring, info);
}

/* the value V's scalar count reaches before its kernel takes over: the
   read positions then read values near 64, far enough below it for the
   final counts of the 49 steps or more that each holds ahead */
enum { COUNT_KERNEL_FROM = 128 };

/* counts[a] = #{n : V(n) = a} for a in [0, a_max], a_max >= 1, into counts
   the caller zeroes: the seed V(1..4) = 1 makes counts[1] = 4, and V runs
   from n = 5 until it first reaches a_max + 1.  V itself is not stored:
   its last four terms sit in a ring (V(i) at ring[i & 7]), and every older
   term is read from the counts by two cursors.  The count runs its first
   terms in the scalar loop, its middle in count_kernel and its last eight
   values or more in the scalar loop again, which returns every status. */
int vseq_count(uint8_t *counts, int64_t a_max, int64_t *info)
{
    uint32_t ring[8] = {1, 1, 1, 1, 1, 1, 1, 1};
    struct cursor c = {1, 0, 0};
    struct count at = {5, 1, c, c, NULL, 0, NULL};
    counts[1] = 4;
    if (a_max > COUNT_KERNEL_FROM) {
        int status = v_count(counts, COUNT_KERNEL_FROM, &at, ring, info);
        if (status != OK)
            return status;
        count_kernel(counts, a_max, &at, ring);
    }
    return v_count(counts, a_max, &at, ring, info);
}

/* vseq_ring_count's two loops, each a function of its own, so that the
   code around one changes none of the other's */
static __attribute__((noinline)) int
prefix_loop(const uint8_t *pre, int64_t p, uint8_t *counts, int64_t cmask,
            int64_t a_max, struct count *at, uint32_t *ring, int64_t *info)
{
    return count_loop(PREFIX, pre, p, counts, cmask, a_max, at, ring, info);
}

static __attribute__((noinline)) int
ring_loop(uint8_t *counts, int64_t cmask, int64_t a_max, struct count *at,
          uint32_t *ring, int64_t *info)
{
    return count_loop(RING, NULL, 0, counts, cmask, a_max, at, ring, info);
}

/* The least i < n whose count v[i] lies outside 1..RING_MOST, or -1: 64
   counts at a time, a block loop gcc vectorizes, then one at a time from
   the block that holds it. */
static int64_t outside(const uint8_t *v, int64_t n)
{
    int64_t i = 0;
    for (; i + 64 <= n; i += 64) {
        uint8_t most = 0;
        for (int j = 0; j < 64; j++) {
            uint8_t less = (uint8_t)(v[i + j] - 1); /* 0 wraps to 255 */
            most = less > most ? less : most;
        }
        if (most >= RING_MOST)
            break;
    }
    for (; i < n; i++)
        if ((uint8_t)(v[i] - 1) >= RING_MOST)
            return i;
    return -1;
}

/* vseq_count resumed from the finished flat counts pre[0..p], p >= 1,
   into the caller's ring of cmask + 1 counts of two bits, (cmask + 1) / 4
   bytes (cmask + 1 a power of two, at least BLOCK), which takes the counts
   from p on: pre's counts from the least value a cursor or planned window
   reads, min(c.value, p - 2), must be 1 to 4, or COUNT_OVERFLOW, and the
   count goes on in the ring to a_max = plan[planned - 1] + 1, a fifth
   term of a value COUNT_OVERFLOW too.  The windows F(n-2..n+1) at the
   plan[]'s planned >= 1 sorted, distinct n, from p on, go to windows[],
   four bytes each.
   While both cursors stay below p they read pre in place (a PREFIX loop),
   and the ring need only hold the windows still to be copied out, a few
   blocks.  A read position lags a count by about half its value, so the
   cursors reach p when the count reaches about 2p.  There the count hands
   over to a RING loop: pre's counts from the lower cursor to p - 1 go into
   the ring, which from then on must hold just over half the count's
   values, a_max / 2 counts, a_max / 8 bytes.  A ring smaller than it needs
   returns RING_SHORT, at the hand-over when a count past p has been
   overwritten or pre's counts would overwrite one. */
int vseq_ring_count(const uint8_t *pre, int64_t p, uint8_t *counts,
                    int64_t cmask, const int64_t *plan, int64_t planned,
                    uint8_t *windows, int64_t *info)
{
    uint32_t ring[8]; /* V's last four terms, V(i) at ring[i & 7] */
    struct cursor c = {1, 0, 0};
    int64_t done, prev, a_max = plan[planned - 1] + 1;
    resume(pre, p, ring, &c, &done, &prev);
    c.top = c.below + pre[c.value]; /* skip leaves top behind */
    /* the least value a cursor or planned window reads; F(0) reads 0 */
    int64_t first = c.value < p - 2 ? c.value : p - 2 > 1 ? p - 2 : 1;
    int64_t bad = outside(pre + first, p - first + 1);
    if (bad >= 0)
        return overflow(info, first + bad, RING_MOST, pre[first + bad]);
    /* p's block zeroed, but for p's count, which the count may still add to
       and the cursors read from the ring */
    memset(counts + (((p & -BLOCK) & cmask) >> 2), 0, BLOCK / 4);
    counts[(p & cmask) >> 2] |= (uint8_t)((pre[p] - 1) << 2 * (p & 3));
    struct count at = {done + 1, prev, c, c, plan, planned, windows};
    int status = prefix_loop(pre, p, counts, cmask, a_max, &at, ring, info);
    if (status != HANDOVER)
        return status;
    /* from here the ring holds every count read: the values from the lower
       cursor, or a window still to be copied out, to the end of the latest
       value's block, the last slot zeroed */
    int64_t back = at.c1.value < at.c2.value ? at.c1.value : at.c2.value;
    if (at.planned && at.plan[0] - 2 < back)
        back = at.plan[0] - 2 > 1 ? at.plan[0] - 2 : 1;
    int64_t lag = (at.prev | (BLOCK - 1)) - back;
    if (lag > cmask) {
        info[0] = at.prev;
        info[1] = lag;
        info[2] = cmask + 1;
        return RING_SHORT;
    }
    for (int64_t a = back; a < p; a++) {
        uint8_t *slot = counts + ((a & cmask) >> 2);
        int shift = 2 * (a & 3);
        *slot = (uint8_t)((*slot & ~(3 << shift)) | (pre[a] - 1) << shift);
    }
    return ring_loop(counts, cmask, a_max, &at, ring, info);
}

/* out[k - 1] = V(k + 1) - V(k) for k in [1, n], written front to back over
   F(0..a_max), which vseq_count left in the last a_max + 1 of out's size
   bytes.  V is slow, so V(p) = a exactly when S(a - 1) < p <= S(a): its
   steps are its counts in unary, 0^(F(a) - 1) 1 for a = 1, 2, ...  Four
   counts a store: pattern[]'s steps 1 0^(c - 1) each read, from bit 1 on
   and a 1 at the end, as 0^(c - 1) 1 each, and two eight-byte stores write
   their 16 bits as bytes (spread[]), the steps past them 0 for the next
   store to overwrite.
   Before it stores, the pass refuses a count outside 1..4 (COUNT_OVERFLOW;
   before vseq_init builds the tables, every block) and a store that would
   reach a count not yet read (OVERWRITE), which also keeps every store
   inside out.  It stops once the steps pass n, S(a) > n, or runs out of
   whole blocks of four counts first (TOO_FEW). */
int vseq_unary(uint8_t *out, int64_t size, int64_t a_max, int64_t n,
               int64_t *info)
{
    int64_t at = size - a_max - 1, w = 0, a = 1;
    for (; w <= n; a += 4) {
        if (a + 3 > a_max) {
            info[0] = a - 1;
            info[1] = w;
            info[2] = n;
            return TOO_FEW;
        }
        uint32_t f = four_counts(out + at, a);
        if (!f) {
            int64_t j = 0;
            while (j < 3 && (uint8_t)(out[at + a + j] - 1) < RING_MOST)
                j++;
            return overflow(info, a + j, RING_MOST, out[at + a + j]);
        }
        if (w + 16 > at + a + 4) {
            info[0] = a + 4;
            info[1] = w + 16;
            info[2] = at + a + 4;
            return OVERWRITE;
        }
        unsigned len = f >> 16, bits = (f & 0xffff) >> 1 | 1u << (len - 1);
        uint64_t low = spread[bits & 0xff], high = spread[bits >> 8];
        memcpy(out + w, &low, 8);
        memcpy(out + w + 8, &high, 8);
        w += len;
    }
    return OK;
}

/* V(1..n) into v[0..n-1] from the flat counts F(0..a_max): V is slow, so
   V(k) = a exactly when S(a - 1) < k <= S(a), and V holds each a F(a)
   times.  Like vseq_unary, it asks the counts for a term past n, S(a) > n,
   and returns TOO_FEW where they run out first; it writes nothing past
   v[n - 1] whatever the counts hold. */
int vseq_expand(const uint8_t *counts, int64_t a_max, uint32_t *v, int64_t n,
                int64_t *info)
{
    int64_t k = 0;
    for (int64_t a = 1; k <= n; a++) {
        if (a > a_max) {
            info[0] = a_max;
            info[1] = k;
            info[2] = n;
            return TOO_FEW;
        }
        for (int64_t end = k + counts[a]; k < end; k++)
            if (k < n)
                v[k] = (uint32_t)a;
    }
    return OK;
}

/* The largest of n bytes, 64 lanes at a time, a block loop that gcc
   vectorizes at -O2, then byte by byte past the last block. */
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

/* v[i], of ids width bytes wide (1, 2 or 4) */
static inline uint64_t get(const void *v, int64_t width, int64_t i)
{
    return width == 1 ? ((const uint8_t *)v)[i]
           : width == 2 ? ((const uint16_t *)v)[i] : ((const uint32_t *)v)[i];
}

/* The join of tuples of any length through a table of size slots (a
   power of two, zeroed, probed linearly) holding i + 1 for the first i of
   each distinct tuple, count < 2^32 - 1: a repeated tuple, its bytes equal
   to those at that first i, takes the id out[first].  A rank past the
   width of out returns WIDER, and a table half full FULL, for the caller
   to join again into a table twice the size. */
static int64_t hash_join(const uint8_t *ids, int64_t width, int64_t q,
                         int64_t parts, int64_t count, uint32_t *slots,
                         uint64_t size, void *out, int64_t out_width)
{
    int64_t len = width * parts, distinct = 0;
    for (int64_t i = 0; i < count; i++) {
        const uint8_t *t = ids + width * q * i;
        uint64_t h = 0, id;
        for (int64_t j = 0; j < len; j++)
            h = (h + t[j] + 1) * 0x9e3779b97f4a7c15u;
        /* the product's high bits down into the bits the mask keeps */
        for (h ^= h >> 32;; h++) {
            uint32_t at = slots[h & (size - 1)];
            if (!at) {
                if ((uint64_t)distinct == (1ull << 8 * out_width) - 1)
                    return WIDER;
                if (2 * (uint64_t)distinct >= size - 1)
                    return FULL;
                slots[h & (size - 1)] = (uint32_t)(i + 1);
                id = (uint64_t)distinct++;
                break;
            }
            if (!memcmp(ids + width * q * (at - 1), t, len)) {
                id = get(out, out_width, at - 1);
                break;
            }
        }
        if (out_width == 1)
            ((uint8_t *)out)[i] = (uint8_t)id;
        else if (out_width == 2)
            ((uint16_t *)out)[i] = (uint16_t)id;
        else
            ((uint32_t *)out)[i] = (uint32_t)id;
    }
    return distinct;
}

/* The join of ids in_width bytes wide into ids out_width bytes wide:
   through the rank table over the space of codes, which has the width of
   the ids it makes, or through hash_join's space slots. */
int64_t vseq_join(const void *ids, int64_t in_width, int64_t first, int64_t q,
                  int64_t parts, int64_t count, int64_t k, void *table,
                  uint64_t space, void *out, int64_t out_width, int64_t hashed)
{
    int a = width_index(in_width), b = width_index(out_width);
    if (a < 0 || b < 0)
        return -1;
    if (hashed)
        return hash_join((const uint8_t *)ids + in_width * first, in_width, q,
                         parts, count, table, space, out, out_width);
    return joins[a][b](ids, first, q, parts, count, k, table, space, out);
}

/* The least i < count with the two bytes at pairs[2 i] unlike the two at
   expect[2 ids[i]], or -1: the rule scan's images F(2a), F(2a+1) against
   its window's expected pair.  For ids of width = 2 or 4 bytes, expect
   holds n ids; an id past them returns -2. */
static __attribute__((noinline)) int64_t
pairs_wide(const void *ids, const uint8_t *expect, const uint8_t *pairs,
           int64_t count, int64_t width, int64_t n)
{
    for (int64_t i = 0; i < count; i++) {
        uint64_t id = get(ids, width, i);
        if (id >= (uint64_t)n)
            return -2;
        if (memcmp(pairs + 2 * i, expect + 2 * id, 2))
            return i;
    }
    return -1;
}

/* The same for one-byte ids, reading expect through all 256. */
static __attribute__((noinline)) int64_t
pairs_narrow(const uint8_t *ids, const uint8_t *expect, const uint8_t *pairs,
             int64_t count)
{
    uint16_t want[256];
    memcpy(want, expect, sizeof want);
    for (int64_t i = 0; i < count; i++) {
        uint16_t got;
        memcpy(&got, pairs + 2 * i, 2);
        if (got != want[ids[i]])
            return i;
    }
    return -1;
}

int64_t vseq_pairs(const void *ids, const uint8_t *expect, const uint8_t *pairs,
                   int64_t count, int64_t width, int64_t n)
{
    return width == 1 ? pairs_narrow(ids, expect, pairs, count)
                      : pairs_wide(ids, expect, pairs, count, width, n);
}
