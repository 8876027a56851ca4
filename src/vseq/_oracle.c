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
   In vseq_qrs, Q(i) lives at q[i - 1]. */
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
