/* The Q_{r,s} recursion Q(n) = Q(n - Q(n-r)) + Q(n - Q(n-s)) under the
   all-ones seed Q(1..s) = 1, compiled for sequences.py, which loads it with
   ctypes and keeps the same loops in Python as the reference.  Both
   functions return a status; info[] carries what the caller needs to raise:
     DEAD           info = {n, argument}  an argument left [1, n-1]
     NOT_MONOTONE   info = {n, Q(n-1), Q(n)}
     COUNT_OVERFLOW info = {value}         a count would pass 255
     VALUE_OVERFLOW info = {n, Q(n)}       Q(n) does not fit 32 bits
   Q(i) lives at q[i - 1]. */
#include <stdint.h>
#include <stdlib.h>

enum { OK, DEAD, NOT_MONOTONE, COUNT_OVERFLOW, VALUE_OVERFLOW, NO_MEMORY };

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

/* counts[a] += #{n > s : Q(n) = a} for a in [0, a_max]: Q runs until it
   first reaches a_max + 1, in a buffer of its own.  The caller zeroes counts
   and sets counts[1] = s for the seed. */
int vseq_count(uint8_t *counts, int64_t a_max, int64_t r, int64_t s,
               int64_t *info)
{
    int64_t cap = 2 * a_max + s + 64;  /* V(n) >= n/2 keeps V's scan inside */
    uint32_t *q = malloc(cap * sizeof *q), prev = 1, val;
    if (q == NULL)
        return NO_MEMORY;
    for (int64_t i = 0; i < s; i++)
        q[i] = 1;
    int status = OK;
    for (int64_t n = s + 1;; n++) {
        if (n > cap) {
            uint32_t *grown = realloc(q, (cap += cap / 8) * sizeof *q);
            if (grown == NULL) {
                status = NO_MEMORY;
                break;
            }
            q = grown;
        }
        if ((status = step(q, n, r, s, info, &val)) != OK)
            break;
        q[n - 1] = val;
        if (val != prev) {
            if (val != prev + 1) {
                info[0] = n;
                info[1] = prev;
                info[2] = val;
                status = NOT_MONOTONE;
                break;
            }
            prev = val;
            if (val > a_max)
                break;
        }
        if (counts[val] == 255) {
            info[0] = val;
            status = COUNT_OVERFLOW;
            break;
        }
        counts[val]++;
    }
    free(q);
    return status;
}
