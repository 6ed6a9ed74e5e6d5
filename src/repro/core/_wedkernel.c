/* The verifier's native DP kernel: one candidate's uncached suffix.
 *
 * AllPrefixWED (repro.core.verification) follows a direction trie's cached
 * edges to the first miss; every column past it is new.  This function
 * computes those columns, one DP step per data symbol, with exactly the
 * recurrence and evaluation order of repro.distance.wed.wed_step_min:
 *
 *     C[j] = min(B'[j-1] + sub[j], B'[j] + del)
 *     B[j] = min(C[j], B[j-1] + ins[j])
 *
 * so each column holds the floats the Python kernel computes, bit for bit.
 * Build without -ffast-math and with -ffp-contract=off.
 *
 * Substitution costs come from the query's one row matrix: the row of the
 * symbol in `slots[k]`, read from `offset` with `step` (+1 forward, -1
 * backward: the part is Q[iq+1:] or Q[iq-1::-1]).  The caller resolves
 * every slot before the call.  The function writes the columns of the
 * `count` symbols up to and including the first whose minimum is
 * >= limit, and returns how many it wrote.
 * The layout of wed_job is mirrored by repro.core.wedkernel._Job.
 */
#include <stdint.h>

typedef struct {
    const double *rows;    /* one row of |Q| substitution costs per slot */
    const double *dels;    /* one deletion cost per slot */
    int64_t stride;        /* |Q| */
    const double *ins;     /* the part's insertion costs, n of them */
    int64_t offset;        /* the part's first element in a row */
    int64_t step;          /* +1 forward, -1 backward */
    int64_t n;             /* |part|: a column holds n + 1 values */
    const double *parent;  /* the column the suffix hangs off */
    const int64_t *slots;  /* the suffix's row slots */
    int64_t count;         /* symbols in the suffix */
    double limit;          /* early-termination bound */
    double *columns;       /* out: count x (n + 1) at most */
    double *mins;          /* out: each column's minimum */
    double *lasts;         /* out: each column's last value */
} wed_job;

int64_t wed_suffix(const wed_job *job)
{
    const int64_t n = job->n, width = n + 1, step = job->step;
    const int64_t offset = job->offset;
    const double *ins = job->ins;
    const double *prev = job->parent;
    for (int64_t k = 0; k < job->count; k++) {
        const int64_t slot = job->slots[k];
        const double *row = job->rows + slot * job->stride;
        const double dele = job->dels[slot];
        double *col = job->columns + k * width;
        double best = prev[0] + dele;
        double low = best;
        col[0] = best;
        for (int64_t j = 0; j < n; j++) {
            double c = prev[j] + row[offset + j * step];
            const double via_del = prev[j + 1] + dele;
            if (via_del < c)
                c = via_del;
            const double via_ins = best + ins[j];
            best = via_ins < c ? via_ins : c;
            col[j + 1] = best;
            if (best < low)
                low = best;
        }
        job->mins[k] = low;
        job->lasts[k] = best;
        prev = col;
        if (low >= job->limit)
            return k + 1;
    }
    return job->count;
}
