/* Compiled port of the pruned branch of semdef.solver._run_search.
 *
 * Same assignment order, candidate order, pruning and symmetry rules and
 * node count as the Python reference, so it returns the same witness after
 * the same number of label placements.  semdef/_kernel.py builds it with
 * `cc -O2 -shared -fPIC` and calls semdef_dfs through ctypes.
 */
#include <stdlib.h>

typedef struct {
    int p, q, n;               /* vertices, edges, labels 1..n */
    const int *deg;            /* degree per order position, descending */
    const int *pstart, *prior; /* prior-neighbour positions of position i:
                                  prior[pstart[i] .. pstart[i + 1]) */
    const int *top;            /* candidate labels of position 0 */
    int ntop;
    const int *twin_prev;      /* previous position of the same twin class,
                                  or -1; position i takes a larger label */
    long long max_start, target_base;
    int *lab_at;               /* label per order position */
    char *used, *seen;         /* labels placed, edge sums realized */
    long long nodes;
} Search;

static int rec(Search *s, int idx, int lo, int hi, long long wsum)
{
    if (idx == s->p)
        return 1;
    const int q = s->q, beg = s->pstart[idx], end = s->pstart[idx + 1];
    const int count = idx == 0 ? s->ntop : s->n, tp = s->twin_prev[idx];
    /* twin rule: candidates start above the previous twin's label */
    for (int c = tp >= 0 ? s->lab_at[tp] : 0; c < count; c++) {
        const int lab = idx == 0 ? s->top[c] : c + 1;
        if (s->used[lab])
            continue;
        s->nodes++;
        /* The new sums pair lab with distinct labels, so they are distinct
           from each other; only an already realized sum can collide. */
        int nlo = lo, nhi = hi, k;
        for (k = beg; k < end; k++) {
            const int sm = lab + s->lab_at[s->prior[k]];
            if (s->seen[sm])
                break;
            if (sm < nlo)
                nlo = sm;
            if (sm > nhi)
                nhi = sm;
        }
        if (k < end || (nhi >= 0 && nhi - nlo > q - 1))
            continue;
        const long long wsum2 = wsum + (long long)s->deg[idx] * lab;
        if (q > 0 && idx + 1 < s->p) {
            /* completion interval for the degree-weighted label sum: the
               remaining degrees deg[idx + 1 ..] are already descending */
            const int *rem = s->deg + idx + 1, m = s->p - idx - 1;
            long long minc = 0, maxc = 0;
            for (int a = 1, i = 0; i < m; a++)
                if (!s->used[a] && a != lab)
                    minc += (long long)rem[i++] * a;
            for (int a = s->n, i = 0; i < m; a--)
                if (!s->used[a] && a != lab)
                    maxc += (long long)rem[i++] * a;
            long long s_lo = 3, s_hi = s->max_start;
            if (nhi >= 0) {
                if (nhi - (q - 1) > s_lo)
                    s_lo = nhi - (q - 1);
                if (nlo < s_hi)
                    s_hi = nlo;
            }
            if (wsum2 + minc > q * s_hi + s->target_base ||
                wsum2 + maxc < q * s_lo + s->target_base)
                continue;
        }
        s->lab_at[idx] = lab;
        s->used[lab] = 1;
        for (k = beg; k < end; k++)
            s->seen[lab + s->lab_at[s->prior[k]]] = 1;
        const int hit = rec(s, idx + 1, nlo, nhi, wsum2);
        for (k = beg; k < end; k++)
            s->seen[lab + s->lab_at[s->prior[k]]] = 0;
        s->used[lab] = 0;
        if (hit)
            return 1;
    }
    return 0;
}

/* Returns 1 and leaves the witness's label per order position in lab_at,
   0 when the search is exhausted, -1 when out of memory; *nodes receives
   the placements tried. */
int semdef_dfs(int p, int q, int n, const int *deg, const int *pstart,
               const int *prior, const int *top, int ntop,
               const int *twin_prev, int *lab_at, long long *nodes)
{
    char *used = calloc(3 * (size_t)n + 2, 1);  /* used[0..n], seen[0..2n] */
    if (!used)
        return -1;
    Search s = {p, q, n, deg, pstart, prior, top, ntop, twin_prev,
                2LL * n - q, (long long)q * (q - 1) / 2, lab_at, used, used + n + 1, 0};
    const int found = rec(&s, 0, 10 * n, -1, 0);
    free(used);
    *nodes = s.nodes;
    return found;
}
