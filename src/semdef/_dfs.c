/* Compiled port of semdef.solver._run_search.
 *
 * Same assignment order, candidate order, pruning and symmetry rules and
 * node count as the Python reference, so it returns the same witness after
 * the same number of label placements.  Position 0 tries labels 1..ntop
 * (ceil(n/2), the complement cut), every other position 1..n above
 * its previous twin's label.  The rules are the duplicate-sum and span
 * checks, the pinned-label and window-support cuts on entering a position,
 * the weighted-sum interval and the twin rule.  Each pinned label carries
 * the position that last supported it down the recursion, and the others
 * are scanned only when that one no longer can take it.  The weighted-sum
 * interval is computed in O(1) per candidate: on the first candidate of a
 * position that reaches it, the position's free labels are sorted once
 * into two tables of completion sums indexed by the candidate's rank among
 * them.  The reference rescans in both places; the decisions are the same.
 * The tests check both backends against tests/oracles.py, an independent
 * search for the same least witness.  semdef/_kernel.py builds the kernel
 * with `cc -O2 -shared -fPIC` and calls semdef_dfs through ctypes.
 */
#include <stdlib.h>

typedef struct {
    int p, q, n;               /* vertices, edges, labels 1..n */
    const int *deg;            /* degree per order position, descending */
    const int *pstart, *prior; /* prior-neighbour positions of position i:
                                  prior[pstart[i] .. pstart[i + 1]) */
    int ntop;                  /* position 0 takes labels 1..ntop */
    int pins;                  /* a witness uses the first pins of 1, n */
    const int *twin_prev;      /* previous position of the same twin class,
                                  or -1; position i takes a larger label */
    const int *inner;          /* edges joining two positions >= i */
    const int *ostart, *open;  /* positions < i with a neighbour >= i:
                                  open[ostart[i] .. ostart[i + 1]) */
    long long max_start, target_base;
    int *lab_at;               /* label per order position */
    char *used, *seen;         /* labels placed, edge sums realized */
    long long *minc, *maxc;    /* completion-sum rows: p - i entries for
                                  position i, after those of 0 .. i - 1 */
    int *free_lab;             /* scratch: free labels from one end */
    long long nodes;
} Search;

/* The least and greatest starting sum of a window s..s+q-1 that still holds
   every realized sum lo..hi (none when hi < 0). */
static void window(const Search *s, int lo, int hi, long long *s_lo, long long *s_hi)
{
    *s_lo = 3;
    *s_hi = s->max_start;
    if (hi >= 0) {
        if (hi - (s->q - 1) > *s_lo)
            *s_lo = hi - (s->q - 1);
        if (lo < *s_hi)
            *s_hi = lo;
    }
}

/* Whether an edge still to be labelled at position idx can take the sum x:
   a free label x - f(j) at an unassigned neighbour of an open position j, or
   two distinct free labels on an edge between unassigned vertices. */
static int realizable(const Search *s, int idx, int x)
{
    for (int k = s->ostart[idx]; k < s->ostart[idx + 1]; k++) {
        const int b = x - s->lab_at[s->open[k]];
        if (b >= 1 && b <= s->n && !s->used[b])
            return 1;
    }
    if (s->inner[idx])
        for (int a = x > s->n ? x - s->n : 1; 2 * a < x; a++)
            if (!s->used[a] && !s->used[x - a])
                return 1;
    return 0;
}

/* Whether the unassigned position j can take the free label x on entering
   position idx: its sums with the assigned neighbours repeat no realized sum
   and keep the span lo..hi within q - 1, label 1 goes on no later twin, and
   position 0 takes only 1..ntop. */
static int fits(const Search *s, int idx, int j, int x, int lo, int hi)
{
    if ((x == 1 && s->twin_prev[j] >= 0) || (j == 0 && x > s->ntop))
        return 0;
    for (int k = s->pstart[j]; k < s->pstart[j + 1]; k++) {
        const int i = s->prior[k];
        if (i >= idx)
            continue;
        const int sm = x + s->lab_at[i];
        if (s->seen[sm])
            return 0;
        if (sm < lo)
            lo = sm;
        if (sm > hi)
            hi = sm;
    }
    return hi < 0 || hi - lo <= s->q - 1;
}

/* Whether every pinned label still free has an unassigned position that can
   take it, and there are as many unassigned positions as free pinned labels.
   sup[k] is the position that last supported pin k: it is tried first, and
   the positions idx..p-1 are scanned only when it no longer fits. */
static int pins_supported(const Search *s, int idx, int lo, int hi, int *sup)
{
    int need = 0;
    for (int k = 0; k < s->pins; k++)
        need += !s->used[k ? s->n : 1];
    if (need > s->p - idx)
        return 0;
    for (int k = 0; k < s->pins; k++) {
        const int x = k ? s->n : 1;
        if (s->used[x] || (sup[k] >= idx && fits(s, idx, sup[k], x, lo, hi)))
            continue;
        int j = idx;
        while (j < s->p && !fits(s, idx, j, x, lo, hi))
            j++;
        if (j == s->p)
            return 0;
        sup[k] = j;
    }
    return 1;
}

/* out[k], k = 0..m: sum of rem[i] * l_i over the first m free labels l_i
   taken from the low end (step 1) or the high end (step -1), skipping the
   one of rank k from that end; for k = m none is skipped. */
static void completion_row(Search *s, const int *rem, int m, int step, long long *out)
{
    int *f = s->free_lab;
    for (int a = step > 0 ? 1 : s->n, k = 0; k <= m; a += step)
        if (!s->used[a])
            f[k++] = a;
    long long sum = 0;
    for (int i = 0; i < m; i++)
        sum += (long long)rem[i] * f[i];
    out[m] = sum;
    for (int k = m - 1; k >= 0; k--)
        out[k] = out[k + 1] + (long long)rem[k] * (f[k + 1] - f[k]);
}

static int rec(Search *s, int idx, int lo, int hi, long long wsum, int sup0, int sup1)
{
    int sup[2] = {sup0, sup1};
    if (s->pins && !pins_supported(s, idx, lo, hi, sup))
        return 0;
    if (idx == s->p)
        return 1;
    const int q = s->q, beg = s->pstart[idx], end = s->pstart[idx + 1];
    long long s_lo, s_hi;
    if (idx > 0) {
        /* window-support cut: the sums s_hi..s_lo+q-1 lie in every window
           still possible, so each is realized or still realizable; only the
           lowest and the highest unrealized one are checked */
        window(s, lo, hi, &s_lo, &s_hi);
        int x = (int)s_hi, y = (int)(s_lo + q - 1);
        while (x <= y && s->seen[x])
            x++;
        while (y > x && s->seen[y])
            y--;
        if (x <= y && !(realizable(s, idx, x) && (y == x || realizable(s, idx, y))))
            return 0;
    }
    const int last = idx == 0 ? s->ntop : s->n, tp = s->twin_prev[idx];
    const int *rem = s->deg + idx + 1, m = s->p - idx - 1, nfree = s->n - idx;
    const long long row = (long long)idx * s->p - (long long)idx * (idx - 1) / 2;
    long long *minc = s->minc + row, *maxc = s->maxc + row;
    int rank = -1;  /* of lab among the free labels, once the rows are built */
    /* twin rule: candidates start above the previous twin's label */
    for (int lab = (tp >= 0 ? s->lab_at[tp] : 0) + 1; lab <= last; lab++) {
        if (s->used[lab])
            continue;
        s->nodes++;
        if (rank >= 0)
            rank++;
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
        if (q > 0 && m > 0) {
            /* completion interval for the degree-weighted label sum: the
               remaining degrees rem[0 .. m) are already descending */
            if (rank < 0) {
                completion_row(s, rem, m, 1, minc);
                completion_row(s, rem, m, -1, maxc);
                rank = 0;
                for (int a = 1; a < lab; a++)
                    rank += !s->used[a];
            }
            const int up = nfree - 1 - rank;
            window(s, nlo, nhi, &s_lo, &s_hi);
            if (wsum2 + minc[rank < m ? rank : m] > q * s_hi + s->target_base ||
                wsum2 + maxc[up < m ? up : m] < q * s_lo + s->target_base)
                continue;
        }
        s->lab_at[idx] = lab;
        s->used[lab] = 1;
        for (k = beg; k < end; k++)
            s->seen[lab + s->lab_at[s->prior[k]]] = 1;
        const int hit = rec(s, idx + 1, nlo, nhi, wsum2, sup[0], sup[1]);
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
               const int *prior, int ntop, int pins, const int *twin_prev, const int *inner,
               const int *ostart, const int *open, int *lab_at, long long *nodes)
{
    const size_t cells = (size_t)p * (p + 1) / 2;  /* p - i per position i */
    char *used = calloc(3 * (size_t)n + 2, 1);  /* used[0..n], seen[0..2n] */
    long long *rows = malloc(2 * cells * sizeof *rows);
    int *free_lab = malloc(((size_t)n + 1) * sizeof *free_lab);
    int found = -1;
    if (used && rows && free_lab) {
        Search s = {p, q, n, deg, pstart, prior, ntop, pins, twin_prev, inner, ostart, open,
                    2LL * n - q, (long long)q * (q - 1) / 2, lab_at, used, used + n + 1,
                    rows, rows + cells, free_lab, 0};
        found = rec(&s, 0, 10 * n, -1, 0, -1, -1);
        *nodes = s.nodes;
    }
    free(free_lab);
    free(rows);
    free(used);
    return found;
}
