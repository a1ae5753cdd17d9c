/* Compiled port of semdef.solver._run_search.
 *
 * semdef_dfs takes what _run_search takes, as solver._find passes both: the
 * solver's _Plan, as the Plan struct below, then n, the label count, and
 * pins, the number of the labels 1 and n pinned.  Each backend derives the
 * rest: q is the plan's pstart[p], and position 0 takes labels
 * 1..ceil(n / 2), the complement cut.  semdef/_kernel.py converts each plan
 * to that struct once, so deficiency converts one for all its filler
 * counts, and calls semdef_dfs through ctypes.  The kernel follows the same
 * order, candidates, cuts and symmetry rules (the solver docstring gives
 * them), so it returns the same witness after the same number of label
 * placements.
 *
 * Only the state differs.  The free labels (bit a) and the realized edge
 * sums (bit x) are bitsets of W = (2n + 64) / 64 words, for every n.  On
 * entering a position one candidate mask holds its free labels above the
 * orbit predecessor's, within the range the span rule allows given the least
 * and greatest prior-neighbour label, less those whose sum with a prior
 * neighbour is realized (the OR of seen >> L over the prior labels L).  Only
 * those are visited; the rejected labels the reference also tries are
 * counted by popcount, so the node count is the reference's.  The
 * window-support cut, which the reference runs one forced sum at a time,
 * checks every forced sum at once, a word of sums at a time: the sums still
 * reachable are the OR of free shifted up by each open position's label and
 * of the free labels above l shifted up by each free l, built only until
 * every forced unrealized sum of the word is reached.  The weighted-sum
 * interval is computed in O(1) per candidate from two tables of completion
 * sums, built once per position, when its first candidate reaches the test,
 * from its free labels listed once in ascending order: the low end's table
 * from that list and the high end's from it reversed, as the reference
 * pairs them.  Each is indexed by the candidate's rank among the free
 * labels, where the reference rescans.
 * Every helper of rec is inlined into it, at every optimisation level.
 */
#include <stdint.h>
#include <stdlib.h>

#define INLINE static inline __attribute__((always_inline))

/* solver._Plan field for field, less order and with p, its length; the
   fields are named and ordered as there, and _kernel.py mirrors them. */
typedef struct {
    int p;                     /* vertices, one per order position */
    const int *deg;            /* degree per order position, descending */
    const int *pstart, *prior; /* prior-neighbour positions of position i:
                                  prior[pstart[i] .. pstart[i + 1]) */
    const int *orbit_prev;     /* orbit predecessor, or -1: position i
                                  takes a larger label than it */
    const int *inner;          /* edges joining two positions >= i */
    const int *ostart, *open;  /* positions < i with a neighbour >= i:
                                  open[ostart[i] .. ostart[i + 1]) */
} Plan;

typedef struct {
    Plan plan;                 /* as semdef_dfs is given it */
    int q, n;                  /* edges, plan.pstart[plan.p]; labels 1..n */
    int ntop;                  /* position 0 takes labels 1..ntop, ceil(n / 2) */
    int pins;                  /* a witness uses the first pins of 1, n */
    long long max_start, target_base;
    int *lab_at;               /* label per order position */
    int w;                     /* words per bitset */
    uint64_t *free, *seen;     /* free labels, realized edge sums */
    long long *minc, *maxc;    /* completion-sum rows: p - i entries for
                                  position i, after those of 0 .. i - 1 */
    int *free_lab;             /* scratch: the free labels, ascending, of
                                  the position whose rows are being built */
    long long nodes;
} Search;

INLINE int has(const uint64_t *set, int i)
{
    return (int)(set[i >> 6] >> (i & 63) & 1);
}

INLINE void flip(uint64_t *set, int i)
{
    set[i >> 6] ^= (uint64_t)1 << (i & 63);
}

/* Bits o .. o + 63 of the w-word set, with 0 above it, for o >= 0. */
INLINE uint64_t bits_at(const uint64_t *set, int w, int o)
{
    if (o >= 64 * w)
        return 0;
    const int k = o >> 6, r = o & 63;
    uint64_t v = set[k] >> r;
    if (r && k + 1 < w)
        v |= set[k + 1] << (64 - r);
    return v;
}

/* Word k of the set shifted up by d >= 0: its bits 64k - d .. 64k - d + 63,
   with 0 below bit 0. */
INLINE uint64_t up(const uint64_t *set, int k, int d)
{
    const int j = k - (d >> 6), r = d & 63;
    if (j < 0)
        return 0;
    return set[j] << r | (j ? set[j - 1] >> 1 >> (63 - r) : 0);
}

/* The bits of word k that lie in a..b, for 0 <= a <= b. */
INLINE uint64_t range(int k, int a, int b)
{
    const int lo = 64 * k, hi = lo + 63;
    if (b < lo || a > hi)
        return 0;
    return (a > lo ? ~(uint64_t)0 << (a - lo) : ~(uint64_t)0) &
           (b < hi ? ~(uint64_t)0 >> (hi - b) : ~(uint64_t)0);
}

/* The number of bits below x in set, for x >= 0. */
INLINE int count_below(const uint64_t *set, int x)
{
    int c = 0, k = 0;
    for (; k < x >> 6; k++)
        c += __builtin_popcountll(set[k]);
    if (x & 63)
        c += __builtin_popcountll(set[k] & ~(~(uint64_t)0 << (x & 63)));
    return c;
}

/* The least and greatest starting sum of a window s..s+q-1 that still holds
   every realized sum lo..hi (none when hi < 0). */
INLINE void window(const Search *s, int lo, int hi, long long *s_lo, long long *s_hi)
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

/* Whether every sum in a..b not yet realized can still be realized by an
   edge labelled later, on entering position idx.  Such an edge takes the sum
   x with a free label x - f(j) at an unassigned neighbour of an open position
   j, a bit of free shifted up by f(j); or with two free labels l < x - l on an
   edge between unassigned vertices, a bit of the free labels above l shifted
   up by l.  The sums are checked one word k at a time, clearing from need
   the bits each shift reaches and stopping once none is left.  A pair sum in
   word k has l < 32k + 32, so l lies in a word v <= k / 2; the labels above
   l are then none below word v, f in it and all of free above it. */
INLINE int supported(const Search *s, int idx, int a, int b)
{
    for (int k = a >> 6; a <= b && k <= b >> 6; k++) {
        uint64_t need = ~s->seen[k] & range(k, a, b);
        for (int o = s->plan.ostart[idx]; o < s->plan.ostart[idx + 1] && need; o++)
            need &= ~up(s->free, k, s->lab_at[s->plan.open[o]]);
        if (s->plan.inner[idx])
            for (int v = 0; v <= k >> 1 && need; v++)
                for (uint64_t f = s->free[v]; f && need;) {
                    const int r = __builtin_ctzll(f), j = k - v;  /* l = 64v + r */
                    f &= f - 1;
                    /* words j and j - 1 of the labels above l, as j >= v */
                    const uint64_t hi = j == v ? f : s->free[j];
                    const uint64_t lo = j == v ? 0 : j - 1 == v ? f : s->free[j - 1];
                    need &= ~(hi << r | lo >> 1 >> (63 - r));
                }
        if (need)
            return 0;
    }
    return 1;
}

/* Whether the unassigned position j can take the free label x on entering
   position idx, the reference's place as a test: its sums with the assigned
   neighbours repeat no realized sum and keep the span lo..hi within q - 1,
   label 1 goes on no position with an orbit predecessor, and position 0
   takes only 1..ntop.  rec builds its candidates from the same rule a word
   at a time. */
INLINE int fits(const Search *s, int idx, int j, int x, int lo, int hi)
{
    if ((x == 1 && s->plan.orbit_prev[j] >= 0) || (j == 0 && x > s->ntop))
        return 0;
    for (int k = s->plan.pstart[j]; k < s->plan.pstart[j + 1]; k++) {
        const int i = s->plan.prior[k];
        if (i >= idx)
            continue;
        const int sm = x + s->lab_at[i];
        if (has(s->seen, sm))
            return 0;
        if (sm < lo)
            lo = sm;
        if (sm > hi)
            hi = sm;
    }
    return hi < 0 || hi - lo <= s->q - 1;
}

/* Whether every pinned label still free has an unassigned position that can
   take it, and there are as many unassigned positions as free pinned labels,
   counted in the same pass; it holds at once when no pinned label is free. */
INLINE int pins_supported(const Search *s, int idx, int lo, int hi)
{
    for (int k = 0, need = 0; k < s->pins; k++) {
        const int x = k ? s->n : 1;
        if (!has(s->free, x))
            continue;
        int j = idx;
        while (j < s->plan.p && !fits(s, idx, j, x, lo, hi))
            j++;
        if (j == s->plan.p || ++need > s->plan.p - idx)
            return 0;
    }
    return 1;
}

/* out[k], k = 0..m: sum of rem[i] * f[i * step] over i = 0..m, skipping
   the term of i = k; for k = m none is skipped. */
INLINE void completion_row(const int *rem, int m, const int *f, int step, long long *out)
{
    long long sum = 0;
    for (int i = 0; i < m; i++)
        sum += (long long)rem[i] * f[i * step];
    out[m] = sum;
    for (int k = m - 1; k >= 0; k--)
        out[k] = out[k + 1] + (long long)rem[k] * (f[(k + 1) * step] - f[k * step]);
}

static int rec(Search *s, int idx, int lo, int hi, long long wsum)
{
    if (!pins_supported(s, idx, lo, hi))
        return 0;
    if (idx == s->plan.p)
        return 1;
    const int q = s->q, beg = s->plan.pstart[idx], end = s->plan.pstart[idx + 1];
    long long s_lo, s_hi;
    if (idx > 0) {
        /* window-support cut: the sums s_hi..s_lo+q-1 lie in every window
           still possible, so each is realized or can still be realized */
        window(s, lo, hi, &s_lo, &s_hi);
        if (!supported(s, idx, (int)s_hi, (int)(s_lo + q - 1)))
            return 0;
    }
    /* orbit rule: candidates start above the orbit predecessor's label */
    const int tp = s->plan.orbit_prev[idx], start = (tp >= 0 ? s->lab_at[tp] : 0) + 1;
    const int last = idx == 0 ? s->ntop : s->n;
    /* span rule: with prior labels lmin..lmax, the sums of lab span
       min(lo, lab + lmin)..max(hi, lab + lmax), at most q - 1; with no
       prior neighbour, lmin = 10n and lmax = -10n leave lo, hi and a0..a1
       as they are */
    int lmin = 10 * s->n, lmax = -10 * s->n, a0 = start, a1 = last;
    for (int k = beg; k < end; k++) {
        const int l = s->lab_at[s->plan.prior[k]];
        if (l < lmin)
            lmin = l;
        if (l > lmax)
            lmax = l;
    }
    if (lmax - lmin > q - 1)
        a1 = 0;
    if (hi - (q - 1) - lmin > a0)
        a0 = hi - (q - 1) - lmin;
    if (lo + (q - 1) - lmax < a1)
        a1 = lo + (q - 1) - lmax;
    const int *rem = s->plan.deg + idx + 1, m = s->plan.p - idx - 1, nfree = s->n - idx;
    const long long row = (long long)idx * s->plan.p - (long long)idx * (idx - 1) / 2;
    long long *minc = s->minc + row, *maxc = s->maxc + row;
    const int before = count_below(s->free, start);
    int built = 0;  /* whether minc and maxc are */
    for (int w = a0 >> 6; a0 <= a1 && w <= a1 >> 6; w++) {
        /* The new sums pair lab with distinct labels, so they are distinct
           from each other; only an already realized sum can collide. */
        uint64_t cand = s->free[w] & range(w, a0, a1);
        for (int k = beg; k < end && cand; k++)
            cand &= ~bits_at(s->seen, s->w, 64 * w + s->lab_at[s->plan.prior[k]]);
        for (; cand; cand &= cand - 1) {
            const int lab = 64 * w + __builtin_ctzll(cand);
            const int nlo = lab + lmin < lo ? lab + lmin : lo;
            const int nhi = lab + lmax > hi ? lab + lmax : hi;
            const long long wsum2 = wsum + (long long)s->plan.deg[idx] * lab;
            if (q > 0 && m > 0) {
                /* completion interval for the degree-weighted label sum: the
                   remaining degrees rem[0 .. m) are already descending */
                if (!built) {
                    int *f = s->free_lab, i = 0;
                    for (int k = 0; k <= s->n >> 6; k++)
                        for (uint64_t v = s->free[k]; v; v &= v - 1)
                            f[i++] = 64 * k + __builtin_ctzll(v);
                    completion_row(rem, m, f, 1, minc);
                    completion_row(rem, m, f + nfree - 1, -1, maxc);
                    built = 1;
                }
                const int rank = count_below(s->free, lab), up = nfree - 1 - rank;
                window(s, nlo, nhi, &s_lo, &s_hi);
                if (wsum2 + minc[rank < m ? rank : m] > q * s_hi + s->target_base ||
                    wsum2 + maxc[up < m ? up : m] < q * s_lo + s->target_base)
                    continue;
            }
            s->lab_at[idx] = lab;
            flip(s->free, lab);
            for (int k = beg; k < end; k++)
                flip(s->seen, lab + s->lab_at[s->plan.prior[k]]);
            const int hit = rec(s, idx + 1, nlo, nhi, wsum2);
            for (int k = beg; k < end; k++)
                flip(s->seen, lab + s->lab_at[s->plan.prior[k]]);
            flip(s->free, lab);
            if (hit) {
                s->nodes += count_below(s->free, lab + 1) - before;
                return 1;
            }
        }
    }
    s->nodes += count_below(s->free, last + 1) - before;
    return 0;
}

/* Returns 1 and leaves the witness's label per order position in lab_at,
   0 when the search is exhausted, -1 when out of memory; *nodes receives
   the placements tried. */
int semdef_dfs(const Plan *plan, int n, int pins, int *lab_at, long long *nodes)
{
    const int p = plan->p, q = plan->pstart[p];
    const size_t cells = (size_t)p * (p + 1) / 2;  /* p - i per position i */
    const int w = (2 * n + 64) / 64;               /* bits 0..2n */
    uint64_t *bits = calloc(2 * (size_t)w, sizeof *bits);
    long long *rows = malloc(2 * cells * sizeof *rows);
    int *free_lab = malloc(((size_t)n + 1) * sizeof *free_lab);
    int found = -1;
    if (bits && rows && free_lab) {
        Search s = {*plan, q, n, (n + 1) / 2, pins, 2LL * n - q, (long long)q * (q - 1) / 2,
                    lab_at, w, bits, bits + w, rows, rows + cells, free_lab, 0};
        for (int a = 1; a <= n; a++)
            flip(s.free, a);
        found = rec(&s, 0, 10 * n, -1, 0);
        *nodes = s.nodes;
    }
    free(free_lab);
    free(rows);
    free(bits);
    return found;
}
