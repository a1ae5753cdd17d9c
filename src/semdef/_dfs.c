/* Compiled port of semdef._reference, the solver's Python backend: _solve,
 * its _plan and orbit_prev, and _run_search per filler count, as the
 * CPython extension module semdef._dfs.
 *
 * The module's solve is the one search entry, and the solver calls it once
 * per find_sem or deficiency call, through semdef/_kernel.py:
 * solve(p, edges, t0, t1, pins) takes the graph -- its p vertices and its
 * edges as Graph.edges holds them, a tuple of distinct pairs (u, v) of ints,
 * 0 <= u < v < p, ascending -- and the filler counts t0..t1 to search, with
 * pins, the number of the labels 1 and n pinned, at most n.  It reads the
 * edges into C ints, refusing any other input with an exception, and calls
 * semdef_solve, which builds the plan with semdef_plan, allocates the
 * search's tables, once for a cap near the first t, searches t = t0, t0 + 1,
 * ... up to the first witness, writes that witness per vertex, frees
 * everything and returns the t found, or -1 (none), -2 (the plan could not
 * be allocated) or -3 (the tables could not be).  solve returns that code,
 * the witness's label per vertex (None without one) and the nodes.
 *
 * semdef_plan fills a Plan, a graph's search plan, solver._Plan field for
 * field, its arrays in one allocation; the module's plan(p, edges) returns
 * its fields as a dict of lists keyed by _Plan's field names, for the tests,
 * which compare it with _reference._plan.  semdef_solve searches each filler
 * count with search, which takes what _run_search takes: the plan, n, the
 * label count, and pins.  It derives the rest: q is the plan's pstart[p],
 * and position 0 takes labels 1..ceil(n / 2), the complement cut.
 *
 * The file is one translation unit, the search, the plan builder and then
 * the Python glue, compiled into the module by one cc command with
 * _kernel.cflags() and Python's include directory.
 *
 * The plan follows _reference._plan: the order and degrees, the prior,
 * inner, open and common lists, and the orbit links of orbit_prev -- twins
 * seeded without a search, then a stabilizer chain from the last position up
 * (Puget, CP 2003), a union-find over positions holding the orbits of the
 * automorphisms found so far, and one forward-checking automorphism search
 * per candidate that degree and fixed neighbours cannot tell apart.  The
 * adjacency, the orbits and the search domains are bitsets of p / 64 + 1
 * words per position.  A search narrows the domains in place and keeps a
 * trail of the words it changed, so its memory grows with the changes, not
 * with depth times domains, and it touches, per later position not
 * adjacent to the one assigned, only the words that hold the image's
 * closed neighbourhood.  The links are those of orbit_prev, since both
 * compute the exact orbit of each position under the automorphisms that
 * fix the earlier ones, whichever automorphisms they find.  The common
 * lists come, like _plan's, from the pairs that share a later neighbour,
 * found through the earlier neighbours of each position's later ones.
 *
 * The DFS follows the same order, candidates, cuts and symmetry rules as
 * _run_search (the solver docstring gives them), so it returns the same
 * witness after the same number of label placements.  Both check a
 * position on entry in the same order: the difference cut, the
 * window-support cut (past position 0), then the pins, which alone are
 * checked past the last position.  Each check is a pure predicate and
 * nodes are counted only in the candidate loop, so the order moves no
 * node count.
 *
 * Only the state differs.  The free labels (bit a) and the realized edge
 * sums (bit x) are bitsets of W = (2n + 64) / 64 words, for every n, whose
 * bits __builtin_popcountll counts: with the CPU's popcount instruction
 * where _kernel.cflags() holds -mpopcnt, else with a libgcc call.  On
 * entering a position one candidate mask holds its free labels above the
 * orbit predecessor's, within the range the span rule allows given the least
 * and greatest prior-neighbour label, less those whose sum with a prior
 * neighbour is realized (the OR of seen >> L over the prior labels L).  Only
 * those are visited; the rejected labels the reference also tries are
 * counted by popcount, so the node count is the reference's; past position
 * 0 a position's last candidate is n, so on exhausting it the placements
 * tried are its free labels less those below its first candidate.  The
 * window-support cut, which the reference runs one forced sum at a time,
 * checks every forced sum at once, a word of sums at a time: the sums still
 * reachable are the OR of free shifted up by each open position's label and
 * of the free labels above l shifted up by each free l, built only until
 * every forced unrealized sum of the word is reached.  The difference cut,
 * checked first on entry, counts for each of the position's common
 * triples (a, b, c) the most labels that c common neighbours of a and b
 * can take: the free labels x with x + f(a) and x + f(b) unrealized (free
 * less seen >> f(a) and seen >> f(b)) hold that many no two of which differ
 * by d = |f(a) - f(b)|, ceil(L / 2) per maximal run of step d.  At least
 * half and at most all of that set can be taken, so a popcount settles
 * most triples; otherwise each round counts the run starts m & ~(m << d)
 * and drops them and their successors.  The weighted-sum interval is
 * computed in O(1) per candidate from two tables of completion
 * sums, built once per position, when its first candidate reaches the test,
 * from its free labels listed once in ascending order: the low end's table
 * from that list and the high end's from it reversed, as the reference
 * pairs them.  Each is indexed by the candidate's rank among the free
 * labels, where the reference rescans.
 * Every helper of rec is inlined into it, at every optimisation level.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>  /* first, as it sets the feature macros */

#include <limits.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define INLINE static inline __attribute__((always_inline))

INLINE int has(const uint64_t *set, int i)
{
    return (int)(set[i >> 6] >> (i & 63) & 1);
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

/* solver._Plan field for field, with p, its length, as semdef_plan fills
   it: the arrays lie in one allocation, which free(order) releases. */
typedef struct {
    int p;                     /* vertices, one per order position */
    int *order;                /* vertex per position */
    int *deg;                  /* degree per order position, descending */
    int *pstart, *prior;       /* prior-neighbour positions of position i:
                                  prior[pstart[i] .. pstart[i + 1]) */
    int *orbit_prev;           /* orbit predecessor, or -1: position i
                                  takes a larger label than it */
    int *inner;                /* edges joining two positions >= i */
    int *ostart, *open;        /* positions < i with a neighbour >= i:
                                  open[ostart[i] .. ostart[i + 1]) */
    int *cstart, *common;      /* triples a, b, c of positions a < b < i
                                  with c >= 2 common neighbours >= i:
                                  common[cstart[i] .. cstart[i + 1]) */
} Plan;

typedef struct {
    Plan plan;                 /* the graph's, from semdef_plan */
    int q, n;                  /* edges, plan.pstart[plan.p]; labels 1..n */
    int ntop;                  /* position 0 takes labels 1..ntop, ceil(n / 2) */
    int pins;                  /* a witness uses the first pins of 1, n */
    long long max_start, target_base;
    int *lab_at;               /* label per order position */
    int w;                     /* words per bitset */
    uint64_t *free, *seen;     /* free labels, realized edge sums */
    uint64_t *runs;            /* scratch: two bitsets for spread */
    long long *minc, *maxc;    /* completion-sum rows: p - i entries for
                                  position i, after those of 0 .. i - 1 */
    int *free_lab;             /* scratch: the free labels, ascending, of
                                  the position whose rows are being built */
    long long nodes;
} Search;

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

/* Whether c free labels x with x + fa and x + fb unrealized can be found no
   two of which differ by d = |fa - fb|, as _reference._spread_reaches finds it.
   The most there are, from the set m of such labels, takes ceil(L / 2) of
   each maximal run x, x + d, ..., x + (L - 1)d in m, so it lies in
   ceil(|m| / 2)..|m|; between, each round counts the runs' first labels
   st = m & ~(m << d) and drops them and their successors from m. */
INLINE int spread(const Search *s, int fa, int fb, int c)
{
    const int d = fa > fb ? fa - fb : fb - fa, lw = (s->n >> 6) + 1;
    uint64_t *m = s->runs, *st = s->runs + s->w;
    int size = 0;
    for (int k = 0; k < lw; k++) {
        m[k] = s->free[k] & ~bits_at(s->seen, s->w, 64 * k + fa) &
               ~bits_at(s->seen, s->w, 64 * k + fb);
        size += __builtin_popcountll(m[k]);
    }
    if (size < c || size >= 2 * c - 1)
        return size >= c;
    for (int got = 0;;) {
        uint64_t any = 0;
        for (int k = 0; k < lw; k++) {
            st[k] = m[k] & ~up(m, k, d);
            got += __builtin_popcountll(st[k]);
            any |= st[k];
        }
        if (got >= c)
            return 1;
        if (!any)
            return 0;
        for (int k = 0; k < lw; k++)
            m[k] &= ~(st[k] | up(st, k, d));
    }
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
    if (idx == s->plan.p)
        return pins_supported(s, idx, lo, hi);
    const int q = s->q, beg = s->plan.pstart[idx], end = s->plan.pstart[idx + 1];
    long long s_lo, s_hi;
    /* difference cut: the c unassigned common neighbours of a and b need c
       such labels, or two of their sums with f(a) and f(b) coincide */
    for (int k = s->plan.cstart[idx]; k < s->plan.cstart[idx + 1]; k += 3)
        if (!spread(s, s->lab_at[s->plan.common[k]], s->lab_at[s->plan.common[k + 1]],
                    s->plan.common[k + 2]))
            return 0;
    if (idx > 0) {
        /* window-support cut: the sums s_hi..s_lo+q-1 lie in every window
           still possible, so each is realized or can still be realized */
        window(s, lo, hi, &s_lo, &s_hi);
        if (!supported(s, idx, (int)s_hi, (int)(s_lo + q - 1)))
            return 0;
    }
    if (!pins_supported(s, idx, lo, hi))
        return 0;
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
    /* past position 0, last is n, and every free label is below n + 1 */
    s->nodes += (idx ? nfree : count_below(s->free, last + 1)) - before;
    return 0;
}

/* The bytes of a search's tables for p vertices and n labels, one block in
   this order: the completion rows, p - i entries per position i for minc and
   then for maxc; the four bitsets of Search, (2n + 64) / 64 words each; and
   free_lab, n + 1 labels.  The block for n labels holds the tables of any
   fewer. */
static size_t table_bytes(int p, int n)
{
    return ((size_t)p * (p + 1) + 4 * (size_t)((2 * n + 64) / 64)) * sizeof(uint64_t) +
           ((size_t)n + 1) * sizeof(int);
}

/* Searches pl with labels 1..n, on a block of table_bytes for at least n
   labels: returns 1 and leaves the witness's label per order position in
   lab_at, or 0 when the search is exhausted, and adds the placements tried
   to *nodes. */
static int search(const Plan *pl, int n, int pins, void *block, int *lab_at, long long *nodes)
{
    const int q = pl->pstart[pl->p], w = (2 * n + 64) / 64;  /* bits 0..2n */
    const size_t cells = (size_t)pl->p * (pl->p + 1) / 2;    /* p - i per position i */
    long long *rows = block;
    uint64_t *bits = (uint64_t *)(rows + 2 * cells);
    memset(bits, 0, 4 * (size_t)w * sizeof *bits);
    Search s = {*pl, q, n, (n + 1) / 2, pins, 2LL * n - q, (long long)q * (q - 1) / 2,
                lab_at, w, bits, bits + w, bits + 2 * w, rows, rows + cells,
                (int *)(bits + 4 * w), 0};
    for (int a = 1; a <= n; a++)
        flip(s.free, a);
    const int found = rec(&s, 0, 10 * n, -1, 0);
    *nodes += s.nodes;
    return found;
}

static int semdef_plan(int p, int q, const int *edges, Plan *plan);  /* the plan builder, below */

/* Searches the graph of p vertices and the q edges edges[2e], edges[2e + 1]
   at t = t0..t1 (p >= 1, p + t1 at most (INT_MAX - 64) / 2), the first
   min(pins, p + t) of the labels 1 and p + t pinned, up to the first
   witness: returns its t and leaves its label per vertex in lab, or -1 when
   every t is exhausted, -2 when the plan and -3 when the tables could not
   be allocated; *nodes receives the placements tried over every t.  The
   tables are allocated for twice the labels of the first t, or for p + t1
   if fewer, and again so whenever t outgrows them: once for the filler
   counts of a call with a nearby cap, and never for labels past those
   searched times two, however large t1 is. */
static int semdef_solve(int p, int q, const int *edges, int t0, int t1, int pins, int *lab,
                        long long *nodes)
{
    Plan pl;
    if (semdef_plan(p, q, edges, &pl) < 0)
        return -2;
    int *lab_at = malloc((size_t)p * sizeof *lab_at), found = lab_at ? -1 : -3, room = 0;
    void *block = NULL;
    *nodes = 0;
    for (int t = t0; found == -1 && t <= t1; t++) {
        const int n = p + t;
        if (n > room) {
            free(block);
            room = t1 - t < n ? p + t1 : 2 * n;
            block = malloc(table_bytes(p, room));
            if (!block)
                found = -3;
        }
        if (block && search(&pl, n, pins < n ? pins : n, block, lab_at, nodes))
            found = t;
    }
    for (int i = 0; found >= 0 && i < p; i++)
        lab[pl.order[i]] = lab_at[i];
    free(block);
    free(lab_at);
    free(pl.order);
    return found;
}

/* The plan builder: _reference._plan with the orbit links */

INLINE uint64_t bit(int i)
{
    return (uint64_t)1 << (i & 63);
}

/* Bit i as it lies in word k: bit(i) if word k holds it, else 0. */
INLINE uint64_t bit_in(int k, int i)
{
    return k == i >> 6 ? bit(i) : 0;
}

INLINE uint64_t mix(uint64_t h, uint64_t v)
{
    h = (h ^ v) * 0xff51afd7ed558ccdULL;
    return h ^ h >> 32;
}

/* Hashed sets of rows: slots of (row id + 1, or 0 when empty) and hashes. */
typedef struct {
    int *id;
    uint64_t *hash;
    size_t mask;               /* slots - 1, a power of two less one */
} Table;

/* Rows by twin key: row id 2x is position x's open neighbourhood N(x),
   2x + 1 its closed one N[x]; each is adj's row x, with bit x set for N[x]. */
INLINE uint64_t twin_word(const uint64_t *adj, int w, int id, int k)
{
    const int x = id >> 1;
    return adj[(size_t)x * w + k] | (id & 1 ? bit_in(k, x) : 0);
}

/* The slot of table holding the twin key equal to row id, hashed h, or the
   empty slot where it goes. */
static size_t twin_slot(const Table *t, const uint64_t *adj, int w, int id, uint64_t h)
{
    for (size_t i = h & t->mask;; i = (i + 1) & t->mask) {
        const int other = t->id[i] - 1;
        if (other < 0)
            return i;
        if (t->hash[i] != h)
            continue;
        int k = 0;
        while (k < w && twin_word(adj, w, id, k) == twin_word(adj, w, other, k))
            k++;
        if (k == w)
            return i;
    }
}

/* The earlier twin of position i whose key is row id -- the latest earlier
   position with an equal open or closed neighbourhood -- or -1; position i
   then takes its place in table. */
static int last_twin(Table *t, const uint64_t *adj, int w, int id)
{
    uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (int k = 0; k < w; k++)
        h = mix(h, twin_word(adj, w, id, k));
    const size_t i = twin_slot(t, adj, w, id, h);
    const int j = t->id[i] ? (t->id[i] - 1) >> 1 : -1;
    t->id[i] = id + 1;
    t->hash[i] = h;
    return j;
}

/* The automorphism searches of one orbit_prev call and their scratch. */
typedef struct {
    int p, w;
    const uint64_t *adj;       /* neighbour rows per position */
    const int *wlo, *whi;      /* the words of each position's degree run,
                                  which holds its cell and domain */
    uint64_t *cell;            /* the rows of the cells, by number */
    int *cell_of;              /* cell number per position >= k */
    uint64_t *dom, *untried;   /* per position: the images still allowed,
                                  and, once assigned, those not yet tried */
    int *nz;                   /* nonzero words of dom, per position */
    int *sigma;                /* image per assigned position */
    int *yw;                   /* words of the image's closed neighbourhood */
    size_t *mark;              /* trail length on entering each position */
    size_t *trail_at, trail_n, trail_cap;
    uint64_t *trail_old;       /* dom words changed, and their old values */
} Aut;

/* Clears the bits outside m from word i of dom, on the trail; 0 when the
   trail cannot grow. */
INLINE int narrow(Aut *a, size_t i, uint64_t m)
{
    const uint64_t old = a->dom[i], v = old & m;
    if (v == old)
        return 1;
    if (a->trail_n == a->trail_cap) {
        const size_t cap = 2 * a->trail_cap + 1024;
        size_t *at = realloc(a->trail_at, cap * sizeof *at);
        if (at)
            a->trail_at = at;
        uint64_t *was = realloc(a->trail_old, cap * sizeof *was);
        if (was)
            a->trail_old = was;
        if (!at || !was)
            return 0;
        a->trail_cap = cap;
    }
    a->trail_at[a->trail_n] = i;
    a->trail_old[a->trail_n++] = old;
    a->dom[i] = v;
    if (!v)
        a->nz[i / a->w]--;
    return 1;
}

/* 1, with sigma[x] for x = k..p-1, when an automorphism that fixes 0..k-1
   maps k to u; 0 when none does; -1 when out of memory.  Each position x
   maps into its cell; positions k, k+1, ... are assigned in turn, and each
   assignment x -> y narrows the domain of every later position z to the
   neighbours of y when z is adjacent to x and to the non-neighbours
   otherwise, y excluded (forward checking); an empty domain backtracks. */
static int automorphism(Aut *a, int k, int u)
{
    const int p = a->p, w = a->w;
    for (int z = k + 1; z < p; z++) {
        const uint64_t *c = a->cell + (size_t)a->cell_of[z] * w;
        uint64_t *d = a->dom + (size_t)z * w;
        a->nz[z] = 0;
        for (int i = a->wlo[z]; i <= a->whi[z]; i++)
            a->nz[z] += (d[i] = c[i]) != 0;
    }
    uint64_t *first = a->untried + (size_t)k * w;
    for (int i = a->wlo[k]; i <= a->whi[k]; i++)
        first[i] = bit_in(i, u);
    a->trail_n = a->mark[k] = 0;
    for (int x = k;;) {
        while (a->trail_n > a->mark[x]) {
            const size_t i = a->trail_at[--a->trail_n];
            if (!a->dom[i])
                a->nz[i / w]++;
            a->dom[i] = a->trail_old[a->trail_n];
        }
        uint64_t *un = a->untried + (size_t)x * w;
        int i = a->wlo[x];
        while (i <= a->whi[x] && !un[i])
            i++;
        if (i > a->whi[x]) {
            if (x == k)
                return 0;
            x--;
            continue;
        }
        const int y = 64 * i + __builtin_ctzll(un[i]);
        un[i] &= un[i] - 1;
        a->sigma[x] = y;
        if (x == p - 1)
            return 1;
        const uint64_t *ax = a->adj + (size_t)x * w, *ay = a->adj + (size_t)y * w;
        int ny = 0;
        for (int j = 0; j < w; j++)
            if (ay[j] | bit_in(j, y))
                a->yw[ny++] = j;
        int ok = 1;
        for (int z = x + 1; z < p && ok; z++) {
            const size_t row = (size_t)z * w;
            if (has(ax, z)) {
                for (int j = a->wlo[z]; j <= a->whi[z]; j++)
                    if (!narrow(a, row + j, ay[j] & ~bit_in(j, y)))
                        return -1;
            } else {
                for (int t = 0; t < ny; t++) {
                    const int j = a->yw[t];
                    if (j >= a->wlo[z] && j <= a->whi[z] &&
                        !narrow(a, row + j, ~(ay[j] | bit_in(j, y))))
                        return -1;
                }
            }
            ok = a->nz[z] > 0;
        }
        if (!ok)
            continue;
        x++;
        un = a->untried + (size_t)x * w;
        for (int j = a->wlo[x]; j <= a->whi[x]; j++)
            un[j] = a->dom[(size_t)x * w + j];
        a->mark[x] = a->trail_n;
    }
}

/* Whether positions x and y have the same neighbours among 0..k-1. */
INLINE int same_prefix(const uint64_t *ax, const uint64_t *ay, int k)
{
    for (int j = 0; j < k >> 6; j++)
        if (ax[j] != ay[j])
            return 0;
    return !(k & 63) || !((ax[k >> 6] ^ ay[k >> 6]) & (bit(k) - 1));
}

/* Numbers in cell_of the cells of positions k..p-1 -- equal degree and
   equal neighbours among 0..k-1 -- and fills their rows in cell. */
static void cells(Aut *a, Table *t, const int *deg, int k)
{
    const int p = a->p, w = a->w;
    int count = 0;
    for (size_t i = 0; i <= t->mask; i++)
        t->id[i] = 0;
    for (int x = k; x < p; x++) {
        const uint64_t *ax = a->adj + (size_t)x * w;
        uint64_t h = mix(0x9e3779b97f4a7c15ULL, (uint64_t)deg[x]);
        for (int j = 0; j < k >> 6; j++)
            h = mix(h, ax[j]);
        if (k & 63)
            h = mix(h, ax[k >> 6] & (bit(k) - 1));
        size_t i = h & t->mask;
        for (;; i = (i + 1) & t->mask) {
            const int rep = t->id[i] - 1;
            if (rep < 0 || (t->hash[i] == h && deg[rep] == deg[x] &&
                            same_prefix(ax, a->adj + (size_t)rep * w, k)))
                break;
        }
        if (!t->id[i]) {
            t->id[i] = x + 1;
            t->hash[i] = h;
            a->cell_of[x] = count++;
            uint64_t *row = a->cell + (size_t)a->cell_of[x] * w;
            for (int j = 0; j < w; j++)
                row[j] = 0;
        } else {
            a->cell_of[x] = a->cell_of[t->id[i] - 1];
        }
        a->cell[(size_t)a->cell_of[x] * w + (x >> 6)] |= bit(x);
    }
}

static int find(int *root, int i)
{
    while (root[i] != i)
        i = root[i] = root[root[i]];
    return i;
}

static void unite(int *root, uint64_t *members, int w, int i, int j)
{
    i = find(root, i);
    j = find(root, j);
    if (i != j) {
        root[j] = i;
        for (int k = 0; k < w; k++)
            members[(size_t)i * w + k] |= members[(size_t)j * w + k];
    }
}

/* _reference.orbit_prev: for each position i, the greatest k < i such that an
   automorphism fixing positions 0..k-1 maps k to i, or -1, into out; adj
   holds the neighbour rows per position, w words each.  Returns 0, or -1
   when out of memory.  A stabilizer chain from the last position up: the
   automorphisms found so far fix 0..k-1 and generate a subgroup of G_k,
   whose orbits the union-find (root, with the rows of members per root)
   holds.  Each later position of k's degree run with k's neighbours among
   0..k-1 and outside k's orbit gets one search for an automorphism of G_k
   taking k to it, which merges orbits or rules out its whole orbit; then
   k's orbit is exact.  The transposition of two twins (equal N(v) or equal
   N[v]) lies in G_k for the earlier twin's position k and is seeded
   without a search; no N(u) equals an N[v], so one table holds both. */
static int orbits(const uint64_t *adj, const int *deg, int p, int w, int *out)
{
    const size_t rows = (size_t)p * w;
    if (!p)
        return 0;
    size_t slots = 4;
    while (slots < 4 * (size_t)p)
        slots *= 2;
    int *ints = malloc(5 * (size_t)p * sizeof *ints);
    uint64_t *members = calloc(rows + 2 * (size_t)w, sizeof *members);
    Table t = {calloc(slots, sizeof *t.id), malloc(slots * sizeof *t.hash), slots - 1};
    Aut a = {.p = p, .w = w, .adj = adj};
    int status = -1;
    if (!ints || !members || !t.id || !t.hash)
        goto done;
    int *root = ints, *head = ints + p, *next = ints + 2 * p, *wlo = ints + 3 * p,
        *whi = ints + 4 * p;
    uint64_t *unset = members + rows, *todo = unset + w;
    a.wlo = wlo;
    a.whi = whi;
    for (int i = 0; i < p; i++) {
        root[i] = i;
        head[i] = -1;
        out[i] = -1;
        members[(size_t)i * w + (i >> 6)] = bit(i);
        unset[i >> 6] |= bit(i);
        wlo[i] = i && deg[i - 1] == deg[i] ? wlo[i - 1] : i >> 6;
        int j = last_twin(&t, adj, w, 2 * i);
        const int closed = last_twin(&t, adj, w, 2 * i + 1);
        if (j < 0)
            j = closed;
        if (j >= 0) {
            next[i] = head[j];
            head[j] = i;
        }
    }
    for (int k = p - 1, end = p - 1; k >= 0; k--) {
        if (k + 1 < p && deg[k + 1] != deg[k])
            end = k;  /* k's degree run ends at end */
        whi[k] = end >> 6;
        for (int i = head[k]; i >= 0; i = next[i])
            unite(root, members, w, k, i);
        /* an automorphism fixing 0..k-1 keeps each position's degree and
           its neighbours among them */
        const uint64_t *ak = adj + (size_t)k * w, *orbit = members + (size_t)find(root, k) * w;
        int any = 0;
        for (int j = 0; j < w; j++) {
            todo[j] = 0;
            if (k < end)
                for (uint64_t r = range(j, k + 1, end) & ~orbit[j]; r; r &= r - 1) {
                    const int x = 64 * j + __builtin_ctzll(r);
                    if (same_prefix(adj + (size_t)x * w, ak, k)) {
                        todo[j] |= bit(x);
                        any = 1;
                    }
                }
        }
        if (any && !a.cell) {
            a.cell = malloc(3 * rows * sizeof *a.cell);
            a.mark = malloc((size_t)p * sizeof *a.mark);
            int *scratch = malloc(4 * (size_t)p * sizeof *scratch);
            if (!a.cell || !a.mark || !scratch) {
                free(scratch);
                goto done;
            }
            a.dom = a.cell + rows;
            a.untried = a.dom + rows;
            a.cell_of = scratch;
            a.nz = scratch + p;
            a.sigma = scratch + 2 * p;
            a.yw = scratch + 3 * p;
        }
        if (any)
            cells(&a, &t, deg, k);
        for (int j = 0; j < w; j++)
            while (todo[j]) {
                const int u = 64 * j + __builtin_ctzll(todo[j]);
                const int found = automorphism(&a, k, u);
                if (found < 0)
                    goto done;
                for (int x = k; found && x < p; x++)
                    unite(root, members, w, x, a.sigma[x]);
                const uint64_t *ou = members + (size_t)find(root, u) * w,
                               *ok = members + (size_t)find(root, k) * w;
                for (int i = j; i < w; i++)
                    todo[i] &= ~(ou[i] | ok[i]);
            }
        orbit = members + (size_t)find(root, k) * w;
        for (int j = k >> 6; j < w; j++) {
            uint64_t f = orbit[j] & unset[j] & ~range(j, 0, k);
            unset[j] &= ~f;
            for (; f; f &= f - 1)
                out[64 * j + __builtin_ctzll(f)] = k;
        }
    }
    status = 0;
done:
    free(a.trail_old);
    free(a.trail_at);
    free(a.cell_of);
    free(a.mark);
    free(a.cell);
    free(t.hash);
    free(t.id);
    free(members);
    free(ints);
    return status;
}

/* The difference cut's triples, _plan's common lists: for each pair of
   positions a < b, each position i > b with c >= 2 of their common
   neighbours at positions >= i gets (a, b, c), ascending by (a, b).  A
   common neighbour v > b has a and b among its earlier neighbours, so the
   b are sought, into cand (w words), among the earlier neighbours of a's
   later ones.  With out NULL, adds 3 per triple to at[i + 1]; else writes
   each at out[at[i]], advancing at[i].  Returns the number of triples. */
static long long common_pairs(const uint64_t *adj, int p, int w, uint64_t *cand, int *at,
                              int *out)
{
    long long n = 0;
    for (int a = 0; a < p; a++) {
        const uint64_t *aa = adj + (size_t)a * w;
        for (int j = 0; j < w; j++)
            cand[j] = 0;
        for (int j = a >> 6; j < w; j++)
            for (uint64_t r = aa[j] & range(j, a + 2, p - 1); r; r &= r - 1) {
                const int v = 64 * j + __builtin_ctzll(r);
                for (int k = a >> 6; k <= (v - 1) >> 6; k++)
                    cand[k] |= adj[(size_t)v * w + k] & range(k, a + 1, v - 1);
            }
        for (int j = a >> 6; j < w; j++)
            for (uint64_t r = cand[j]; r; r &= r - 1) {
                const int b = 64 * j + __builtin_ctzll(r);
                const uint64_t *ab = adj + (size_t)b * w;
                int c = 0;
                for (int k = b >> 6; k < w; k++)
                    c += __builtin_popcountll(aa[k] & ab[k] & range(k, b + 1, p - 1));
                for (int i = b + 1; c >= 2; i++, n++) {
                    if (out) {
                        int *t = out + at[i];
                        t[0] = a;
                        t[1] = b;
                        t[2] = c;
                        at[i] += 3;
                    } else {
                        at[i + 1] += 3;
                    }
                    c -= (int)((aa[i >> 6] & ab[i >> 6]) >> (i & 63) & 1);
                }
            }
    }
    return n;
}

/* Fills *plan with the plan of the graph with p vertices and the q edges
   edges[2e], edges[2e + 1], in Graph.edges order, and returns 0; -1 when
   out of memory.  free(plan->order) releases its arrays. */
static int semdef_plan(int p, int q, const int *edges, Plan *plan)
{
    const int w = p / 64 + 1;
    int *buf = NULL, *tmp = calloc(4 * ((size_t)p + 1), sizeof *tmp);
    uint64_t *adj = calloc(((size_t)p + 1) * w, sizeof *adj);  /* and cand for common_pairs */
    if (!tmp || !adj)
        goto done;
    int *vdeg = tmp, *pos = tmp + p + 1, *last_nbr = tmp + 2 * (p + 1), *at = tmp + 3 * (p + 1);
    for (int e = 0; e < 2 * q; e++)
        vdeg[edges[e]]++;
    /* the order: descending degree, ties by index; pos[d] first counts the
       vertices of degree d, then holds where the next one goes */
    for (int v = 0; v < p; v++)
        pos[vdeg[v]]++;
    for (int d = p, at = 0; d >= 0; d--) {
        const int c = pos[d];
        pos[d] = at;
        at += c;
    }
    for (int v = 0; v < p; v++)
        last_nbr[v] = pos[vdeg[v]]++;  /* the position of v, for now */
    for (int v = 0; v < p; v++)
        pos[v] = last_nbr[v];
    size_t opens = 0;
    for (int i = 0; i < p; i++)
        last_nbr[i] = -1;
    for (int e = 0; e < q; e++) {
        const int a = pos[edges[2 * e]], b = pos[edges[2 * e + 1]];
        const int lo = a < b ? a : b, hi = a < b ? b : a;
        if (hi > last_nbr[lo])
            last_nbr[lo] = hi;
        adj[(size_t)lo * w + (hi >> 6)] |= bit(hi);
        adj[(size_t)hi * w + (lo >> 6)] |= bit(lo);
    }
    for (int i = 0; i < p; i++)  /* i is open at positions i+1 .. last_nbr[i] */
        opens += last_nbr[i] > i ? last_nbr[i] - i : 0;
    uint64_t *cand = adj + (size_t)p * w;
    const long long triples = common_pairs(adj, p, w, cand, at, NULL);
    if (triples > (INT_MAX - 3) / 3)
        goto done;
    buf = calloc(7 * (size_t)p + 3 + q + opens + 3 * (size_t)triples, sizeof *buf);
    if (!buf)
        goto done;
    int *order = buf, *deg = order + p, *pstart = deg + p, *prior = pstart + p + 1,
        *orbit_prev = prior + q, *inner = orbit_prev + p, *ostart = inner + p,
        *open = ostart + p + 1, *cstart = open + opens, *common = cstart + p + 1;
    *plan = (Plan){p, order, deg, pstart, prior, orbit_prev, inner, ostart, open, cstart, common};
    for (int v = 0; v < p; v++) {
        order[pos[v]] = v;
        deg[pos[v]] = vdeg[v];
    }
    /* prior lists in edge order, and the edges by their earlier end */
    for (int e = 0; e < q; e++) {
        const int a = pos[edges[2 * e]], b = pos[edges[2 * e + 1]];
        pstart[(a > b ? a : b) + 1]++;
        inner[a < b ? a : b]++;
    }
    for (int i = 0; i < p; i++)
        pstart[i + 1] += pstart[i];
    for (int i = p - 2; i >= 0; i--)
        inner[i] += inner[i + 1];
    for (int i = 0; i < p; i++)
        vdeg[i] = pstart[i];  /* the next free slot of each prior list */
    for (int e = 0; e < q; e++) {
        const int a = pos[edges[2 * e]], b = pos[edges[2 * e + 1]];
        const int lo = a < b ? a : b, hi = a < b ? b : a;
        prior[vdeg[hi]++] = lo;
    }
    /* open at i: those of i - 1, and i - 1, with a neighbour >= i */
    int *carried = pos, nc = 0;
    for (int i = 0, o = 0; i < p; i++) {
        int kept = 0;
        for (int c = 0; c < nc; c++)
            if (last_nbr[carried[c]] >= i)
                carried[kept++] = carried[c];
        nc = kept;
        for (int c = 0; c < nc; c++)
            open[o++] = carried[c];
        ostart[i + 1] = o;
        carried[nc++] = i;
    }
    for (int i = 0; i < p; i++)
        cstart[i + 1] = cstart[i] + at[i + 1];
    for (int i = 0; i < p; i++)
        at[i] = cstart[i];  /* the next free slot of each common list */
    common_pairs(adj, p, w, cand, at, common);
    if (orbits(adj, deg, p, w, orbit_prev) < 0) {
        free(buf);
        buf = NULL;
    }
done:
    free(adj);
    free(tmp);
    return buf ? 0 : -1;
}

/* The Python glue: the module semdef._dfs */

/* The most labels a search takes: 2n + 64, the bits of its bitsets, must
   fit an int; _kernel.MAX_LABELS. */
#define MAX_LABELS ((INT_MAX - 64) / 2)

/* *out = the int o, which lies in lo..hi; 0, with an exception set, when o
   is not an int (bool included) or lies outside. */
static int int_arg(PyObject *o, const char *name, long lo, long hi, int *out)
{
    if (!PyLong_CheckExact(o)) {
        PyErr_Format(PyExc_TypeError, "%s must be an int, not %.100s", name, Py_TYPE(o)->tp_name);
        return 0;
    }
    const long v = PyLong_AsLong(o);
    if (v == -1 && PyErr_Occurred())
        return 0;
    if (v < lo || v > hi) {
        PyErr_Format(PyExc_ValueError, "%s must lie in %ld..%ld, got %ld", name, lo, hi, v);
        return 0;
    }
    *out = (int)v;
    return 1;
}

/* The edges of a graph of p vertices as Graph.edges holds them, a tuple of
   pairs (u, v) of ints, 0 <= u < v < p, strictly ascending, so no loop and
   no edge twice: a malloc'd array of 2q ints, the q edges in order, with q
   in *q.  NULL, with an exception set, for any other edges or out of memory. */
static int *read_edges(PyObject *edges, int p, int *q)
{
    if (!PyTuple_Check(edges)) {
        PyErr_Format(PyExc_TypeError, "edges must be a tuple, not %.100s", Py_TYPE(edges)->tp_name);
        return NULL;
    }
    const Py_ssize_t m = PyTuple_GET_SIZE(edges);
    if (m > INT_MAX / 2) {
        PyErr_SetString(PyExc_ValueError, "too many edges");
        return NULL;
    }
    int *out = malloc((2 * (size_t)m + 1) * sizeof *out);
    if (!out)
        return (int *)PyErr_NoMemory();
    for (Py_ssize_t e = 0; e < m; e++) {
        PyObject *pair = PyTuple_GET_ITEM(edges, e);
        if (!PyTuple_Check(pair) || PyTuple_GET_SIZE(pair) != 2) {
            PyErr_Format(PyExc_TypeError, "edge %zd is not a pair (a 2-tuple)", e);
            goto fail;
        }
        int *uv = out + 2 * e;
        if (!int_arg(PyTuple_GET_ITEM(pair, 0), "an endpoint", 0, (long)p - 1, uv) ||
            !int_arg(PyTuple_GET_ITEM(pair, 1), "an endpoint", 0, (long)p - 1, uv + 1))
            goto fail;
        if (uv[0] >= uv[1] || (e && (uv[0] < uv[-2] || (uv[0] == uv[-2] && uv[1] <= uv[-1])))) {
            PyErr_Format(PyExc_ValueError, "edge %zd, (%d, %d), breaks the order of Graph.edges: "
                         "u < v, ascending, no edge twice", e, uv[0], uv[1]);
            goto fail;
        }
    }
    *q = (int)m;
    return out;
fail:
    free(out);
    return NULL;
}

/* A list of the ints a[0 .. n), or NULL with an exception set. */
static PyObject *int_list(const int *a, int n)
{
    PyObject *list = PyList_New(n);
    for (int i = 0; list && i < n; i++) {
        PyObject *x = PyLong_FromLong(a[i]);
        if (!x) {
            Py_CLEAR(list);
            break;
        }
        PyList_SET_ITEM(list, i, x);
    }
    return list;
}

static PyObject *py_solve(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    int p, t0, t1, pins, q;
    (void)module;
    if (nargs != 5) {
        PyErr_SetString(PyExc_TypeError, "solve takes 5 arguments (p, edges, t0, t1, pins)");
        return NULL;
    }
    if (!int_arg(args[0], "p", 1, MAX_LABELS, &p) ||
        !int_arg(args[2], "t0", 0, MAX_LABELS - p, &t0) ||
        !int_arg(args[3], "t1", t0, MAX_LABELS - p, &t1) ||
        !int_arg(args[4], "pins", 0, INT_MAX, &pins))
        return NULL;
    int *edges = read_edges(args[1], p, &q), *lab = malloc((size_t)p * sizeof *lab);
    if (!edges || !lab) {
        free(edges);
        free(lab);
        return edges ? PyErr_NoMemory() : NULL;
    }
    long long nodes = 0;
    int t;
    Py_BEGIN_ALLOW_THREADS
    t = semdef_solve(p, q, edges, t0, t1, pins, lab, &nodes);
    Py_END_ALLOW_THREADS
    PyObject *labels = t >= 0 ? int_list(lab, p) : Py_NewRef(Py_None);
    free(edges);
    free(lab);
    if (!labels)
        return NULL;
    return Py_BuildValue("(iNL)", t, labels, nodes);
}

static PyObject *py_plan(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    int p, q, status;
    (void)module;
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "plan takes 2 arguments (p, edges)");
        return NULL;
    }
    if (!int_arg(args[0], "p", 0, MAX_LABELS, &p))
        return NULL;
    int *edges = read_edges(args[1], p, &q);
    if (!edges)
        return NULL;
    Plan pl;
    Py_BEGIN_ALLOW_THREADS
    status = semdef_plan(p, q, edges, &pl);
    Py_END_ALLOW_THREADS
    free(edges);
    if (status < 0)
        Py_RETURN_NONE;
    /* solver._Plan's fields by name; Py_BuildValue releases each list
       passed with N, and returns NULL when one is NULL */
    PyObject *fields = Py_BuildValue(
        "{sNsNsNsNsNsNsNsNsNsN}", "order", int_list(pl.order, p), "deg", int_list(pl.deg, p),
        "pstart", int_list(pl.pstart, p + 1), "prior", int_list(pl.prior, pl.pstart[p]),
        "orbit_prev", int_list(pl.orbit_prev, p), "inner", int_list(pl.inner, p),
        "ostart", int_list(pl.ostart, p + 1), "open", int_list(pl.open, pl.ostart[p]),
        "cstart", int_list(pl.cstart, p + 1), "common", int_list(pl.common, pl.cstart[p]));
    free(pl.order);
    return fields;
}

static PyMethodDef methods[] = {
    {"solve", (PyCFunction)(void (*)(void))py_solve, METH_FASTCALL,
     "solve(p, edges, t0, t1, pins) -> (t, labels per vertex or None, nodes): the graph of p\n"
     "vertices and Graph.edges searched at t = t0..t1 up to the first witness; t is -1\n"
     "when there is none, -2 when the plan and -3 when the tables could not be allocated."},
    {"plan", (PyCFunction)(void (*)(void))py_plan, METH_FASTCALL,
     "plan(p, edges) -> solver._Plan's fields as lists, keyed by their names, or None when\n"
     "the plan could not be allocated."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module_def = {
    PyModuleDef_HEAD_INIT, "semdef._dfs",
    "The compiled search kernel of semdef: solve and plan (see semdef._kernel).", 0, methods,
    NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC PyInit__dfs(void)
{
    return PyModuleDef_Init(&module_def);
}
