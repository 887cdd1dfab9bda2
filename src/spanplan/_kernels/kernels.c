/* Compiled search kernels, opened through ctypes by loader.py.
 *
 * A mirror of pure.py: every cost is computed with the same operations in
 * the same order, so results are bit-for-bit equal to the reference.  Build
 * with -ffp-contract=off so that no a * b + c is fused into one rounding.
 * Vertex sets are bitmasks; the 25-table graph cap keeps them below 2^32.
 * Every entry point returns one of the status codes below.
 */
#define _POSIX_C_SOURCE 199309L
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

enum { OK, TIMEOUT, MISSING, NOMEM };

typedef uint64_t mask_t;

typedef struct {               /* pure.Instance, flattened by loader.py */
    int n, n_edges, n_cards, n_pairs;
    double lam;
    const int *edge_u, *edge_v;
    const double *scan;
    const int8_t *indexed;
    const mask_t *card_mask;   /* inst.cards as parallel key/value arrays */
    const double *card_val;
    const mask_t *pair_mask;   /* inst.pair_inner likewise */
    const int *pair_inner;
    double *cards;             /* dense copy of inst.cards, NaN where absent */
    mask_t missing;            /* the absent cardinality a kernel stopped on */
} problem;

typedef struct { double cost, out; int op, side; } join;

#define SINGLE(m) (((m) & ((m) - 1)) == 0)
#define BIT(m) __builtin_ctzll(m)

/* The clock of time.perf_counter, in the same units. */
static double now(void) {
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)((int64_t)ts.tv_sec * 1000000000 + ts.tv_nsec) / 1e9;
}

/* Spread inst.cards over a table indexed by mask.  A cardinality is never
 * NaN, so NaN marks a mask that pure would raise KeyError on. */
static int open_cards(problem *p) {
    mask_t size = (mask_t)1 << p->n;
    p->cards = malloc(size * sizeof *p->cards);
    if (!p->cards)
        return NOMEM;
    for (mask_t m = 0; m < size; m++)
        p->cards[m] = NAN;
    for (int i = 0; i < p->n_cards; i++)
        if (p->card_mask[i] < size)
            p->cards[p->card_mask[i]] = p->card_val[i];
    return OK;
}

static int close_cards(problem *p, int rc) {
    free(p->cards);
    p->cards = NULL;
    return rc;
}

static int card(problem *p, mask_t m, double *c) {
    *c = p->cards[m];
    if (isnan(*c)) {
        p->missing = m;
        return MISSING;
    }
    return OK;
}

static int pair_inner(const problem *p, mask_t m) {
    for (int i = 0; i < p->n_pairs; i++)
        if (p->pair_mask[i] == m)
            return p->pair_inner[i];
    return -1;
}

/* pure.merge */
static int merge(problem *p, mask_t l, mask_t r, join *j) {
    int l_single = SINGLE(l), r_single = SINGLE(r), op = 0, side, inner = -1;
    double out, lc, rc, cost, outer_card, inl;

    if (card(p, l | r, &out) || card(p, l, &lc) || card(p, r, &rc))
        return MISSING;
    /* Hash join: build on the smaller input, ties toward the smaller mask. */
    side = !(lc < rc || (lc == rc && l < r));
    cost = out + (side ? rc : lc);
    if (l_single)
        cost = cost + p->scan[BIT(l)];
    if (r_single)
        cost = cost + p->scan[BIT(r)];

    if (l_single && r_single)
        inner = pair_inner(p, l | r);
    else if (r_single)
        inner = BIT(r);
    else if (l_single)
        inner = BIT(l);
    if (inner >= 0 && p->indexed[inner]) {
        mask_t inner_mask = (mask_t)1 << inner;
        mask_t outer = inner_mask == l ? r : l;
        if (card(p, outer, &outer_card))
            return MISSING;
        inl = outer_card > 0.0 ? p->lam * (out >= outer_card ? out : outer_card) : 0.0;
        if (SINGLE(outer))
            inl = inl + p->scan[BIT(outer)];
        if (inl < cost) {
            cost = inl;
            op = 1;
            side = inner_mask == l ? 0 : 1;
        }
    }
    *j = (join){ cost, out, op, side };
    return OK;
}

int sp_merge(problem *p, mask_t l, mask_t r, join *j) {
    int rc = open_cards(p);
    return close_cards(p, rc ? rc : merge(p, l, r, j));
}

static int connected(const mask_t *adj, mask_t mask) {
    mask_t reach = mask & -mask, frontier = reach;
    while (frontier) {
        mask_t grow = adj[BIT(frontier)] & mask & ~reach;
        frontier &= frontier - 1;
        reach |= grow;
        frontier |= grow;
    }
    return reach == mask;
}

/* pure.dp_search.  counts receives (subplans, splits, choices); choices
 * receives (mask, left submask, op, side) per subset with a plan, and has
 * room for one per entry of inst.cards, since each such subset has one. */
int sp_dp_search(problem *p, double bound, double deadline, double *root,
                 int64_t counts[3], mask_t *choices) {
    mask_t full = ((mask_t)1 << p->n) - 1, mask, s1, low;
    mask_t *adj = calloc(p->n, sizeof *adj), *nbr = malloc((full + 1) * sizeof *nbr);
    double *best = malloc((full + 1) * sizeof *best);  /* INFINITY: no plan yet */
    int64_t checked = 0;
    int rc = adj && nbr && best ? open_cards(p) : NOMEM;

    counts[0] = counts[1] = counts[2] = 0;
    if (rc == OK) {
        for (int e = 0; e < p->n_edges; e++) {
            adj[p->edge_u[e]] |= (mask_t)1 << p->edge_v[e];
            adj[p->edge_v[e]] |= (mask_t)1 << p->edge_u[e];
        }
        nbr[0] = 0;
        for (mask = 1; mask <= full; mask++) {
            low = mask & -mask;
            nbr[mask] = nbr[mask ^ low] | adj[BIT(low)];
            best[mask] = SINGLE(mask) ? 0.0 : INFINITY;
        }
    }
    for (mask = 1; rc == OK && mask <= full; mask++) {
        double best_cost = INFINITY;
        mask_t best_s1 = 0;
        join j, best_j;
        int touched = 0;
        if (SINGLE(mask) || !connected(adj, mask))
            continue;
        checked++;
        if (deadline != 0.0 && checked % 1024 == 0 && now() > deadline) {
            rc = TIMEOUT;
            break;
        }
        low = mask & -mask;
        /* Canonical split order: s1 descends and always contains the low bit. */
        for (s1 = (mask - 1) & mask; s1; s1 = (s1 - 1) & mask) {
            mask_t s2 = mask ^ s1;
            double c1 = best[s1], c2 = best[s2], total;
            if (!(s1 & low) || !(c1 < INFINITY && c2 < INFINITY && c1 <= bound
                                 && c2 <= bound && (nbr[s1] & s2)))
                continue;
            counts[1]++;
            touched = 1;
            if ((rc = merge(p, s1, s2, &j)))
                break;
            total = j.cost + c1 + c2;
            if (total < best_cost) {
                best_cost = total;
                best_s1 = s1;
                best_j = j;
            }
        }
        counts[0] += touched;
        if (rc == OK && best_s1) {
            mask_t choice[4] = { mask, best_s1, best_j.op, best_j.side };
            memcpy(choices + 4 * counts[2]++, choice, sizeof choice);
            best[mask] = best_cost;
        }
    }
    if (rc == OK)
        *root = best[full];
    free(adj);
    free(nbr);
    free(best);
    return close_cards(p, rc);
}

/* Open-addressing hash map from nonzero keys to doubles; key 0 is a free slot. */
typedef struct { mask_t *key; double *val; size_t cap, len; } table;

static size_t slot(const table *t, mask_t key) {
    size_t i = (size_t)((key * 0x9E3779B97F4A7C15u) >> 32) & (t->cap - 1);
    while (t->key[i] && t->key[i] != key)
        i = (i + 1) & (t->cap - 1);
    return i;
}

static double *get(const table *t, mask_t key) {
    size_t i;
    if (!t->cap)
        return NULL;
    i = slot(t, key);
    return t->key[i] == key ? &t->val[i] : NULL;
}

/* key must be absent */
static int put(table *t, mask_t key, double val) {
    size_t i;
    if (2 * (t->len + 1) > t->cap) {
        size_t cap = t->cap ? 2 * t->cap : 64;
        table big = { calloc(cap, sizeof(mask_t)), malloc(cap * sizeof(double)), cap, 0 };
        if (!big.key || !big.val) {
            free(big.key);
            free(big.val);
            return NOMEM;
        }
        for (i = 0; i < t->cap; i++)
            if (t->key[i])
                put(&big, t->key[i], t->val[i]);
        free(t->key);
        free(t->val);
        *t = big;
    }
    i = slot(t, key);
    t->key[i] = key;
    t->val[i] = val;
    t->len++;
    return OK;
}

/* One depth-first walk over ordered edge arrangements, shared by
 * count_trees and brute_search.  Only the latter sets p and prices joins. */
typedef struct {
    problem *p;
    int n_edges, slots;
    const int *edge_u, *edge_v;
    int *parent;
    int8_t *used;
    int64_t *ff;              /* ff[u * (slots + 1) + s]: ways to fill s slots from u edges */
    int64_t counts[7];        /* valid, invalid, linear, bushy, subplans, splits, evals */
    int64_t nodes;
    double deadline;
    mask_t *comp_mask;        /* brute search: each root's component and its cost */
    double *comp_cost;
    int *seq, *best_seq;
    double best;
    table memo;               /* (smaller mask << 32 | larger mask) -> merge cost */
} walk;

static int find(const int *parent, int x) {
    while (parent[x] != x)
        x = parent[x];
    return x;
}

static int memo_merge(walk *w, mask_t lm, mask_t rm, double *inc) {
    mask_t a = lm < rm ? lm : rm, b = lm < rm ? rm : lm, key = a << 32 | b;
    double *hit = get(&w->memo, key);
    join j;
    w->counts[6]++;
    if (hit) {
        *inc = *hit;
        return OK;
    }
    if (merge(w->p, a, b, &j))
        return MISSING;
    *inc = j.cost;
    return put(&w->memo, key, j.cost);
}

static int step(walk *w, int depth, mask_t touched, int touched_cnt, int linear) {
    int remaining = w->slots - depth, unused = w->n_edges - depth, rc;
    w->nodes++;
    if (w->deadline != 0.0 && w->nodes % 4096 == 0 && now() > w->deadline)
        return TIMEOUT;
    for (int e = 0; e < w->n_edges; e++) {
        int u = w->edge_u[e], v = w->edge_v[e], ru, rv, cnt, new_linear;
        mask_t lm = 0, saved_mask = 0;
        double inc, new_cost = 0.0, saved_cost = 0.0;
        if (w->used[e])
            continue;
        ru = find(w->parent, u);
        rv = find(w->parent, v);
        if (ru == rv) {
            w->counts[1] += w->ff[(unused - 1) * (w->slots + 1) + remaining - 1];
            continue;
        }
        if (w->p) {
            lm = w->comp_mask[ru];
            if ((rc = memo_merge(w, lm, w->comp_mask[rv], &inc)))
                return rc;
            new_cost = inc + w->comp_cost[ru] + w->comp_cost[rv];
            saved_mask = w->comp_mask[rv];
            saved_cost = w->comp_cost[rv];
            w->comp_mask[rv] = lm | saved_mask;
            w->comp_cost[rv] = new_cost;
            w->seq[depth] = e;
        }
        w->parent[ru] = rv;
        w->used[e] = 1;
        cnt = touched_cnt + !((touched >> u) & 1) + !((touched >> v) & 1);
        new_linear = linear && cnt - (depth + 1) == 1;
        if (depth + 1 == w->slots) {
            w->counts[0]++;
            w->counts[new_linear ? 2 : 3]++;
            if (w->p && new_cost < w->best) {
                w->best = new_cost;
                memcpy(w->best_seq, w->seq, w->slots * sizeof *w->seq);
            }
        } else if ((rc = step(w, depth + 1, touched | (mask_t)1 << u | (mask_t)1 << v,
                              cnt, new_linear))) {
            return rc;
        }
        w->used[e] = 0;
        w->parent[ru] = ru;
        if (w->p) {
            w->comp_mask[rv] = saved_mask;
            w->comp_cost[rv] = saved_cost;
        }
    }
    return OK;
}

static int run_walk(walk *w) {
    int n = w->slots + 1, n_edges = w->n_edges, slots = w->slots, rc = OK;
    table unions = { 0 };
    if (slots == 0) {
        w->counts[0] = w->counts[2] = 1;
        w->best = 0.0;
        return OK;
    }
    w->parent = malloc(n * sizeof *w->parent);
    w->used = calloc(n_edges, sizeof *w->used);
    w->ff = malloc((size_t)(n_edges + 1) * (slots + 1) * sizeof *w->ff);
    w->comp_mask = malloc(n * sizeof *w->comp_mask);
    w->comp_cost = malloc(n * sizeof *w->comp_cost);
    w->seq = malloc(slots * sizeof *w->seq);
    if (!w->parent || !w->used || !w->ff || !w->comp_mask || !w->comp_cost || !w->seq)
        rc = NOMEM;
    else if (w->p)
        rc = open_cards(w->p);
    if (rc == OK) {
        for (int u = 0; u <= n_edges; u++) {
            w->ff[u * (slots + 1)] = 1;
            for (int s = 1; s <= slots; s++)
                w->ff[u * (slots + 1) + s] = u < s ? 0 : w->ff[(u - 1) * (slots + 1) + s - 1] * u;
        }
        for (int v = 0; v < n; v++) {
            w->parent[v] = v;
            w->comp_mask[v] = (mask_t)1 << v;
            w->comp_cost[v] = 0.0;
        }
        rc = step(w, 0, 0, 0, 1);
    }
    for (size_t i = 0; rc == OK && i < w->memo.cap; i++) {
        mask_t key = w->memo.key[i], merged = (key >> 32) | (key & 0xFFFFFFFFu);
        if (key && !get(&unions, merged))
            rc = put(&unions, merged, 0.0);
    }
    w->counts[4] = (int64_t)unions.len;
    w->counts[5] = (int64_t)w->memo.len;
    free(unions.key);
    free(unions.val);
    free(w->memo.key);
    free(w->memo.val);
    free(w->parent);
    free(w->used);
    free(w->ff);
    free(w->comp_mask);
    free(w->comp_cost);
    free(w->seq);
    return w->p ? close_cards(w->p, rc) : rc;
}

/* pure.count_trees; counts receives (valid, invalid, linear, bushy). */
int sp_count_trees(int n, int n_edges, const int *edge_u, const int *edge_v,
                   double deadline, int64_t counts[4]) {
    walk w = { .n_edges = n_edges, .slots = n - 1, .edge_u = edge_u, .edge_v = edge_v,
               .deadline = deadline };
    int rc = run_walk(&w);
    memcpy(counts, w.counts, 4 * sizeof *counts);
    return rc;
}

/* pure.brute_search; counts receives the seven counters after best_seq. */
int sp_brute_search(problem *p, double deadline, double *best, int *best_seq,
                    int64_t counts[7]) {
    walk w = { .p = p, .n_edges = p->n_edges, .slots = p->n - 1, .edge_u = p->edge_u,
               .edge_v = p->edge_v, .deadline = deadline, .best_seq = best_seq,
               .best = INFINITY };
    int rc = run_walk(&w);
    *best = w.best;
    memcpy(counts, w.counts, sizeof w.counts);
    return rc;
}
