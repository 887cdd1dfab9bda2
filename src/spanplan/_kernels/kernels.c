/* Compiled search kernels, opened through ctypes by loader.py.
 *
 * A mirror of the Python kernels: merge (with the join_cost it inlines) and
 * model_product mirror formula.py, the package's one Python cost formula;
 * greedy_search, dp_search, count_trees and brute_search mirror pure.py.
 * Every cost is computed with the same operations in the same order, so
 * results are bit-for-bit equal to the reference.
 * Build with -ffp-contract=off so that no a * b + c is fused into one
 * rounding.  Vertex sets are bitmasks; the 25-table graph cap keeps them
 * below 2^32.  Every entry point returns one of the status codes below.
 */
#define _POSIX_C_SOURCE 199309L
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

enum { OK, TIMEOUT, MISSING, NOMEM };

typedef uint64_t mask_t;

/* Open-addressing hash map from nonzero keys to values; key 0 is a free slot. */
typedef union { double d; mask_t m; } value;
typedef struct { mask_t *key; value *val; size_t cap, len; } table;

static size_t slot(const table *t, mask_t key) {
    size_t i = (size_t)((key * 0x9E3779B97F4A7C15u) >> 32) & (t->cap - 1);
    while (t->key[i] && t->key[i] != key)
        i = (i + 1) & (t->cap - 1);
    return i;
}

static value *get(const table *t, mask_t key) {
    size_t i;
    if (!t->cap)
        return NULL;
    i = slot(t, key);
    return t->key[i] == key ? &t->val[i] : NULL;
}

/* key must be absent */
static int put(table *t, mask_t key, value val) {
    size_t i;
    if (2 * (t->len + 1) > t->cap) {
        size_t cap = t->cap ? 2 * t->cap : 64;
        table big = { calloc(cap, sizeof(mask_t)), malloc(cap * sizeof(value)), cap, 0 };
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

static void drop(table *t) {
    free(t->key);
    free(t->val);
    *t = (table){ 0 };
}

/* The number of distinct unions a | b over a table of (a << 32 | b) keys. */
static int count_unions(const table *pairs, int64_t *count) {
    table unions = { 0 };
    int rc = OK;
    for (size_t i = 0; rc == OK && i < pairs->cap; i++) {
        mask_t key = pairs->key[i], merged = (key >> 32) | (key & 0xFFFFFFFFu);
        if (key && !get(&unions, merged))
            rc = put(&unions, merged, (value){ 0 });
    }
    *count = (int64_t)unions.len;
    drop(&unions);
    return rc;
}

typedef struct {               /* formula.Instance, flattened by loader.py */
    int n, n_edges, n_cards, n_pairs;
    double lam;
    const int *edge_u, *edge_v;
    const double *scan;
    const int8_t *indexed;
    const mask_t *card_mask;   /* inst.cards (for greedy_search, inst.catalog) */
    const double *card_val;    /* as parallel key/value arrays */
    const mask_t *pair_mask;   /* inst.pair_inner likewise */
    const int *pair_inner;
    const double *bases, *sels;  /* inst.model as per-vertex and per-edge arrays, or NULL */
    /* Set by the kernels: */
    double *cards;             /* dense copy of inst.cards, NaN where absent, */
    table *memo;               /* or else greedy_search's sparse cardinalities */
    mask_t missing;            /* the cardinality a kernel could not get */
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

/* formula.model_product */
static double model_product(const problem *p, mask_t m) {
    double prod = 1.0;
    for (mask_t rest = m; rest; rest &= rest - 1)
        prod *= p->bases[BIT(rest)];
    for (int e = 0; e < p->n_edges; e++) {
        mask_t edge = (mask_t)1 << p->edge_u[e] | (mask_t)1 << p->edge_v[e];
        if ((m & edge) == edge)
            prod *= p->sels[e];
    }
    return prod;
}

/* A cardinality from the dense table, or else from the sparse memo, which
 * computes a model's masks on first use (pure._Cards). */
static int card(problem *p, mask_t m, double *c) {
    value *hit;
    if (p->cards)
        *c = p->cards[m];
    else if ((hit = get(p->memo, m)))
        *c = hit->d;
    else if (!p->bases)
        *c = NAN;  /* absent from the catalog */
    else if ((*c = model_product(p, m)) == INFINITY)
        *c = NAN;
    else {
        *c = ceil(*c);
        return put(p->memo, m, (value){ .d = *c });
    }
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

/* formula.merge and formula.join_cost */
static int merge(problem *p, mask_t l, mask_t r, join *j) {
    int l_single = SINGLE(l), r_single = SINGLE(r), op = 0, side, inner = -1;
    double out, lc, rc, cost, outer_card, inl;
    int status;

    if ((status = card(p, l | r, &out)) || (status = card(p, l, &lc)) || (status = card(p, r, &rc)))
        return status;
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
        if ((status = card(p, outer, &outer_card)))
            return status;
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

/* Interned byte strings of one width, each with a value: greedy_search's
 * kruskal states (a partition, as each vertex's lowest component vertex)
 * and its distinct member plans (canonical encodings). */
typedef struct {
    size_t width, len, cap;    /* cap: slots, a power of two; room for cap / 2 strings */
    unsigned char *data;       /* the strings, in insertion order */
    int64_t *val;
    size_t *slot;              /* string index + 1, or 0 for a free slot */
} strings;

static uint64_t hash_bytes(const unsigned char *s, size_t n) {
    uint64_t h = 0xCBF29CE484222325u;
    for (size_t i = 0; i < n; i++)
        h = (h ^ s[i]) * 0x100000001B3u;
    return h;
}

static size_t string_slot(const strings *t, const unsigned char *s) {
    size_t i = (size_t)hash_bytes(s, t->width) & (t->cap - 1);
    while (t->slot[i] && memcmp(t->data + (t->slot[i] - 1) * t->width, s, t->width))
        i = (i + 1) & (t->cap - 1);
    return i;
}

/* The index of s, which is added when absent; *fresh tells which. */
static int intern(strings *t, const void *s, size_t *index, int *fresh) {
    size_t i;
    if (2 * (t->len + 1) > t->cap) {
        size_t cap = t->cap ? 2 * t->cap : 64;
        unsigned char *data = realloc(t->data, cap / 2 * t->width + 1);
        int64_t *val = data ? realloc(t->val, cap / 2 * sizeof *val) : NULL;
        size_t *slot = val ? calloc(cap, sizeof *slot) : NULL;
        if (data)
            t->data = data;
        if (val)
            t->val = val;
        if (!slot)
            return NOMEM;
        free(t->slot);
        t->slot = slot;
        t->cap = cap;
        for (size_t k = 0; k < t->len; k++)
            t->slot[string_slot(t, t->data + k * t->width)] = k + 1;
    }
    i = string_slot(t, s);
    *fresh = !t->slot[i];
    if (*fresh) {
        memcpy(t->data + t->len * t->width, s, t->width);
        t->slot[i] = ++t->len;
    }
    *index = t->slot[i] - 1;
    return OK;
}

static void drop_strings(strings *t) {
    free(t->data);
    free(t->val);
    free(t->slot);
}

typedef struct { double cost; int edge, stamp; } entry;  /* kruskal's heap */

static int before(const entry *a, const entry *b) {
    if (a->cost != b->cost)
        return a->cost < b->cost;
    return a->edge != b->edge ? a->edge < b->edge : a->stamp < b->stamp;
}

static void heap_push(entry *heap, int *len, entry e) {
    int i = (*len)++;
    while (i > 0 && before(&e, &heap[(i - 1) / 2])) {
        heap[i] = heap[(i - 1) / 2];
        i = (i - 1) / 2;
    }
    heap[i] = e;
}

static entry heap_pop(entry *heap, int *len) {
    entry top = heap[0], last = heap[--*len];
    int i = 0, child;
    while ((child = 2 * i + 1) < *len) {
        if (child + 1 < *len && before(&heap[child + 1], &heap[child]))
            child++;
        if (!before(&heap[child], &last))
            break;
        heap[i] = heap[child];
        i = child;
    }
    heap[i] = last;
    return top;
}

typedef struct { mask_t l, r; int edge, op, side; } step_t;

/* pure._Greedy: the state the members of one search share, and the
 * scratch space of the member being run. */
typedef struct {
    problem *p;
    double deadline;
    int n, n_edges, words;     /* words: 64-bit words in an edge bitset */
    mask_t full;
    uint64_t *incident;        /* per vertex, its edges as a bitset of edge ids */
    table cards, splits;       /* splits: (smaller << 32 | larger) */
    table prim_next;           /* component -> edge << 32 | outside vertex */
    strings kruskal_next, plans;
    entry *opening, *heap;     /* kruskal's first heap, once priced; a member's heap */
    int opened, *stamps;
    mask_t *comp_of, *enc, *best_enc;
    double *cost_of;
    uint8_t *labels;
    step_t *steps, *best_steps;
    int n_steps;
    int64_t evals, states;
} greedy;

static int past(double deadline) {
    return deadline != 0.0 && now() > deadline;
}

/* Count a state whose choice is priced; every 16th reads the clock. */
static int new_state(greedy *g) {
    return ++g->states % 16 == 0 && past(g->deadline) ? TIMEOUT : OK;
}

/* A candidate join's step cost, recorded as one evaluation of a split. */
static int price(greedy *g, mask_t l, mask_t r, double *cost) {
    mask_t key = l < r ? l << 32 | r : r << 32 | l;
    join j;
    int rc = merge(g->p, l, r, &j);
    if (rc)
        return rc;
    *cost = j.cost;
    g->evals++;
    return get(&g->splits, key) ? OK : put(&g->splits, key, (value){ 0 });
}

/* Append a join to the member's plan; *total becomes the joined subtree's cost. */
static int add_step(greedy *g, int edge, mask_t l, mask_t r, double l_cost, double r_cost,
                    double *total) {
    join j;
    int rc = merge(g->p, l, r, &j);
    if (rc)
        return rc;
    g->steps[g->n_steps++] = (step_t){ l, r, edge, j.op, j.side };
    *total = j.cost + l_cost + r_cost;
    return OK;
}

/* pure._Greedy.prim */
static int prim(greedy *g, int start, double *total) {
    const int *eu = g->p->edge_u, *ev = g->p->edge_v;
    int first = -1, rc;
    double best = 0.0, cost;
    mask_t component;

    *total = 0.0;
    if (g->n == 1)
        return OK;  /* no edge to open with */
    for (int e = start < 0 ? 0 : start; e < (start < 0 ? g->n_edges : start + 1); e++) {
        if ((rc = price(g, (mask_t)1 << eu[e], (mask_t)1 << ev[e], &cost)))
            return rc;
        if (first < 0 || cost < best) {
            best = cost;
            first = e;
        }
    }
    component = (mask_t)1 << eu[first] | (mask_t)1 << ev[first];
    if ((rc = add_step(g, first, (mask_t)1 << eu[first], (mask_t)1 << ev[first], 0.0, 0.0, total)))
        return rc;
    while (component != g->full) {
        value *hit = get(&g->prim_next, component);
        mask_t choice = 0, outside, seen = 0;
        if (hit) {
            choice = hit->m;
        } else {
            int chosen = -1;
            if ((rc = new_state(g)))
                return rc;
            /* The first strictly cheapest candidate in edge-id order wins.
             * Later edges to an outside vertex already priced repeat the
             * same join, so they can never be strictly cheaper. */
            for (int e = 0; e < g->n_edges; e++) {
                mask_t in_u = (component >> eu[e]) & 1;
                if (in_u == ((component >> ev[e]) & 1))
                    continue;  /* inside the component or not adjacent to it */
                outside = (mask_t)1 << (in_u ? ev[e] : eu[e]);
                if (outside & seen)
                    continue;
                seen |= outside;
                if ((rc = price(g, component, outside, &cost)))
                    return rc;
                if (chosen < 0 || cost < best) {
                    best = cost;
                    chosen = e;
                    choice = (mask_t)e << 32 | (mask_t)BIT(outside);
                }
            }
            if ((rc = put(&g->prim_next, component, (value){ .m = choice })))
                return rc;
        }
        outside = (mask_t)1 << (choice & 0xFFFFFFFFu);
        if ((rc = add_step(g, (int)(choice >> 32), component, outside, *total, 0.0, total)))
            return rc;
        component |= outside;
    }
    return OK;
}

/* Join the components of the edge's ends (left, right); *merged becomes
 * the joined component. */
static int kruskal_join(greedy *g, int edge, mask_t *merged) {
    int u = g->p->edge_u[edge], v = g->p->edge_v[edge], rc;
    mask_t l = g->comp_of[u], r = g->comp_of[v];
    double cost;
    if ((rc = add_step(g, edge, l, r, g->cost_of[u], g->cost_of[v], &cost)))
        return rc;
    *merged = l | r;
    for (mask_t rest = *merged; rest; rest &= rest - 1) {
        g->comp_of[BIT(rest)] = *merged;
        g->cost_of[BIT(rest)] = cost;
    }
    return OK;
}

/* pure._Greedy.kruskal */
static int kruskal(greedy *g, int start, double *total) {
    const int *eu = g->p->edge_u, *ev = g->p->edge_v;
    int len = g->n_edges, rc, fresh;
    mask_t merged = 0;
    size_t index;
    double cost;

    for (int v = 0; v < g->n; v++) {
        g->comp_of[v] = (mask_t)1 << v;
        g->cost_of[v] = 0.0;
    }
    memset(g->stamps, 0, g->n_edges * sizeof *g->stamps);
    if (!g->opened) {  /* every single-edge join, priced once per search */
        int opened = 0;
        for (int e = 0; e < g->n_edges; e++) {
            if ((rc = price(g, (mask_t)1 << eu[e], (mask_t)1 << ev[e], &cost)))
                return rc;
            heap_push(g->opening, &opened, (entry){ cost, e, 0 });
        }
        g->opened = 1;
    }
    memcpy(g->heap, g->opening, g->n_edges * sizeof *g->heap);
    /* merged: the component made by the last join, whose candidates have
     * not been re-priced yet; 0 before the first join. */
    if (start >= 0 && (rc = kruskal_join(g, start, &merged)))
        return rc;
    while (g->comp_of[0] != g->full) {
        int edge;
        for (int v = 0; v < g->n; v++)
            g->labels[v] = (uint8_t)BIT(g->comp_of[v]);
        if ((rc = intern(&g->kruskal_next, g->labels, &index, &fresh)))
            return rc;
        if (!fresh) {
            edge = (int)g->kruskal_next.val[index];
        } else {
            entry top;
            if ((rc = new_state(g)))
                return rc;
            if (merged) {
                /* Re-price the edges leaving the merged component, in edge-id
                 * order, through its vertices' incident edges. */
                for (int w = 0; w < g->words; w++) {
                    uint64_t crossing = 0;
                    for (mask_t rest = merged; rest; rest &= rest - 1)
                        crossing |= g->incident[BIT(rest) * g->words + w];
                    for (; crossing; crossing &= crossing - 1) {
                        int e = 64 * w + __builtin_ctzll(crossing);
                        mask_t c1 = g->comp_of[eu[e]], c2 = g->comp_of[ev[e]];
                        if (c1 == c2)
                            continue;
                        if ((rc = price(g, c1, c2, &cost)))
                            return rc;
                        heap_push(g->heap, &len, (entry){ cost, e, ++g->stamps[e] });
                    }
                }
            }
            /* Skip stale entries and edges now inside one component (those
             * become filters). */
            do
                top = heap_pop(g->heap, &len);
            while (top.stamp != g->stamps[top.edge]
                   || g->comp_of[eu[top.edge]] == g->comp_of[ev[top.edge]]);
            edge = top.edge;
            g->kruskal_next.val[index] = edge;
        }
        if ((rc = kruskal_join(g, edge, &merged)))
            return rc;
    }
    *total = g->cost_of[0];
    return OK;
}

static int by_result(const void *a, const void *b) {
    mask_t x = *(const mask_t *)a, y = *(const mask_t *)b;
    return (x > y) - (x < y);
}

/* pure._encoding: six values per step, sorted by the joined subset (each
 * step's is distinct). */
static void encode(const step_t *steps, int n_steps, mask_t *enc) {
    for (int i = 0; i < n_steps; i++) {
        step_t s = steps[i];
        mask_t item[6] = { s.l | s.r, s.l < s.r ? s.l : s.r, s.l < s.r ? s.r : s.l,
                           (mask_t)s.edge, (mask_t)s.op, s.side ? s.r : s.l };
        memcpy(enc + 6 * i, item, sizeof item);
    }
    qsort(enc, n_steps, 6 * sizeof *enc, by_result);
}

static int compare_encodings(const mask_t *a, const mask_t *b, int n) {
    for (int i = 0; i < n; i++)
        if (a[i] != b[i])
            return a[i] < b[i] ? -1 : 1;
    return 0;
}

static int greedy_open(greedy *g) {
    int n = g->n, n_edges = g->n_edges, rc = OK;
    size_t heap_cap = (size_t)n_edges * n + 1, enc_len = 6 * (size_t)(n - 1) + 1;
    g->p->cards = NULL;
    g->p->memo = &g->cards;
    g->words = (n_edges + 63) / 64;
    g->full = ((mask_t)1 << n) - 1;
    g->kruskal_next.width = n;
    g->plans.width = 6 * (size_t)(n - 1) * sizeof *g->enc;
    g->incident = calloc((size_t)n * g->words + 1, sizeof *g->incident);
    g->opening = malloc((n_edges + 1) * sizeof *g->opening);
    g->heap = malloc(heap_cap * sizeof *g->heap);
    g->stamps = malloc((n_edges + 1) * sizeof *g->stamps);
    g->comp_of = malloc(n * sizeof *g->comp_of);
    g->cost_of = malloc(n * sizeof *g->cost_of);
    g->labels = malloc(n);
    g->enc = malloc(enc_len * sizeof *g->enc);
    g->best_enc = malloc(enc_len * sizeof *g->best_enc);
    g->steps = malloc(n * sizeof *g->steps);
    g->best_steps = malloc(n * sizeof *g->best_steps);
    if (!g->incident || !g->opening || !g->heap || !g->stamps || !g->comp_of || !g->cost_of
        || !g->labels || !g->enc || !g->best_enc || !g->steps || !g->best_steps)
        return NOMEM;
    for (int e = 0; e < n_edges; e++) {
        g->incident[g->p->edge_u[e] * g->words + e / 64] |= (uint64_t)1 << (e % 64);
        g->incident[g->p->edge_v[e] * g->words + e / 64] |= (uint64_t)1 << (e % 64);
    }
    for (int i = 0; rc == OK && i < g->p->n_cards; i++)  /* a catalog's entries */
        if (g->p->card_mask[i] && !get(&g->cards, g->p->card_mask[i]))
            rc = put(&g->cards, g->p->card_mask[i], (value){ .d = g->p->card_val[i] });
    return rc;
}

static int greedy_close(greedy *g, int rc) {
    drop(&g->cards);
    drop(&g->splits);
    drop(&g->prim_next);
    drop_strings(&g->kruskal_next);
    drop_strings(&g->plans);
    free(g->incident);
    free(g->opening);
    free(g->heap);
    free(g->stamps);
    free(g->comp_of);
    free(g->cost_of);
    free(g->labels);
    free(g->enc);
    free(g->best_enc);
    free(g->steps);
    free(g->best_steps);
    g->p->memo = NULL;
    return rc;
}

/* pure.greedy_search.  runs holds (kind, start edge or -1) pairs; joins
 * receives the winner's (edge, left mask, right mask) per step and counts
 * (subplans, splits, evals, plans). */
int sp_greedy_search(problem *p, const int *runs, int n_runs, double deadline, double *cost,
                     mask_t *joins, int64_t counts[4]) {
    greedy g = { .p = p, .deadline = deadline, .n = p->n, .n_edges = p->n_edges };
    int rc = greedy_open(&g), best_steps = -1;
    double best = 0.0, total;

    for (int k = 0; rc == OK && k < n_runs; k++) {
        size_t index;
        int fresh, n_enc;
        if (k && past(deadline)) {
            rc = TIMEOUT;
            break;
        }
        g.n_steps = 0;
        rc = runs[2 * k] == 0 ? prim(&g, runs[2 * k + 1], &total)
                              : kruskal(&g, runs[2 * k + 1], &total);
        if (rc)
            break;
        encode(g.steps, g.n_steps, g.enc);
        if ((rc = intern(&g.plans, g.enc, &index, &fresh)))
            break;
        n_enc = 6 * g.n_steps;
        if (best_steps < 0 || total < best
            || (total == best && compare_encodings(g.enc, g.best_enc, n_enc) < 0)) {
            best = total;
            best_steps = g.n_steps;
            memcpy(g.best_steps, g.steps, g.n_steps * sizeof *g.steps);
            memcpy(g.best_enc, g.enc, n_enc * sizeof *g.enc);
        }
    }
    if (rc == OK) {
        *cost = best;
        for (int i = 0; i < best_steps; i++) {
            mask_t step[3] = { (mask_t)g.best_steps[i].edge, g.best_steps[i].l, g.best_steps[i].r };
            memcpy(joins + 3 * i, step, sizeof step);
        }
        rc = count_unions(&g.splits, &counts[0]);
        counts[1] = (int64_t)g.splits.len;
        counts[2] = g.evals;
        counts[3] = (int64_t)g.plans.len;
    }
    return greedy_close(&g, rc);
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
    value *hit = get(&w->memo, key);
    join j;
    int rc;
    w->counts[6]++;
    if (hit) {
        *inc = hit->d;
        return OK;
    }
    if ((rc = merge(w->p, a, b, &j)))
        return rc;
    *inc = j.cost;
    return put(&w->memo, key, (value){ .d = j.cost });
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
    if (rc == OK)
        rc = count_unions(&w->memo, &w->counts[4]);
    w->counts[5] = (int64_t)w->memo.len;
    drop(&w->memo);
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
