/* Compiled search kernels, opened through ctypes by loader.py.
 *
 * A mirror of the Python kernels: merge (with the join_cost it inlines) and
 * model_product mirror formula.py, the package's one Python cost formula;
 * model_cards, greedy_search, dp_search and brute_search mirror pure.py.
 * (count_trees has no C kernel: every backend counts in closed form in
 * trees.py, whose Python ints stay exact where int64 would overflow.)
 * The three searches write the winner's cost and its joins as (edge, left
 * mask, right mask) triples, in replay order.  No kernel takes or returns
 * what can be derived: oracle.py derives the invalid and bushy counts.
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

/* Open-addressing hash map from nonzero keys to doubles; key 0 is a free
 * slot.  A tagged table (greedy_search's card memo) also holds TAGS split
 * tags per slot, zero while free, which move with their key when it grows. */
enum { TAGS = 3 };
typedef struct { mask_t *key; double *val; uint32_t *tags; size_t cap, len; int tagged; } table;

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
        table big = { calloc(cap, sizeof(mask_t)), malloc(cap * sizeof(double)),
                      t->tagged ? calloc(cap * TAGS, sizeof(uint32_t)) : NULL, cap, t->len,
                      t->tagged };
        if (!big.key || !big.val || (t->tagged && !big.tags)) {
            free(big.key);
            free(big.val);
            free(big.tags);
            return NOMEM;
        }
        for (i = 0; i < t->cap; i++)
            if (t->key[i]) {
                size_t j = slot(&big, t->key[i]);
                big.key[j] = t->key[i];
                big.val[j] = t->val[i];
                if (t->tagged)
                    memcpy(big.tags + TAGS * j, t->tags + TAGS * i, TAGS * sizeof *t->tags);
            }
        free(t->key);
        free(t->val);
        free(t->tags);
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
    free(t->tags);
    *t = (table){ 0 };
}

/* The number of distinct unions a | b over brute_search's table of
 * (a << 32 | b) keys.  greedy_search counts its unions as it prices them. */
static int count_unions(const table *pairs, int64_t *count) {
    table unions = { 0 };
    int rc = OK;
    for (size_t i = 0; rc == OK && i < pairs->cap; i++) {
        mask_t key = pairs->key[i], merged = (key >> 32) | (key & 0xFFFFFFFFu);
        if (key && !get(&unions, merged))
            rc = put(&unions, merged, 0.0);
    }
    *count = (int64_t)unions.len;
    drop(&unions);
    return rc;
}

typedef struct {               /* formula.Instance, flattened by loader.py */
    int n, n_edges, n_cards;
    double lam;
    const int *edge_u, *edge_v;
    const double *scan;
    const int8_t *indexed;
    const mask_t *card_mask;   /* inst.known_cards(), */
    const double *card_val;    /* as parallel key/value arrays */
    const double *bases, *sels;  /* inst.model as per-vertex and per-edge arrays, or NULL */
    /* Set by the kernels (loader._Problem leaves room for them): */
    table *memo;               /* the cardinalities card() reads */
    uint64_t *incident;        /* per vertex, its edges as a bitset of edge ids */
    mask_t missing;            /* the cardinality a kernel could not get */
    int words;                 /* 64-bit words in an edge bitset */
} problem;

/* sizeof(problem), which must equal ctypes.sizeof(loader._Problem). */
size_t sp_problem_size(void) {
    return sizeof(problem);
}

/* loader.VERSION: raise both when the problem struct or a kernel's
 * arguments or results change, so that a library built before is refused. */
const int sp_version = 2;

typedef struct { double cost, out; int op, side; } join;

#define SINGLE(m) (((m) & ((m) - 1)) == 0)
#define BIT(m) __builtin_ctzll(m)

/* The clock of time.perf_counter, in the same units. */
static double now(void) {
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)((int64_t)ts.tv_sec * 1000000000 + ts.tv_nsec) / 1e9;
}

/* Seed memo, which card() then reads, with the shipped cardinalities
 * (pure._Cards), and build the incident edge bitsets.  Every kernel that
 * opens them calls close_memo when done. */
static int open_memo(problem *p, table *memo) {
    int rc = OK;
    p->memo = memo;
    p->words = (p->n_edges + 63) / 64;
    p->incident = calloc((size_t)p->n * p->words + 1, sizeof *p->incident);
    if (!p->incident)
        return NOMEM;
    for (int e = 0; e < p->n_edges; e++) {
        p->incident[p->edge_u[e] * p->words + e / 64] |= (uint64_t)1 << (e % 64);
        p->incident[p->edge_v[e] * p->words + e / 64] |= (uint64_t)1 << (e % 64);
    }
    for (int i = 0; rc == OK && i < p->n_cards; i++)
        if (p->card_mask[i])  /* mask 0 would be a free slot */
            rc = put(memo, p->card_mask[i], p->card_val[i]);
    return rc;
}

static void close_memo(problem *p) {
    drop(p->memo);
    free(p->incident);
    p->incident = NULL;
}

/* formula.model_product.  m's own edges are those its vertices touch and
 * no vertex outside it does; they multiply in ascending edge-id order. */
static double model_product(const problem *p, mask_t m) {
    mask_t outside = m ^ (((mask_t)1 << p->n) - 1);
    double prod = 1.0;
    for (mask_t rest = m; rest; rest &= rest - 1)
        prod *= p->bases[BIT(rest)];
    for (int w = 0; w < p->words; w++) {
        uint64_t touched = 0, left = 0;
        for (mask_t rest = m; rest; rest &= rest - 1)
            touched |= p->incident[BIT(rest) * p->words + w];
        for (mask_t rest = outside; rest; rest &= rest - 1)
            left |= p->incident[BIT(rest) * p->words + w];
        for (uint64_t own = touched & ~left; own; own &= own - 1)
            prod *= p->sels[64 * w + __builtin_ctzll(own)];
    }
    return prod;
}

/* A cardinality from the memo; a model's mask is computed on first use
 * (pure._Cards.__missing__). */
static int card(problem *p, mask_t m, double *c) {
    double *hit = get(p->memo, m);
    if (hit) {
        *c = *hit;
        return OK;
    }
    if (p->bases && (*c = model_product(p, m)) != INFINITY) {
        *c = ceil(*c);
        return put(p->memo, m, *c);
    }
    p->missing = m;
    return MISSING;
}

/* Instance.pair_inner: the v2 end of the edge joining the pair m, or -1. */
static int pair_inner(const problem *p, mask_t m) {
    for (int e = 0; e < p->n_edges; e++)
        if (((mask_t)1 << p->edge_u[e] | (mask_t)1 << p->edge_v[e]) == m)
            return p->edge_v[e];
    return -1;
}

/* formula.merge and formula.join_cost, given the cardinalities of the
 * result (out) and of the two sides (lc, rc). */
static join join_of(const problem *p, mask_t l, mask_t r, double out, double lc, double rc) {
    int l_single = SINGLE(l), r_single = SINGLE(r), op = 0, side, inner = -1;
    double cost, inl;

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
        double outer_card = inner_mask == l ? rc : lc;
        inl = outer_card > 0.0 ? p->lam * (out >= outer_card ? out : outer_card) : 0.0;
        if (SINGLE(outer))
            inl = inl + p->scan[BIT(outer)];
        if (inl < cost) {
            cost = inl;
            op = 1;
            side = inner_mask == l ? 0 : 1;
        }
    }
    return (join){ cost, out, op, side };
}

/* formula.merge: join_of over card(l | r), card(l) and card(r), read in
 * that order, so a missing one is named as formula.merge names it. */
static int merge(problem *p, mask_t l, mask_t r, join *j) {
    double out, lc, rc;
    int status;
    if ((status = card(p, l | r, &out)) || (status = card(p, l, &lc)) || (status = card(p, r, &rc)))
        return status;
    *j = join_of(p, l, r, out, lc, rc);
    return OK;
}

int sp_merge(problem *p, mask_t l, mask_t r, join *j) {
    table memo = { 0 };
    int rc = open_memo(p, &memo);
    if (rc == OK)
        rc = merge(p, l, r, j);
    close_memo(p);
    return rc;
}

/* pure.model_cards: each mask's cardinality, stopping at the first missing. */
int sp_model_cards(problem *p, const mask_t *masks, int64_t n_masks, double *cards) {
    table memo = { 0 };
    int rc = open_memo(p, &memo);
    for (int64_t i = 0; rc == OK && i < n_masks; i++)
        rc = card(p, masks[i], &cards[i]);
    close_memo(p);
    return rc;
}

/* A join of a member's plan: its two sides, edge, operator and build or
 * inner side (formula.OP_*, SIDE_*), and its step cost. */
typedef struct { mask_t l, r; double cost; int edge, op, side; } step_t;

/* The join a greedy state took and the index of the state it led to, or
 * DONE when it completed the plan. */
#define DONE ((size_t)-1)
typedef struct { step_t step; size_t next; } choice;

/* Interned byte strings of one width, a multiple of 8, each with a choice:
 * greedy_search's states (a member's kind, then its partition as each
 * vertex's lowest component vertex, zero-padded) and its distinct member
 * plans (canonical encodings, whose choices go unused). */
typedef struct {
    size_t width, len, cap;    /* cap: slots, a power of two; room for cap / 2 strings */
    unsigned char *data;       /* the strings, in insertion order */
    choice *val;
    size_t *slot;              /* string index + 1, or 0 for a free slot */
} strings;

/* One multiply per 64-bit word; folding each product's high half down lets
 * every byte reach the slot bits. */
static uint64_t hash_words(const unsigned char *s, size_t width) {
    uint64_t h = 0, w;
    for (size_t i = 0; i < width; i += 8) {
        memcpy(&w, s + i, 8);
        h = (h ^ w) * 0x9E3779B97F4A7C15u;
        h ^= h >> 32;
    }
    return h;
}

static size_t string_slot(const strings *t, const unsigned char *s) {
    size_t i = (size_t)hash_words(s, t->width) & (t->cap - 1);
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
        choice *val = data ? realloc(t->val, cap / 2 * sizeof *val) : NULL;
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

/* A greedy member's kind: formula.PRIM, formula.KRUSKAL. */
enum { PRIM, KRUSKAL };

/* A candidate join of two adjacent components, as price made it: the join
 * of the edge's ends (left, right) over the lowest edge between them, as
 * its step cost, out, op and side, and the union of the two.  prim and
 * kruskal both join the cheapest candidate by (cost, edge) and record the
 * join it carries; prim's candidates hold its component, kruskal's are
 * every adjacent pair, one entry each.  op and side take a byte each, so a
 * candidate is 32 bytes where a whole join would make it 40. */
typedef struct { double cost, out; mask_t pair; int edge; uint8_t op, side; } cand;

/* pure._Greedy: the state the members of one search share, and the
 * scratch space of the member being run. */
typedef struct {
    problem *p;
    double deadline;
    int n, n_edges;
    mask_t full;
    table cards;               /* tagged: each priced union's split tags */
    table overflow;            /* the tags past a union's TAGS, as (tag << 32 | union) */
    strings next, plans;       /* next: (kind, partition) -> the choice made there */
    cand *opening, *cands;     /* kruskal's opening, once priced; a member's candidates */
    int opened;
    mask_t *comp_of, *enc, *best_enc;
    double *cost_of, *card_of; /* per vertex, its component's cost and cardinality */
    uint8_t *label;            /* the member's state: its kind, then each vertex's
                                * lowest component vertex (next's key) */
    step_t *steps, *best_steps;
    int n_steps;
    int64_t subplans, splits, evals, states;
} greedy;

static int past(double deadline) {
    return deadline != 0.0 && now() > deadline;
}

/* Count a state whose choice is priced; every 16th reads the clock. */
static int new_state(greedy *g) {
    return ++g->states % 16 == 0 && past(g->deadline) ? TIMEOUT : OK;
}

/* *c becomes the candidate join of l and r over edge, counted as one
 * evaluation: merge, with card(l | r) read from the memo and the sides'
 * cardinalities lc and rc carried by their components.  A single table's
 * is read through card() instead, after out as merge reads it, so a
 * missing one is named alike.  The union's card-memo slot also holds its
 * split tags, each the smaller side's mask: the union counts as a subplan
 * when its first tag is written, and the split as a distinct one when its
 * tag is added there or, past TAGS, to the overflow set.  The tags are
 * written before card() reads a side, since that can grow the memo and
 * move them. */
static int price(greedy *g, int edge, mask_t l, mask_t r, double lc, double rc, cand *c) {
    table *memo = &g->cards;
    mask_t u = l | r;
    uint32_t tag = (uint32_t)(l < r ? l : r), *tags;
    size_t i = memo->cap ? slot(memo, u) : 0;
    double out;
    join j;
    int k = 0, status;
    if (!memo->cap || memo->key[i] != u) {
        if ((status = card(g->p, u, &out)))
            return status;
        i = slot(memo, u);
    }
    out = memo->val[i];
    tags = memo->tags + TAGS * i;
    while (k < TAGS && tags[k] && tags[k] != tag)
        k++;
    if (k < TAGS && !tags[k]) {
        tags[k] = tag;
        g->subplans += k == 0;
        g->splits++;
    } else if (k == TAGS) {
        mask_t key = (mask_t)tag << 32 | u;
        if (!get(&g->overflow, key)) {
            if ((status = put(&g->overflow, key, 0.0)))
                return status;
            g->splits++;
        }
    }
    if ((SINGLE(l) && (status = card(g->p, l, &lc)))
        || (SINGLE(r) && (status = card(g->p, r, &rc))))
        return status;
    j = join_of(g->p, l, r, out, lc, rc);
    *c = (cand){ j.cost, j.out, u, edge, (uint8_t)j.op, (uint8_t)j.side };
    g->evals++;
    return OK;
}

/* pure._Greedy.edge_joins: each single-edge join of edges [lo, hi). */
static int edge_joins(greedy *g, int lo, int hi, cand *out) {
    for (int e = lo; e < hi; e++) {
        int rc = price(g, e, (mask_t)1 << g->p->edge_u[e], (mask_t)1 << g->p->edge_v[e], 0.0, 0.0,
                       &out[e - lo]);
        if (rc)
            return rc;
    }
    return OK;
}

/* pure._Greedy.neighbours: merged priced once against each adjacent
 * component, over the lowest edge between them, appended to out in edge-id
 * order.  The edges leaving merged are read from its vertices' incident
 * bitsets. */
static int neighbours(greedy *g, mask_t merged, cand *out, int *len) {
    const problem *p = g->p;
    mask_t priced = 0;
    for (int w = 0; w < p->words; w++) {
        uint64_t crossing = 0;
        for (mask_t rest = merged; rest; rest &= rest - 1)
            crossing |= p->incident[BIT(rest) * p->words + w];
        for (; crossing; crossing &= crossing - 1) {
            int e = 64 * w + __builtin_ctzll(crossing), u = p->edge_u[e], v = p->edge_v[e], rc;
            mask_t c1 = g->comp_of[u], c2 = g->comp_of[v];
            mask_t neighbour = c1 == merged ? c2 : c1;
            if (c1 == c2 || (neighbour & priced))
                continue;
            priced |= neighbour;
            if ((rc = price(g, e, c1, c2, g->card_of[u], g->card_of[v], &out[(*len)++])))
                return rc;
        }
    }
    return OK;
}

/* The cheapest of len > 0 candidates by (cost, edge). */
static const cand *cheapest(const cand *c, int len) {
    const cand *best = c;
    for (int i = 1; i < len; i++)
        if (c[i].cost < best->cost || (c[i].cost == best->cost && c[i].edge < best->edge))
            best = c + i;
    return best;
}

/* Append candidate c's join to the member's plan as priced.  A prim member
 * keeps its component, the one the last join made, on the left: after its
 * opening the other side is a single table, so swapping the edge's ends
 * flips only the side.  *merged becomes the joined component. */
static void join_edge(greedy *g, int kind, const cand *c, mask_t *merged) {
    int u = g->p->edge_u[c->edge], v = g->p->edge_v[c->edge], side = c->side;
    double cost;
    if (kind == PRIM && g->comp_of[v] == *merged) {
        int w = u;
        u = v;
        v = w;
        side = !side;
    }
    g->steps[g->n_steps++] = (step_t){ g->comp_of[u], g->comp_of[v], c->cost, c->edge, c->op,
                                       side };
    cost = c->cost + g->cost_of[u] + g->cost_of[v];
    *merged = c->pair;
    for (mask_t rest = *merged; rest; rest &= rest - 1) {
        g->comp_of[BIT(rest)] = *merged;
        g->cost_of[BIT(rest)] = cost;
        g->card_of[BIT(rest)] = c->out;
        g->label[1 + BIT(rest)] = (uint8_t)BIT(*merged);
    }
}

/* Follow the stored choices from state index to the end of the plan,
 * appending each join without interning its state or pricing it.  Each
 * component's cost is kept at its lowest vertex, which is where the next
 * join of it reads it. */
static void follow(greedy *g, size_t index) {
    for (; index != DONE; index = g->next.val[index].next) {
        step_t s = g->next.val[index].step;
        g->cost_of[BIT(s.l | s.r)] = s.cost + g->cost_of[BIT(s.l)] + g->cost_of[BIT(s.r)];
        g->steps[g->n_steps++] = s;
    }
}

/* pure._Greedy.member: one run of kind from edge start, or unseeded when
 * start < 0.  From its first state an earlier member left, the member
 * follows that member's stored choices: a state's choice depends on the
 * state alone, and so does the join it takes. */
static int member(greedy *g, int kind, int start, double *total) {
    int len = 0, rc, fresh;
    /* merged: the component made by the last join, whose candidates have
     * not been priced yet; 0 before the first join. */
    mask_t merged = 0;
    size_t index, last = DONE;  /* last: the state whose choice was taken last */

    g->label[0] = (uint8_t)kind;
    for (int v = 0; v < g->n; v++) {
        g->comp_of[v] = (mask_t)1 << v;
        g->cost_of[v] = g->card_of[v] = 0.0;  /* a single table's card() is read */
        g->label[1 + v] = (uint8_t)v;
    }
    if (kind == PRIM) {  /* prim prices its own opening, then its component's pairs */
        int lo = start < 0 ? 0 : start, hi = start < 0 ? g->n_edges : start + 1;
        if ((rc = edge_joins(g, lo, hi, g->cands)))
            return rc;
        if (hi > lo)
            join_edge(g, kind, cheapest(g->cands, hi - lo), &merged);
    } else {
        if (!g->opened) {  /* every single-edge join, priced once per search */
            if ((rc = edge_joins(g, 0, g->n_edges, g->opening)))
                return rc;
            g->opened = 1;
        }
        memcpy(g->cands, g->opening, g->n_edges * sizeof *g->cands);
        len = g->n_edges;
        if (start >= 0)
            join_edge(g, kind, &g->opening[start], &merged);
    }
    while (g->comp_of[0] != g->full) {
        if ((rc = intern(&g->next, g->label, &index, &fresh)))
            return rc;
        if (last != DONE)
            g->next.val[last].next = index;
        if (!fresh) {
            follow(g, index);
            break;
        }
        if ((rc = new_state(g)))
            return rc;
        if (merged) {  /* drop the pairs of merged's two parts, add merged's */
            int kept = 0;
            for (int i = 0; i < len; i++)
                if (!(g->cands[i].pair & merged))
                    g->cands[kept++] = g->cands[i];
            len = kept;
            if ((rc = neighbours(g, merged, g->cands, &len)))
                return rc;
        }
        join_edge(g, kind, cheapest(g->cands, len), &merged);
        g->next.val[index] = (choice){ g->steps[g->n_steps - 1], DONE };
        last = index;
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
    int n = g->n, n_edges = g->n_edges;
    size_t enc_len = 6 * (size_t)(n - 1) + 1;
    int rc;
    g->cards.tagged = 1;
    rc = open_memo(g->p, &g->cards);
    g->full = ((mask_t)1 << n) - 1;
    g->next.width = ((size_t)n + 8) & ~(size_t)7;  /* the kind, then n labels */
    g->plans.width = 6 * (size_t)(n - 1) * sizeof *g->enc;
    g->opening = malloc((n_edges + 1) * sizeof *g->opening);
    g->cands = malloc((n_edges + 1) * sizeof *g->cands);
    g->comp_of = malloc(n * sizeof *g->comp_of);
    g->cost_of = malloc(n * sizeof *g->cost_of);
    g->card_of = malloc(n * sizeof *g->card_of);
    g->label = calloc(g->next.width + 1, 1);
    g->enc = malloc(enc_len * sizeof *g->enc);
    g->best_enc = malloc(enc_len * sizeof *g->best_enc);
    g->steps = malloc(n * sizeof *g->steps);
    g->best_steps = malloc(n * sizeof *g->best_steps);
    if (!g->opening || !g->cands || !g->comp_of || !g->cost_of || !g->card_of || !g->label
        || !g->enc || !g->best_enc || !g->steps || !g->best_steps)
        return NOMEM;
    return rc;
}

static int greedy_close(greedy *g, int rc) {
    close_memo(g->p);
    drop(&g->overflow);
    drop_strings(&g->next);
    drop_strings(&g->plans);
    free(g->opening);
    free(g->cands);
    free(g->comp_of);
    free(g->cost_of);
    free(g->card_of);
    free(g->label);
    free(g->enc);
    free(g->best_enc);
    free(g->steps);
    free(g->best_steps);
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
        if ((rc = member(&g, runs[2 * k], runs[2 * k + 1], &total)))
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
        counts[0] = g.subplans;
        counts[1] = g.splits;
        counts[2] = g.evals;
        counts[3] = (int64_t)g.plans.len;
    }
    return greedy_close(&g, rc);
}

/* Write the optimal plan of mask as (edge, left, right) triples from *out
 * on, children first; each join takes the lowest edge id between its sides. */
static void emit(const problem *p, const mask_t *split, mask_t mask, mask_t **out) {
    mask_t l, r, ends;
    int e = -1;
    if (SINGLE(mask))
        return;
    l = split[mask];
    r = mask ^ l;
    emit(p, split, l, out);
    emit(p, split, r, out);
    do {
        e++;
        ends = (mask_t)1 << p->edge_u[e] | (mask_t)1 << p->edge_v[e];
    } while (!(ends & l) || !(ends & r));
    (*out)[0] = (mask_t)e;
    (*out)[1] = l;
    (*out)[2] = r;
    *out += 3;
}

/* pure.dp_search over the n_masks connected subsets in masks, ascending.
 * counts receives (subplans, splits) and joins the optimal plan's n - 1
 * joins, when it has one. */
int sp_dp_search(problem *p, const mask_t *masks, int64_t n_masks, double bound,
                 double deadline, double *root, int64_t counts[2], mask_t *joins) {
    mask_t full = ((mask_t)1 << p->n) - 1;
    mask_t *split = malloc((full + 1) * sizeof *split);  /* the left side of each best join */
    double *best = malloc((full + 1) * sizeof *best);    /* INFINITY: no plan yet */
    int64_t checked = 0;
    table memo = { 0 };
    int rc = open_memo(p, &memo);
    if (rc == OK && !(split && best))
        rc = NOMEM;

    counts[0] = counts[1] = 0;
    if (rc == OK)
        for (mask_t mask = 1; mask <= full; mask++)
            best[mask] = SINGLE(mask) ? 0.0 : INFINITY;
    for (int64_t i = 0; rc == OK && i < n_masks; i++) {
        mask_t mask = masks[i], low = mask & -mask, rest = mask ^ low, t = rest;
        double best_cost = INFINITY, out = 0.0;
        int touched = 0;
        if (SINGLE(mask))
            continue;
        checked++;
        if (deadline != 0.0 && checked % 1024 == 0 && now() > deadline) {
            rc = TIMEOUT;
            break;
        }
        /* Canonical split order: s1 = t | low descends over the proper
         * subsets of mask that hold its lowest table. */
        do {
            mask_t s1, s2;
            double c1, c2, n1, n2, total;  /* the sides' costs and cardinalities */
            join j;
            t = (t - 1) & rest;
            s1 = t | low;
            s2 = mask ^ s1;
            c1 = best[s1];
            c2 = best[s2];
            if (!(c1 < INFINITY && c2 < INFINITY && c1 <= bound && c2 <= bound))
                continue;
            /* The subset's own cardinality, read once, on its first priced
             * split: a subset whose splits are all pruned needs none. */
            if (!touched && (rc = card(p, mask, &out)))
                break;
            counts[1]++;
            touched = 1;
            if ((rc = card(p, s1, &n1)) || (rc = card(p, s2, &n2)))
                break;
            j = join_of(p, s1, s2, out, n1, n2);
            total = j.cost + c1 + c2;
            if (total < best_cost) {
                best_cost = total;
                split[mask] = s1;
            }
        } while (t);
        counts[0] += touched;
        best[mask] = best_cost;
    }
    if (rc == OK) {
        *root = best[full];
        if (*root < INFINITY)
            emit(p, split, full, &joins);
    }
    free(split);
    free(best);
    close_memo(p);
    return rc;
}

/* brute_search's depth-first walk over ordered edge arrangements.  It skips
 * an edge that closes a cycle, so it counts only valid (and linear) ones. */
typedef struct {
    problem *p;
    int n_edges, slots;
    const int *edge_u, *edge_v;
    int *parent;
    int8_t *used;
    int64_t counts[5];        /* valid, linear, subplans, splits, evals */
    int64_t nodes;
    double deadline;
    mask_t *comp_mask;        /* each root's component and its cost */
    double *comp_cost;
    mask_t *seq, *best_seq;   /* (edge, left, right) per depth: the walk's and the best */
    double best;
    table cards;              /* the cardinalities card() reads */
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
    int rc;
    w->counts[4]++;
    if (hit) {
        *inc = *hit;
        return OK;
    }
    if ((rc = merge(w->p, a, b, &j)))
        return rc;
    *inc = j.cost;
    return put(&w->memo, key, j.cost);
}

static int step(walk *w, int depth, mask_t touched, int touched_cnt, int linear) {
    int rc;
    w->nodes++;
    if (w->deadline != 0.0 && w->nodes % 4096 == 0 && now() > w->deadline)
        return TIMEOUT;
    for (int e = 0; e < w->n_edges; e++) {
        int u = w->edge_u[e], v = w->edge_v[e], ru, rv, cnt, new_linear;
        mask_t lm, rm;
        double inc, new_cost, saved_cost;
        if (w->used[e])
            continue;
        ru = find(w->parent, u);
        rv = find(w->parent, v);
        if (ru == rv)  /* it would close a cycle */
            continue;
        lm = w->comp_mask[ru];
        rm = w->comp_mask[rv];
        if ((rc = memo_merge(w, lm, rm, &inc)))
            return rc;
        new_cost = inc + w->comp_cost[ru] + w->comp_cost[rv];
        saved_cost = w->comp_cost[rv];
        w->comp_mask[rv] = lm | rm;
        w->comp_cost[rv] = new_cost;
        w->seq[3 * depth] = (mask_t)e;
        w->seq[3 * depth + 1] = lm;
        w->seq[3 * depth + 2] = rm;
        w->parent[ru] = rv;
        w->used[e] = 1;
        cnt = touched_cnt + !((touched >> u) & 1) + !((touched >> v) & 1);
        new_linear = linear && cnt - (depth + 1) == 1;
        if (depth + 1 == w->slots) {
            w->counts[0]++;
            w->counts[1] += new_linear;
            if (new_cost < w->best) {
                w->best = new_cost;
                memcpy(w->best_seq, w->seq, 3 * w->slots * sizeof *w->seq);
            }
        } else if ((rc = step(w, depth + 1, touched | (mask_t)1 << u | (mask_t)1 << v,
                              cnt, new_linear))) {
            return rc;
        }
        w->used[e] = 0;
        w->parent[ru] = ru;
        w->comp_mask[rv] = rm;
        w->comp_cost[rv] = saved_cost;
    }
    return OK;
}

static int run_walk(walk *w) {
    int n = w->slots + 1, n_edges = w->n_edges, slots = w->slots, rc;
    if (slots == 0) {
        w->counts[0] = w->counts[1] = 1;
        w->best = 0.0;
        return OK;
    }
    rc = open_memo(w->p, &w->cards);
    w->parent = malloc(n * sizeof *w->parent);
    w->used = calloc(n_edges, sizeof *w->used);
    w->comp_mask = malloc(n * sizeof *w->comp_mask);
    w->comp_cost = malloc(n * sizeof *w->comp_cost);
    w->seq = malloc(3 * slots * sizeof *w->seq);
    if (rc == OK && (!w->parent || !w->used || !w->comp_mask || !w->comp_cost || !w->seq))
        rc = NOMEM;
    if (rc == OK) {
        for (int v = 0; v < n; v++) {
            w->parent[v] = v;
            w->comp_mask[v] = (mask_t)1 << v;
            w->comp_cost[v] = 0.0;
        }
        rc = step(w, 0, 0, 0, 1);
    }
    if (rc == OK)
        rc = count_unions(&w->memo, &w->counts[2]);
    w->counts[3] = (int64_t)w->memo.len;
    close_memo(w->p);
    drop(&w->memo);
    free(w->parent);
    free(w->used);
    free(w->comp_mask);
    free(w->comp_cost);
    free(w->seq);
    return rc;
}

/* pure.brute_search; joins receives the best arrangement's (edge, left,
 * right) triples and counts the five counters after them. */
int sp_brute_search(problem *p, double deadline, double *best, mask_t *joins,
                    int64_t counts[5]) {
    walk w = { .p = p, .n_edges = p->n_edges, .slots = p->n - 1, .edge_u = p->edge_u,
               .edge_v = p->edge_v, .deadline = deadline, .best_seq = joins,
               .best = INFINITY };
    int rc = run_walk(&w);
    *best = w.best;
    memcpy(counts, w.counts, sizeof w.counts);
    return rc;
}
