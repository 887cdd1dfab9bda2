/* Compiled search kernels, opened through ctypes by loader.py.
 *
 * A mirror of the Python kernels: merge (with the join_cost it inlines) and
 * model_product mirror formula.py, the package's one Python cost formula;
 * model_cards, merge_pairs, greedy_search, dp_search and brute_search
 * mirror pure.py.  merge_pairs prices a batch of pairs for goo, whose loop
 * runs in Python: one call per round.
 * brute_search walks each group of equivalent edges once, prices the last
 * depth once and walks a forest of joins again only when it comes back
 * cheaper, where pure's reference walk takes every arrangement; both
 * return the same results and counters (see walk).
 * (count_trees has no C kernel: every backend counts in closed form in
 * trees.py, whose Python ints stay exact where int64 would overflow.)
 * The three searches write the winner's cost and its joins as (edge, left
 * mask, right mask, out card) quadruples of 64-bit words, the out card a
 * double, in replay order.  No kernel takes or returns
 * what can be derived: oracle.py derives the invalid and bushy counts.
 * Every cost is computed with the same operations in the same order, so
 * results are bit-for-bit equal to the reference.
 * Build with -ffp-contract=off so that no a * b + c is fused into one
 * rounding.  No kernel starts a thread.
 * Vertex sets are bitmasks; the 25-table graph cap keeps them below 2^32.
 * brute_search's edge sets are one word: formula.check_walk refuses an
 * instance of more than 64 edges before the call.
 * Every entry point reads its problem as const, so calls on one problem may
 * overlap, returns one of the status codes below, and writes the mask a
 * MISSING status names to its last argument.
 */
#define _POSIX_C_SOURCE 199309L  /* clock_gettime */
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

/* Move t's keys into a new table of cap slots, a power of two above
 * 2 * t->len. */
static int grow(table *t, size_t cap) {
    table big = { calloc(cap, sizeof(mask_t)), malloc(cap * sizeof(double)),
                  t->tagged ? calloc(cap * TAGS, sizeof(uint32_t)) : NULL, cap, t->len,
                  t->tagged };
    if (!big.key || !big.val || (t->tagged && !big.tags)) {
        free(big.key);
        free(big.val);
        free(big.tags);
        return NOMEM;
    }
    for (size_t i = 0; i < t->cap; i++)
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
    return OK;
}

/* Insert the absent key at *i, the slot slot() gave it; when the table
 * grows first, *i becomes the key's slot in the grown one. */
static int put_at(table *t, size_t *i, mask_t key, double val) {
    int rc;
    if (2 * (t->len + 1) > t->cap) {
        if ((rc = grow(t, t->cap ? 2 * t->cap : 64)))
            return rc;
        *i = slot(t, key);
    }
    t->key[*i] = key;
    t->val[*i] = val;
    t->len++;
    return OK;
}

/* key must be absent */
static int put(table *t, mask_t key, double val) {
    size_t i = t->cap ? slot(t, key) : 0;
    return put_at(t, &i, key, val);
}

static void drop(table *t) {
    free(t->key);
    free(t->val);
    free(t->tags);
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

/* formula.Instance: its arrays, which loader.py passes by address; no
 * kernel writes them. */
typedef struct {
    int n, n_edges, n_cards;
    double lam;
    const int *edge_u, *edge_v;
    const double *scan;
    const int8_t *indexed;
    const mask_t *card_mask;   /* inst.known_cards(), */
    const double *card_val;    /* as parallel key/value arrays */
    const double *bases, *sels;  /* inst.model as per-vertex and per-edge arrays, or NULL */
} problem;

/* The cardinalities one kernel call reads: card() reads memo, seeded with
 * p's shipped ones and filled under p's model, which reads the incident
 * edge bitsets. */
typedef struct {
    const problem *p;
    table memo;
    uint64_t *incident;        /* per vertex, its edges as a bitset of edge ids;
                                * over a vertex set, their XOR holds the edges
                                * leaving it and their OR & ~XOR those inside */
    int words;                 /* 64-bit words in an edge bitset */
    mask_t missing;            /* the cardinality the call could not get */
} state;

/* sizeof(problem), which must equal ctypes.sizeof(loader._Problem). */
size_t sp_problem_size(void) {
    return sizeof(problem);
}

/* loader.VERSION: raise both when the problem struct or a kernel's
 * arguments or results change, so that a library built before is refused. */
const int sp_version = 5;

/* A priced join, in formula.merge's order: its step cost, operator and
 * side (formula.OP_*, SIDE_*) and out card; sp_merge_pairs returns an array
 * of them, 24 bytes each. */
typedef struct { double cost; int op, side; double out; } join;

#define SINGLE(m) (((m) & ((m) - 1)) == 0)
#define BIT(m) __builtin_ctzll(m)

/* The clock of time.perf_counter, in the same units. */
static double now(void) {
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)((int64_t)ts.tv_sec * 1000000000 + ts.tv_nsec) / 1e9;
}

/* Seed s's memo, which card() then reads, with s->p's shipped
 * cardinalities (pure._Cards), and build the incident edge bitsets.  s
 * starts zeroed but for p (and memo.tagged); every kernel that opens it
 * calls close_memo when done. */
static int open_memo(state *s) {
    const problem *p = s->p;
    int rc = OK;
    s->words = (p->n_edges + 63) / 64;
    s->incident = calloc((size_t)p->n * s->words + 1, sizeof *s->incident);
    if (!s->incident)
        return NOMEM;
    for (int e = 0; e < p->n_edges; e++) {
        s->incident[p->edge_u[e] * s->words + e / 64] |= (uint64_t)1 << (e % 64);
        s->incident[p->edge_v[e] * s->words + e / 64] |= (uint64_t)1 << (e % 64);
    }
    for (int i = 0; rc == OK && i < p->n_cards; i++)
        if (p->card_mask[i])  /* mask 0 would be a free slot */
            rc = put(&s->memo, p->card_mask[i], p->card_val[i]);
    return rc;
}

static void close_memo(state *s) {
    drop(&s->memo);
    free(s->incident);
}

/* formula.model_product.  m's own edges are those with both ends in m: each
 * is in the OR of its vertices' incident bitsets and, counted twice, cancels
 * from their XOR, while an edge leaving m stays in both.  They multiply in
 * ascending edge-id order. */
static double model_product(const state *s, mask_t m) {
    double prod = 1.0;
    for (mask_t rest = m; rest; rest &= rest - 1)
        prod *= s->p->bases[BIT(rest)];
    for (int w = 0; w < s->words; w++) {
        uint64_t touched = 0, leaving = 0;
        for (mask_t rest = m; rest; rest &= rest - 1) {
            uint64_t edges = s->incident[BIT(rest) * s->words + w];
            touched |= edges;
            leaving ^= edges;
        }
        for (uint64_t own = touched & ~leaving; own; own &= own - 1)
            prod *= s->p->sels[64 * w + __builtin_ctzll(own)];
    }
    return prod;
}

/* m's cardinality, which the memo lacks, computed under a model (pure._Cards
 * .__missing__) and inserted at *i, the slot slot() gave it. */
static int fill(state *s, mask_t m, size_t *i) {
    double c;
    if (s->p->bases && (c = model_product(s, m)) != INFINITY)
        return put_at(&s->memo, i, m, ceil(c));
    s->missing = m;
    return MISSING;
}

/* A cardinality from the memo; one probe, and one insert when it is new. */
static int card(state *s, mask_t m, double *c) {
    table *memo = &s->memo;
    size_t i = memo->cap ? slot(memo, m) : 0;
    int rc = memo->cap && memo->key[i] == m ? OK : fill(s, m, &i);
    if (rc == OK)
        *c = memo->val[i];
    return rc;
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
    return (join){ cost, op, side, out };
}

/* formula.merge: join_of over card(l | r), card(l) and card(r), read in
 * that order, so a missing one is named as formula.merge names it. */
static int merge(state *s, mask_t l, mask_t r, join *j) {
    double out, lc, rc;
    int status;
    if ((status = card(s, l | r, &out)) || (status = card(s, l, &lc)) || (status = card(s, r, &rc)))
        return status;
    *j = join_of(s->p, l, r, out, lc, rc);
    return OK;
}

/* pure.model_cards: each mask's cardinality, stopping at the first missing. */
int sp_model_cards(const problem *p, const mask_t *masks, int64_t n_masks, double *cards,
                   mask_t *missing) {
    state s = { .p = p };
    int rc = open_memo(&s);
    for (int64_t i = 0; rc == OK && i < n_masks; i++)
        rc = card(&s, masks[i], &cards[i]);
    *missing = s.missing;
    close_memo(&s);
    return rc;
}

/* pure.merge_pairs: formula.merge of each (l, r) pair, read as pairs[2i]
 * and pairs[2i + 1], into joins[i], in order, stopping at the first pair
 * with a missing mask. */
int sp_merge_pairs(const problem *p, const mask_t *pairs, int64_t n_pairs, join *joins,
                   mask_t *missing) {
    state s = { .p = p };
    int rc = open_memo(&s);
    for (int64_t i = 0; rc == OK && i < n_pairs; i++)
        rc = merge(&s, pairs[2 * i], pairs[2 * i + 1], &joins[i]);
    *missing = s.missing;
    close_memo(&s);
    return rc;
}

/* A join of a member's plan: its two sides, edge, operator and build or
 * inner side (formula.OP_*, SIDE_*), its step cost and out card. */
typedef struct { mask_t l, r; double cost, out; int edge, op, side; } step_t;

/* The join a greedy state took and the index of the state it led to, or
 * DONE when it completed the plan. */
#define DONE ((size_t)-1)
typedef struct { step_t step; size_t next; } choice;

/* A string's value: a greedy state's choice, or the valid, linear and evals
 * below a forest of brute_search's walk (linear is -1 until a linear order
 * has walked it). */
typedef union { choice choice; struct { int64_t valid, linear, evals; } below; } value;

/* Interned byte strings of one width, a multiple of 8, each with a value:
 * greedy_search's states (a member's kind, then its partition as each
 * vertex's lowest component vertex, zero-padded), its distinct member plans
 * (canonical encodings, whose values go unused) and the forests
 * brute_search has expanded. */
typedef struct {
    size_t width, len, cap;    /* cap: slots, a power of two; room for cap / 2 strings */
    unsigned char *data;       /* the strings, in insertion order */
    uint64_t *hash;            /* each string's hash_words, so that growing hashes
                                * nothing again and a probe compares it first */
    value *val;
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

static size_t string_slot(const strings *t, const unsigned char *s, uint64_t h) {
    size_t i = (size_t)h & (t->cap - 1);
    while (t->slot[i] && (t->hash[t->slot[i] - 1] != h
                          || memcmp(t->data + (t->slot[i] - 1) * t->width, s, t->width)))
        i = (i + 1) & (t->cap - 1);
    return i;
}

/* The index of s, which is added when absent; *fresh tells which. */
static int intern(strings *t, const void *s, size_t *index, int *fresh) {
    size_t i;
    uint64_t h = hash_words(s, t->width);
    if (2 * (t->len + 1) > t->cap) {
        size_t cap = t->cap ? 2 * t->cap : 64;
        unsigned char *data = realloc(t->data, cap / 2 * t->width + 1);
        value *val = data ? realloc(t->val, cap / 2 * sizeof *val) : NULL;
        uint64_t *hash = val ? realloc(t->hash, cap / 2 * sizeof *hash) : NULL;
        size_t *slot = hash ? calloc(cap, sizeof *slot) : NULL;
        if (data)
            t->data = data;
        if (val)
            t->val = val;
        if (hash)
            t->hash = hash;
        if (!slot)
            return NOMEM;
        free(t->slot);
        t->slot = slot;
        t->cap = cap;
        for (size_t k = 0; k < t->len; k++)
            t->slot[string_slot(t, t->data + k * t->width, t->hash[k])] = k + 1;
    }
    i = string_slot(t, s, h);
    *fresh = !t->slot[i];
    if (*fresh) {
        memcpy(t->data + t->len * t->width, s, t->width);
        t->hash[t->len] = h;
        t->slot[i] = ++t->len;
    }
    *index = t->slot[i] - 1;
    return OK;
}

static void drop_strings(strings *t) {
    free(t->data);
    free(t->hash);
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
    state s;                   /* s.memo is tagged: each priced union's split tags */
    double deadline;
    int n, n_edges;
    mask_t full;
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
    table *memo = &g->s.memo;
    mask_t u = l | r;
    uint32_t tag = (uint32_t)(l < r ? l : r), *tags;
    size_t i = memo->cap ? slot(memo, u) : 0;
    double out;
    join j;
    int k = 0, status;
    if ((!memo->cap || memo->key[i] != u) && (status = fill(&g->s, u, &i)))
        return status;
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
    if ((SINGLE(l) && (status = card(&g->s, l, &lc)))
        || (SINGLE(r) && (status = card(&g->s, r, &rc))))
        return status;
    j = join_of(g->s.p, l, r, out, lc, rc);
    *c = (cand){ j.cost, j.out, u, edge, (uint8_t)j.op, (uint8_t)j.side };
    g->evals++;
    return OK;
}

/* pure._Greedy.edge_joins: each single-edge join of edges [lo, hi). */
static int edge_joins(greedy *g, int lo, int hi, cand *out) {
    for (int e = lo; e < hi; e++) {
        int rc = price(g, e, (mask_t)1 << g->s.p->edge_u[e], (mask_t)1 << g->s.p->edge_v[e],
                       0.0, 0.0, &out[e - lo]);
        if (rc)
            return rc;
    }
    return OK;
}

/* pure._Greedy.neighbours: merged priced once against each adjacent
 * component, over the lowest edge between them, appended to out in edge-id
 * order.  The edges leaving merged are the XOR of its vertices' incident
 * bitsets, where each inner edge, counted twice, cancels.  The walk ends
 * once every other table is in a priced component. */
static int neighbours(greedy *g, mask_t merged, cand *out, int *len) {
    const state *s = &g->s;
    const problem *p = s->p;
    mask_t priced = merged;
    for (int w = 0; w < s->words; w++) {
        uint64_t crossing = 0;
        for (mask_t rest = merged; rest; rest &= rest - 1)
            crossing ^= s->incident[BIT(rest) * s->words + w];
        for (; crossing; crossing &= crossing - 1) {
            int e = 64 * w + __builtin_ctzll(crossing), u = p->edge_u[e], v = p->edge_v[e], rc;
            mask_t c1 = g->comp_of[u], c2 = g->comp_of[v];
            mask_t neighbour = c1 == merged ? c2 : c1;
            if (neighbour & priced)
                continue;
            priced |= neighbour;
            if ((rc = price(g, e, c1, c2, g->card_of[u], g->card_of[v], &out[(*len)++])))
                return rc;
            if (priced == g->full)
                return OK;
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
    int u = g->s.p->edge_u[c->edge], v = g->s.p->edge_v[c->edge], side = c->side;
    double cost;
    if (kind == PRIM && g->comp_of[v] == *merged) {
        int w = u;
        u = v;
        v = w;
        side = !side;
    }
    g->steps[g->n_steps++] = (step_t){ g->comp_of[u], g->comp_of[v], c->cost, c->out, c->edge,
                                       c->op, side };
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
    for (; index != DONE; index = g->next.val[index].choice.next) {
        step_t s = g->next.val[index].choice.step;
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
            g->next.val[last].choice.next = index;
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
        g->next.val[index].choice = (choice){ g->steps[g->n_steps - 1], DONE };
        last = index;
    }
    *total = g->cost_of[0];
    return OK;
}

static int by_result(const void *a, const void *b) {
    mask_t x = *(const mask_t *)a, y = *(const mask_t *)b;
    return (x > y) - (x < y);
}

/* pure._encoding, two words per step, sorted by the joined subset (each
 * step's is distinct): (union << 32 | smaller side, (edge << 1 | op) << 32 |
 * build or inner side).  The larger side is the union's other part, and
 * masks fit in 32 bits, so the words compare as pure's six-value tuples. */
static void encode(const step_t *steps, int n_steps, mask_t *enc) {
    for (int i = 0; i < n_steps; i++) {
        step_t s = steps[i];
        enc[2 * i] = (s.l | s.r) << 32 | (s.l < s.r ? s.l : s.r);
        enc[2 * i + 1] = ((mask_t)s.edge << 1 | (mask_t)s.op) << 32 | (s.side ? s.r : s.l);
    }
    qsort(enc, n_steps, 2 * sizeof *enc, by_result);
}

static int compare_encodings(const mask_t *a, const mask_t *b, int n) {
    for (int i = 0; i < n; i++)
        if (a[i] != b[i])
            return a[i] < b[i] ? -1 : 1;
    return 0;
}

/* The card memo starts with room for the opening's unions and one per join
 * of each distinct member (two kinds from each start edge or none), so that
 * it seldom grows: each growth moves every key into freshly allocated
 * memory, whose first touches cost more than the moves. */
static int greedy_open(greedy *g, int n_runs) {
    int n = g->n, n_edges = g->n_edges;
    size_t enc_len = 2 * (size_t)(n - 1) + 1, cap = 64;
    size_t members = n_runs < 2 * (n_edges + 1) ? (size_t)n_runs : 2 * ((size_t)n_edges + 1);
    int rc = open_memo(&g->s);
    while (cap < 2 * (n_edges + members * (n - 1)))
        cap *= 2;
    if (rc == OK && cap > g->s.memo.cap)
        rc = grow(&g->s.memo, cap);
    g->full = ((mask_t)1 << n) - 1;
    g->next.width = ((size_t)n + 8) & ~(size_t)7;  /* the kind, then n labels */
    g->plans.width = 2 * (size_t)(n - 1) * sizeof *g->enc;
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
    close_memo(&g->s);
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

/* Write one join as (edge, left mask, right mask, out card) from *out on. */
static void put_join(mask_t **out, int edge, mask_t l, mask_t r, double card) {
    (*out)[0] = (mask_t)edge;
    (*out)[1] = l;
    (*out)[2] = r;
    memcpy(*out + 3, &card, sizeof card);
    *out += 4;
}

/* pure.greedy_search.  runs holds (kind, start edge or -1) pairs; joins
 * receives the winner's (edge, left mask, right mask, out card) per step
 * and counts (subplans, splits, evals, plans). */
int sp_greedy_search(const problem *p, const int *runs, int n_runs, double deadline,
                     double *cost, mask_t *joins, int64_t counts[4], mask_t *missing) {
    greedy g = { .s = { .p = p, .memo = { .tagged = 1 } }, .deadline = deadline, .n = p->n,
                 .n_edges = p->n_edges };
    int rc = greedy_open(&g, n_runs), best_steps = -1;
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
        n_enc = 2 * g.n_steps;
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
        for (int i = 0; i < best_steps; i++)
            put_join(&joins, g.best_steps[i].edge, g.best_steps[i].l, g.best_steps[i].r,
                     g.best_steps[i].out);
        counts[0] = g.subplans;
        counts[1] = g.splits;
        counts[2] = g.evals;
        counts[3] = (int64_t)g.plans.len;
    }
    *missing = g.s.missing;
    return greedy_close(&g, rc);
}

/* Write the optimal plan of mask as joins from *out on, children first;
 * each join takes the lowest edge id between its sides, and its out card
 * from card(), which priced it. */
static int emit(state *s, const mask_t *split, mask_t mask, mask_t **out) {
    mask_t l, r, ends;
    double out_card;
    int e = -1, rc;
    if (SINGLE(mask))
        return OK;
    l = split[mask];
    r = mask ^ l;
    if ((rc = emit(s, split, l, out)) || (rc = emit(s, split, r, out))
        || (rc = card(s, mask, &out_card)))
        return rc;
    do {
        e++;
        ends = (mask_t)1 << s->p->edge_u[e] | (mask_t)1 << s->p->edge_v[e];
    } while (!(ends & l) || !(ends & r));
    put_join(out, e, l, r, out_card);
    return OK;
}

/* pure.dp_search over the n_masks connected subsets in masks, ascending.
 * counts receives (subplans, splits) and joins the optimal plan's n - 1
 * joins, when it has one. */
int sp_dp_search(const problem *p, const mask_t *masks, int64_t n_masks, double bound,
                 double deadline, double *root, int64_t counts[2], mask_t *joins,
                 mask_t *missing) {
    mask_t full = ((mask_t)1 << p->n) - 1;
    mask_t *split = malloc((full + 1) * sizeof *split);  /* the left side of each best join */
    double *best = malloc((full + 1) * sizeof *best);    /* INFINITY: no plan yet */
    int64_t checked = 0;
    state s = { .p = p };
    int rc = open_memo(&s);
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
            if (!touched && (rc = card(&s, mask, &out)))
                break;
            counts[1]++;
            touched = 1;
            if ((rc = card(&s, s1, &n1)) || (rc = card(&s, s2, &n2)))
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
            rc = emit(&s, split, full, &joins);
    }
    free(split);
    free(best);
    *missing = s.missing;
    close_memo(&s);
    return rc;
}

/* brute_search's depth-first walk over ordered edge arrangements.  It
 * takes only live edges, those joining two components, so it counts only
 * valid (and linear) arrangements.
 *
 * It walks each group of equivalent edges once.  A group is the edges whose
 * v1 end lies in one component and whose v2 end lies in another.  Any of
 * them makes the same union at the same cost, touches the same tables and
 * leaves the same edges live, so their subtrees differ only in that edge
 * id.  The walk takes the group's lowest edge and adds its subtree's
 * valid, linear and evals once more for each other edge.  The others'
 * subtrees come later in pure's order, so none holds a strictly cheaper
 * arrangement and the first-found best is the same.  A group keeps v1/v2
 * orientation: a join adds its v1 side's cost before its v2 side's, and the
 * two orders can differ in the last bit.  At the last depth every live edge
 * joins the two components left, and that join is priced once.
 *
 * It walks a forest again only when it comes back cheaper.  A forest is
 * the partition a node has reached, keyed by the masks of its components
 * of two tables or more; its record holds the valid, linear and evals
 * counted below it and, component by component, the costs it was walked
 * at.  A node above the last depth with such a component looks its
 * forest up, and one whose every component costs at least the recorded
 * cost adds the recorded counts and is not walked again.  That is exact:
 * the subtree below a node (its live edges, groups, edge order, pairs
 * priced and counts) follows from the partition alone, and its costs from
 * the components' costs (a single table's is 0) through IEEE additions,
 * each monotone in both arguments.  So every completion of the revisit
 * costs at least what it cost at the recorded walk, which compared it with
 * the best; the best has only fallen since, so no completion beats it under
 * the strict < and the first-found best is the same.  A missing
 * cardinality in the recorded walk would have ended the search, so the
 * missing mask is the same, and subplans and splits come from the pair
 * memo, which that walk filled.  Only the linear count depends on the
 * order that led to the node: a node is linear only while it has one
 * component, and a single-component forest first reached by a non-linear
 * order has no linear count yet, so a linear order reaching it walks it.
 * A walk for a lower cost records its own costs; a walk for the linear
 * count alone keeps the lower ones.  An entry is made, with its costs, when
 * the walk reaches the forest, and its counts when the subtree returns OK;
 * any other status ends the walk before the entry is read, and no forest
 * comes back inside its own subtree.  pure.brute_search walks every
 * arrangement as the reference. */
typedef struct {
    state s;                  /* the walk's cardinalities, over the caller's problem */
    int slots;
    const int *edge_u, *edge_v;
    int *parent;
    mask_t *cu, *cv;          /* per root, the edges whose v1 / v2 end its component
                               * holds */
    mask_t live;              /* the edges that join two components */
    int64_t counts[5];        /* valid, linear, subplans, splits, evals */
    int64_t nodes;
    double deadline;
    mask_t *comp_mask;        /* each root's component and its cost */
    double *comp_cost;
    mask_t *seq, *best_seq;   /* (edge, left, right, out card) per depth: the walk's and
                               * the best; the walk leaves out cards to sp_brute_search */
    double best;
    table memo;               /* (smaller mask << 32 | larger mask) -> merge cost */
    strings forests;          /* each walked forest's key -> the counts below it */
    int key_len;              /* the most components a key holds: n / 2 */
    double *walked;           /* per forest, the costs it was last walked at for them */
    size_t walked_room;       /* the forests walked has room for */
    mask_t *key;              /* the key of the forest being looked up */
    double *cost;             /* and its components' costs, in key order */
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
    if ((rc = merge(&w->s, a, b, &j)))
        return rc;
    *inc = j.cost;
    return put(&w->memo, key, j.cost);
}

/* The last depth, whose edges (choices) all join the two components left:
 * one memo_merge prices them, and each counts as valid, as linear when the
 * parent is, and as an evaluation.  The lowest edge of each orientation's
 * group is compared with the best, in edge order. */
static int last(walk *w, int depth, mask_t choices, int linear) {
    int e = BIT(choices), ru = find(w->parent, w->edge_u[e]), rv = find(w->parent, w->edge_v[e]);
    mask_t lm = w->comp_mask[ru], rm = w->comp_mask[rv];
    mask_t back = w->cu[rv] & w->cv[ru] & choices, *s = w->seq + 4 * depth;
    int64_t k = choices & (choices - 1) ? __builtin_popcountll(choices) : 1;
    double inc, cost[2];
    int rc;
    if ((rc = memo_merge(w, lm, rm, &inc)))
        return rc;
    w->counts[0] += k;
    w->counts[1] += linear ? k : 0;
    w->counts[4] += k - 1;
    cost[0] = inc + w->comp_cost[ru] + w->comp_cost[rv];
    cost[1] = inc + w->comp_cost[rv] + w->comp_cost[ru];
    for (int i = 0; i < 1 + (back != 0); i++) {
        if (cost[i] < w->best) {
            s[0] = (mask_t)(i ? BIT(back) : e);
            s[1] = i ? rm : lm;
            s[2] = i ? lm : rm;
            w->best = cost[i];
            memcpy(w->best_seq, w->seq, 4 * w->slots * sizeof *w->seq);
        }
    }
    return OK;
}

/* w->key becomes the forest's key: the mask of each component of two
 * tables or more, ascending, zero-padded to forests.width bytes; w->cost
 * gets their costs in the same order.  Returns how many there are. */
static int forest_key(walk *w) {
    int k = 0;
    memset(w->key, 0, w->forests.width);
    for (int r = 0; r <= w->slots; r++) {
        mask_t m = w->comp_mask[r];
        int i = k;
        if (w->parent[r] != r || SINGLE(m))
            continue;
        for (; i > 0 && w->key[i - 1] > m; i--) {
            w->key[i] = w->key[i - 1];
            w->cost[i] = w->cost[i - 1];
        }
        w->key[i] = m;
        w->cost[i] = w->comp_cost[r];
        k++;
    }
    return k;
}

/* Room in w->walked for each forest interned. */
static int walked_room(walk *w) {
    size_t room = w->forests.cap / 2;
    double *walked;
    if (w->walked_room >= w->forests.len)
        return OK;
    if (!(walked = realloc(w->walked, room * w->key_len * sizeof *walked)))
        return NOMEM;
    w->walked = walked;
    w->walked_room = room;
    return OK;
}

/* Whether some of the k components in w->cost costs less than when the
 * forest at index was walked (or is NaN either time). */
static int cheaper(const walk *w, size_t index, int k) {
    const double *walked = w->walked + index * w->key_len;
    for (int i = 0; i < k; i++)
        if (!(w->cost[i] >= walked[i]))
            return 1;
    return 0;
}

/* The walk on from depth over the edges in choices, the live ones.  A node
 * above the last depth hands its children to last() itself; step starts at
 * the last depth only when that is depth 0.  touched_cnt - depth counts the
 * components of two tables or more.  The first node and every 4096th read
 * the clock, when there is a deadline; a forest looked up counts as a node
 * whether or not it is walked. */
static int step(walk *w, int depth, mask_t choices, mask_t touched, int touched_cnt,
                int linear) {
    int64_t valid = w->counts[0], linears = w->counts[1], evals = w->counts[4];
    size_t index = DONE;
    int rc, fresh, k;
    if ((++w->nodes & 4095) == 1 && w->deadline != 0.0 && now() > w->deadline)
        return TIMEOUT;
    if (depth + 1 == w->slots)
        return last(w, depth, choices, linear);
    if (touched_cnt > depth) {
        k = forest_key(w);
        if ((rc = intern(&w->forests, w->key, &index, &fresh)) || (rc = walked_room(w)))
            return rc;
        if (fresh)
            w->forests.val[index].below.linear = -1;
        if (fresh || cheaper(w, index, k))
            memcpy(w->walked + index * w->key_len, w->cost, k * sizeof *w->cost);
        else if (!linear || w->forests.val[index].below.linear >= 0) {
            w->counts[0] += w->forests.val[index].below.valid;
            w->counts[1] += linear ? w->forests.val[index].below.linear : 0;
            w->counts[4] += w->forests.val[index].below.evals;
            return OK;
        }
    }
    for (mask_t rest = choices; rest;) {
        int e = BIT(rest), u = w->edge_u[e], v = w->edge_v[e], cnt, new_linear;
        int ru = find(w->parent, u), rv = find(w->parent, v);
        mask_t lm = w->comp_mask[ru], rm = w->comp_mask[rv], group = w->cu[ru] & w->cv[rv];
        mask_t live = w->live, cu = w->cu[rv], cv = w->cv[rv];
        int64_t k = group & (group - 1) ? __builtin_popcountll(group) : 1, before[5];
        double inc, saved_cost = w->comp_cost[rv];
        rest &= ~group;  /* e is the group's lowest edge: a lower one took it out */
        if (k > 1)
            memcpy(before, w->counts, sizeof before);
        if ((rc = memo_merge(w, lm, rm, &inc)))
            return rc;
        w->comp_cost[rv] = inc + w->comp_cost[ru] + w->comp_cost[rv];
        w->comp_mask[rv] = lm | rm;
        w->live &= ~(group | (cu & w->cv[ru]));
        w->cu[rv] |= w->cu[ru];
        w->cv[rv] |= w->cv[ru];
        w->parent[ru] = rv;
        w->seq[4 * depth] = (mask_t)e;
        w->seq[4 * depth + 1] = lm;
        w->seq[4 * depth + 2] = rm;
        cnt = touched_cnt + !((touched >> u) & 1) + !((touched >> v) & 1);
        new_linear = linear && cnt - (depth + 1) == 1;
        if ((rc = depth + 2 == w->slots
                  ? last(w, depth + 1, w->live, new_linear)
                  : step(w, depth + 1, w->live, touched | (mask_t)1 << u | (mask_t)1 << v, cnt,
                         new_linear)))
            return rc;
        if (k > 1)
            for (int i = 0; i < 5; i++)  /* subplans and splits stay 0 during the walk */
                w->counts[i] += (k - 1) * (w->counts[i] - before[i]);
        w->parent[ru] = ru;
        w->live = live;
        w->cu[rv] = cu;
        w->cv[rv] = cv;
        w->comp_mask[rv] = rm;
        w->comp_cost[rv] = saved_cost;
    }
    if (index != DONE) {
        w->forests.val[index].below.valid = w->counts[0] - valid;
        w->forests.val[index].below.evals = w->counts[4] - evals;
        if (linear)
            w->forests.val[index].below.linear = w->counts[1] - linears;
    }
    return OK;
}

/* pure.brute_search; joins receives the best arrangement's (edge, left,
 * right, out card) joins and counts the five counters after them.  A
 * forest's key holds at most n / 2 components. */
int sp_brute_search(const problem *p, double deadline, double *best, mask_t *joins,
                    int64_t counts[5], mask_t *missing) {
    int n = p->n, slots = n - 1, rc;
    walk w = { .s = { .p = p }, .slots = slots, .edge_u = p->edge_u, .edge_v = p->edge_v,
               .deadline = deadline, .best = INFINITY, .key_len = n / 2,
               .forests = { .width = sizeof(mask_t) * (size_t)(n / 2) } };
    if (n == 1) {  /* one empty arrangement, valid and linear */
        int64_t one[5] = { 1, 1, 0, 0, 0 };
        *best = 0.0;
        memcpy(counts, one, sizeof one);
        return OK;
    }
    rc = open_memo(&w.s);
    w.parent = malloc(n * sizeof *w.parent);
    w.cu = calloc(n, sizeof *w.cu);
    w.cv = calloc(n, sizeof *w.cv);
    w.comp_mask = malloc(n * sizeof *w.comp_mask);
    w.comp_cost = malloc(n * sizeof *w.comp_cost);
    w.seq = calloc(4 * (size_t)slots, sizeof *w.seq);
    w.best_seq = malloc(4 * (size_t)slots * sizeof *w.best_seq);
    w.key = malloc(w.forests.width);
    w.cost = malloc(w.key_len * sizeof *w.cost);
    if (rc == OK && (!w.parent || !w.cu || !w.cv || !w.comp_mask || !w.comp_cost || !w.seq
                     || !w.best_seq || !w.key || !w.cost))
        rc = NOMEM;
    if (rc == OK) {
        for (int v = 0; v < n; v++) {
            w.parent[v] = v;
            w.comp_mask[v] = (mask_t)1 << v;
            w.comp_cost[v] = 0.0;
        }
        for (int e = 0; e < p->n_edges; e++) {
            w.cu[p->edge_u[e]] |= (mask_t)1 << e;
            w.cv[p->edge_v[e]] |= (mask_t)1 << e;
            if (p->edge_u[e] != p->edge_v[e])
                w.live |= (mask_t)1 << e;
        }
        rc = step(&w, 0, w.live, 0, 0, 1);
    }
    /* The best arrangement's out cards, read from card(), which priced them. */
    for (int i = 0; rc == OK && w.best < INFINITY && i < slots; i++) {
        mask_t *join = w.best_seq + 4 * i;
        double out;
        if ((rc = card(&w.s, join[1] | join[2], &out)) == OK)
            memcpy(join + 3, &out, sizeof out);
    }
    if (rc == OK)
        rc = count_unions(&w.memo, &w.counts[2]);
    w.counts[3] = (int64_t)w.memo.len;
    *best = w.best;
    if (rc == OK && w.best < INFINITY)
        memcpy(joins, w.best_seq, 4 * (size_t)slots * sizeof *joins);
    memcpy(counts, w.counts, sizeof w.counts);
    *missing = w.s.missing;
    close_memo(&w.s);
    drop(&w.memo);
    drop_strings(&w.forests);
    free(w.parent);
    free(w.cu);
    free(w.cv);
    free(w.comp_mask);
    free(w.comp_cost);
    free(w.seq);
    free(w.best_seq);
    free(w.key);
    free(w.cost);
    free(w.walked);
    return rc;
}
