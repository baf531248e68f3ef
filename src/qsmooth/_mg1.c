/* The M/G/1 feedback-network event loop of qsmooth.queueing, compiled.
 *
 * It mirrors QueueSimulator's Python kernel statement for statement: the
 * same event scan and tie order, the same uniforms in the same order, the
 * same floating-point operations in the same order.  Built without FMA
 * contraction (-ffp-contract=off), it returns the same costs bit for bit.
 *
 * The kernel stops at an event boundary, before touching any state, when
 * fewer than 3 uniforms (the most one event draws) remain in the buffer or
 * when the ring that the next event may push onto is full; the caller
 * refills or grows, and calls again, and the record keeps the count of
 * costs done so far.
 *
 * mg1_fold folds the costs the kernels left in their buffers into the fast
 * iterate's scalar recursion, as qsmooth.optimizer does in Python.
 *
 * Every argument travels in a record the caller binds once, so a call
 * from Python passes one pointer.
 */
#include <math.h>
#include <stdint.h>

typedef struct {
    double clock;           /* time of the latest service completion */
    double entry_sum;       /* sum of entry times of customers present */
    int64_t n_present;
    int64_t arrivals_seen;
    int64_t departures_seen;
    int64_t k;              /* nodes */
    int64_t cap;            /* slots per ring */
    int64_t full;           /* the node whose full ring stopped the loop, or -1 */
    int64_t done;           /* costs written so far in this call */
    int64_t want;           /* costs the call asks for */
    int64_t u_pos;          /* next unread uniform */
    int64_t u_len;
    const double *u;        /* the stream's buffer of uniforms */
    const double *rates;    /* external arrival rate per node */
    const double *p_leave;
    const double *fac;      /* service-time factor per node */
    double *serving;        /* entry time of the customer in service */
    double *comp;           /* completion time, INFINITY when idle */
    double *nxt;            /* next external arrival */
    double *ring;           /* k FIFO rings of cap entry times */
    int64_t *head;
    int64_t *len;
    double *costs;
} mg1_state;

static void push(mg1_state *s, int64_t node, double entry)
{
    s->ring[node * s->cap + (s->head[node] + s->len[node]) % s->cap] = entry;
    s->len[node] += 1;
}

static double pop(mg1_state *s, int64_t node)
{
    double entry = s->ring[node * s->cap + s->head[node]];
    s->head[node] = (s->head[node] + 1) % s->cap;
    s->len[node] -= 1;
    return entry;
}

/* Runs until s->want costs are written to s->costs or the loop must stop;
 * returns the number of costs written so far, s->done included, and
 * stores it in s->done. */
int64_t mg1_observe(mg1_state *s)
{
    const int64_t L = s->want;
    int64_t done = s->done;
    const int64_t k = s->k;
    const double *u = s->u, *fac = s->fac;
    double *serving = s->serving, *comp = s->comp, *nxt = s->nxt;
    int64_t pos = s->u_pos;
    int64_t n_present = s->n_present;
    double entry_sum = s->entry_sum;

    s->full = -1;
    while (done < L) {
        if (s->u_len - pos < 3)
            break;
        double t_min = INFINITY;
        int64_t node = -1;
        int is_completion = 0;
        for (int64_t i = 0; i < k; i++) {
            if (nxt[i] < t_min) {
                t_min = nxt[i];
                node = i;
                is_completion = 0;
            }
            if (comp[i] < t_min) {
                t_min = comp[i];
                node = i;
                is_completion = 1;
            }
        }
        int64_t dest = node + 1 < k ? node + 1 : 0;
        int64_t pushed = is_completion ? dest : node;
        if (s->len[pushed] == s->cap) {
            s->full = pushed;
            break;
        }
        double clock = t_min;

        if (!is_completion) {
            nxt[node] = clock - log(u[pos++]) / s->rates[node];
            n_present += 1;
            entry_sum += clock;
            s->arrivals_seen += 1;
            if (comp[node] == INFINITY) {
                serving[node] = clock;
                comp[node] = clock + u[pos++] * fac[node];
            } else {
                push(s, node, clock);
            }
            continue;
        }

        /* service completion: the observation epoch */
        s->clock = clock;
        s->costs[done++] = (double)n_present * clock - entry_sum;
        double entry = serving[node];
        double p = s->p_leave[node];
        if (p > 0.0 && u[pos++] < p) {
            n_present -= 1;
            entry_sum -= entry;
            s->departures_seen += 1;
        } else if (dest == node || comp[dest] != INFINITY) {
            push(s, dest, entry);
        } else {
            serving[dest] = entry;
            comp[dest] = clock + u[pos++] * fac[dest];
        }
        if (s->len[node] > 0) {
            serving[node] = pop(s, node);
            comp[node] = clock + u[pos++] * fac[node];
        } else {
            comp[node] = INFINITY;
        }
    }
    s->u_pos = pos;
    s->n_present = n_present;
    s->entry_sum = entry_sum;
    s->done = done;
    return done;
}

typedef struct {
    const double *plus;     /* costs of the (+) simulation */
    const double *minus;    /* costs of the (-) simulation; NULL with one */
    int64_t L;
    double one_minus_b;
    double b;
} mg1_fold_args;

/* s = (1-b) s + b (h+[m] - h-[m]) over m = 0..L-1 from s = 0, or b h[m]
 * with one simulation: the order and roundings of the Python fold. */
double mg1_fold(const mg1_fold_args *f)
{
    const double one_minus_b = f->one_minus_b, b = f->b;
    const double *plus = f->plus, *minus = f->minus;
    double s = 0.0;
    if (minus) {
        for (int64_t m = 0; m < f->L; m++)
            s = one_minus_b * s + b * (plus[m] - minus[m]);
    } else {
        for (int64_t m = 0; m < f->L; m++)
            s = one_minus_b * s + b * plus[m];
    }
    return s;
}
