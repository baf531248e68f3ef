/* The M/G/1 feedback-network event loop of qsmooth.queueing, compiled.
 *
 * It mirrors QueueSimulator's Python kernel statement for statement: the
 * same event scan and tie order, the same uniforms in the same order, the
 * same floating-point operations in the same order.  Built without FMA
 * contraction (-ffp-contract=off), it returns the same costs bit for bit.
 *
 * When fewer than 3 uniforms (the most one event draws) remain in the
 * buffer, the kernel refills it from the stream's generator, as
 * RngStream.reserve(3) does, into a buffer of its own.  It stops at an
 * event boundary, before touching any state, when the ring that the next
 * event may push onto is full, or when it runs short of uniforms with no
 * generator to refill from; the caller grows or refills, and calls again,
 * and the record keeps the count of costs done so far.
 *
 * sf_run, further down, runs whole outer iterations of the two-timescale
 * optimizer over one or two simulators, each such a kernel, a quadratic
 * cost whose target it is given, or one the caller observes.
 *
 * Every argument travels in a record the caller binds once, so a call
 * from Python passes one pointer.
 */
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>

/* The records shared with Python, mg1_state and sf_run_t, and the SF_ stop
 * codes are described here only: qsmooth._native lays its ctypes records
 * out from these declarations when it is imported, and binds each stop
 * code by its name.  So every typedef struct in this file declares one
 * member per line, as `T name;`, `T *name;` or `T *name[N];`, with an
 * optional leading const, and by value only double, int64_t, ddot_fn or
 * next_fn; comments may go anywhere.  Any other line fails that import,
 * quoting the line.
 */

/* a numpy bit generator's next_uint64, as its ctypes interface gives it */
typedef uint64_t (*next_fn)(void *state);

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
    const double *u;        /* the stream's buffer of uniforms, or own */
    /* the stream's Philox generator (numpy's Philox.ctypes), which refills
       own; NULL where the caller refills the buffer */
    void *bitgen;
    next_fn next_uint64;
    double *own;            /* refill_size + 2 slots */
    int64_t refill_size;    /* fresh uniforms per refill */
    int64_t refills;        /* refills made here */
    const double *rates;    /* external arrival rate per node */
    const double *p_leave;
    double *fac;            /* service-time factor per node */
    double *serving;        /* entry time of the customer in service */
    double *comp;           /* completion time, INFINITY when idle */
    double *nxt;            /* next external arrival */
    double *ring;           /* k FIFO rings of cap entry times */
    int64_t *head;
    int64_t *len;
    double *costs;
    /* for the service factors: node i's block of theta is
       [bounds[i], bounds[i+1]), with target theta_target and 1/R_i inv_r[i] */
    const double *target;
    const int64_t *bounds;
    const double *inv_r;
    double *diff;           /* scratch: control - target */
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

/* RngStream.reserve(3) on the stream's generator, with `pos` the next
 * unread uniform: the unread tail moves to the front of own, then come
 * refill_size fresh uniforms, each made from one raw draw as
 * RngStream._fresh makes it.  Returns own, read from 0. */
static const double *refill(mg1_state *s, int64_t pos)
{
    const int64_t tail = s->u_len - pos;
    memmove(s->own, s->u + pos, (size_t)tail * sizeof(double));
    for (int64_t i = 0; i < s->refill_size; i++)
        s->own[tail + i] = ((double)(s->next_uint64(s->bitgen) >> 11) + 0.5) * 0x1p-53;
    s->u = s->own;
    s->u_len = tail + s->refill_size;
    s->refills += 1;
    return s->own;
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
        if (s->u_len - pos < 3) {
            if (s->bitgen == NULL)
                break;
            u = refill(s, pos);
            pos = 0;
        }
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

/* ------------------------------------------------------------------------
 * sf_run: the outer loop of qsmooth.optimizer._run_loop, compiled.
 *
 * It mirrors the Python loop, which stays the reference, operation for
 * operation, and takes the transcendentals and reductions from where
 * numpy does, so that every number comes out bit for bit:
 *   - the array Box-Muller reads tables numpy computed over the
 *     perturbation stream's buffer (qsmooth.rng.box_muller_tables);
 *   - the scalar draws (chi-squared rejection, scalar normals) call libm's
 *     log, sin, cos and pow, as Python's math module and float ** do;
 *   - every np.dot is numpy's own BLAS ddot, reached through a pointer;
 *   - elementwise + - * / and np.maximum / np.minimum are written out in
 *     numpy's order, NaN propagation and ties included.
 *
 * The loop returns to its caller when the perturbation stream's buffer runs
 * short (or a simulator's, with no generator to refill from), when a ring
 * is full, when the caller is to observe a simulator, at each trajectory
 * point, at M and on an error; the record keeps where it stands, and the
 * next call resumes there.
 */

/* numpy's ILP64 CBLAS ddot */
typedef double (*ddot_fn)(int64_t n, const double *x, int64_t incx,
                          const double *y, int64_t incy);

enum {
    SF_DONE,        /* M outer iterations done */
    SF_RECORD,      /* a trajectory point is due after iteration n */
    SF_DIVERGED,    /* the fast iterate of iteration n failed the guard */
    SF_BAD_RHO,     /* rho <= 0 at iteration n */
    SF_PERTURBATION,/* the perturbation stream needs `need` uniforms */
    SF_SIMULATOR,   /* simulator `stopped` needs a larger ring, or uniforms
                       that it has no generator to refill from */
    SF_OBSERVE      /* the caller is to observe simulators `stopped` to
                       phase - 2 and write their costs */
};

/* one member per line: see the comment above mg1_state */
typedef struct {
    /* constants of the run */
    int64_t dim;
    int64_t M;
    int64_t L;
    int64_t n_sims;         /* 1 (Gq-SF1) or 2 (Gq-SF2) */
    int64_t record_every;   /* 0: no trajectory */
    int64_t q_cmp;          /* sign of q - 1 */
    double shape;           /* of the mixing gamma: half the chi-squared df */
    double scale;
    double rho_coeff;       /* (1-q)/(N+2-Nq) */
    double numer;           /* 2 (Gq-SF1) or 1 (Gq-SF2) */
    double beta_tc;         /* beta * (N+2-Nq) */
    double beta;
    double gamma;
    double z_limit;
    const double *lower;
    const double *upper;
    ddot_fn ddot;
    /* simulator i is the kernel sims[i], the quadratic cost
       ||control - targets[i]||^2, or, where both are NULL, one the caller
       observes */
    mg1_state *sims[2];
    const double *targets[2];
    double *costs[2];       /* simulator i's L costs, which the fold reads */
    /* the perturbation stream's buffer and, per value u, sqrt(-2 log u),
       cos(2 pi u) and sin(2 pi u) */
    const double *u;
    const double *radius;
    const double *cosine;
    const double *sine;
    int64_t u_pos;
    int64_t u_len;
    int64_t need;           /* uniforms from u_pos on that a draw ran short of */
    int64_t has_spare;      /* the stream's cached normal */
    double spare;
    /* iterates, and dim-sized scratch */
    double *theta;
    double *z;
    double *z_next;
    double *eta;
    double *coeff;
    double *controls;       /* n_sims rows of dim */
    double *diff;           /* control - target of a quadratic */
    /* where the loop stands */
    int64_t n;              /* outer iterations done */
    int64_t phase;          /* 0: draw; 1 + i: simulator i observing */
    int64_t stopped;
    double rho;
    double a;               /* a(n+1), b(n+1) and 1 - b(n+1) */
    double b;
    double one_minus_b;
} sf_run_t;

/* np.dot of two vectors: numpy's DOUBLE_dot adds ddot's result to 0.0 */
static double dot(ddot_fn ddot, int64_t n, const double *x, const double *y)
{
    return 0.0 + ddot(n, x, 1, y, 1);
}

/* np.maximum and np.minimum: a NaN first operand wins, then a NaN second
 * one, and a tie (+0 against -0) gives the second operand */
static double np_max(double a, double b)
{
    return (a != a || a > b) ? a : b;
}

static double np_min(double a, double b)
{
    return (a != a || a < b) ? a : b;
}

/* Per node i, 1/R_i + ||control_i - target_i||^2 into fac[i], as
 * QueueSimulator._set_service_factors computes it.  The loop hands a kernel
 * whose factors are not all finite to the caller (see finite_factors). */
static void set_factors(mg1_state *s, const double *control, int64_t dim, ddot_fn ddot)
{
    for (int64_t i = 0; i < dim; i++)
        s->diff[i] = control[i] - s->target[i];
    for (int64_t i = 0; i < s->k; i++) {
        const double *block = s->diff + s->bounds[i];
        s->fac[i] = s->inv_r[i] + dot(ddot, s->bounds[i + 1] - s->bounds[i], block, block);
    }
}

/* Whether every service factor is finite: no event loop can run on one
 * that is not, and the caller's observe raises the error that says so. */
static int finite_factors(const mg1_state *s)
{
    for (int64_t i = 0; i < s->k; i++)
        if (!(s->fac[i] < INFINITY))  /* NaN fails the comparison too */
            return 0;
    return 1;
}

/* QuadraticCostSimulator.observe: L copies of ||control - target||^2,
 * the subtraction elementwise and the square through np.dot, into
 * costs[i].  Returns 0, writing nothing, when that cost is not finite:
 * the caller's observe then computes it, with numpy's warnings. */
static int quadratic_costs(sf_run_t *r, int64_t i)
{
    const double *control = r->controls + i * r->dim, *target = r->targets[i];
    for (int64_t j = 0; j < r->dim; j++)
        r->diff[j] = control[j] - target[j];
    const double cost = dot(r->ddot, r->dim, r->diff, r->diff);
    if (!(cost < INFINITY))  /* NaN fails the comparison too */
        return 0;
    for (int64_t m = 0; m < r->L; m++)
        r->costs[i][m] = cost;
    return 1;
}

/* A read position in the perturbation stream, with its cached normal.  A
 * draw that runs short sets `want` (one past the last uniform it needed)
 * and returns 0; the caller then drops the cursor. */
typedef struct {
    const sf_run_t *r;
    int64_t pos;
    int64_t want;
    int64_t has_spare;
    double spare;
} cursor_t;

static int uniform(cursor_t *c, double *out)
{
    if (c->pos >= c->r->u_len) {
        c->want = c->pos + 1;
        return 0;
    }
    *out = c->r->u[c->pos++];
    return 1;
}

/* RngStream.standard_normal() */
static int normal(cursor_t *c, double *out)
{
    if (c->has_spare) {
        c->has_spare = 0;
        *out = c->spare;
        return 1;
    }
    double u1, u2;
    if (!uniform(c, &u1) || !uniform(c, &u2))
        return 0;
    double r = sqrt(-2.0 * log(u1));
    c->spare = r * sin(2.0 * M_PI * u2);
    c->has_spare = 1;
    *out = r * cos(2.0 * M_PI * u2);
    return 1;
}

/* RngStream._gamma_unit_scale(shape) */
static int gamma_unit_scale(cursor_t *c, double shape, double *out)
{
    double boost = 1.0;
    if (shape < 1.0) {
        double u;
        if (!uniform(c, &u))
            return 0;
        boost = pow(u, 1.0 / shape);
        shape = shape + 1.0;
    }
    const double d = shape - 1.0 / 3.0;
    const double cd = 1.0 / sqrt(9.0 * d);
    for (;;) {
        double x, u;
        if (!normal(c, &x))
            return 0;
        double t = 1.0 + cd * x;
        if (t <= 0.0)
            continue;
        double v = t * t * t;
        if (!uniform(c, &u))
            return 0;
        if (log(u) < 0.5 * x * x + d - d * v + d * log(v)) {
            *out = boost * d * v;
            return 1;
        }
    }
}

/* qgaussian.sample_standard(q, dim, stream) into r->eta and r->rho */
static int draw(sf_run_t *r, cursor_t *c)
{
    const int64_t dim = r->dim;
    double *eta = r->eta;

    /* standard_normal(dim): the cached normal first, then pairs */
    int64_t first = 0;
    if (c->has_spare) {
        eta[0] = c->spare;
        c->has_spare = 0;
        first = 1;
    }
    const int64_t need = dim - first;
    const int64_t pairs = (need + 1) / 2;
    if (r->u_len - c->pos < 2 * pairs) {
        c->want = c->pos + 2 * pairs;
        return 0;
    }
    for (int64_t j = 0; j < pairs; j++) {
        const int64_t p = c->pos + 2 * j;
        const double radius = r->radius[p];
        eta[first + 2 * j] = radius * r->cosine[p + 1];
        const double odd = radius * r->sine[p + 1];
        if (2 * j + 1 < need) {
            eta[first + 2 * j + 1] = odd;
        } else {
            c->spare = odd;
            c->has_spare = 1;
        }
    }
    c->pos += 2 * pairs;

    if (r->q_cmp == 0) {
        r->rho = 1.0;
        return 1;
    }
    double g;
    if (!gamma_unit_scale(c, r->shape, &g))
        return 0;
    double a = 2.0 * g;
    if (r->q_cmp < 0)
        a += dot(r->ddot, dim, eta, eta);
    const double root = sqrt(a);
    for (int64_t i = 0; i < dim; i++)
        eta[i] = r->scale * eta[i] / root;
    r->rho = 1.0 - r->rho_coeff * dot(r->ddot, dim, eta, eta);
    return 1;
}

/* Outer iteration n's perturbation, its weight and the projected controls;
 * then each compiled simulator's service factors.  Returns -1 when the
 * simulators can start, SF_BAD_RHO, or SF_PERTURBATION with nothing
 * consumed when the stream's buffer runs short. */
static int64_t begin_iteration(sf_run_t *r)
{
    const int64_t dim = r->dim;
    const double n1 = (double)(r->n + 1);
    r->a = 1.0 / n1;
    r->b = pow(n1, -r->gamma);
    r->one_minus_b = 1.0 - r->b;

    cursor_t c = {r, r->u_pos, 0, r->has_spare, r->spare};
    if (!draw(r, &c)) {
        r->need = c.want - r->u_pos;
        return SF_PERTURBATION;
    }
    r->u_pos = c.pos;
    r->has_spare = c.has_spare;
    r->spare = c.spare;
    if (r->rho <= 0.0)
        return SF_BAD_RHO;

    const double weight = r->numer / (r->beta_tc * r->rho);
    for (int64_t i = 0; i < dim; i++)
        r->coeff[i] = weight * r->eta[i];
    for (int64_t i = 0; i < dim; i++) {
        const double shift = r->beta * r->eta[i];
        r->controls[i] = np_min(np_max(r->theta[i] + shift, r->lower[i]), r->upper[i]);
        if (r->n_sims == 2)
            r->controls[dim + i] =
                np_min(np_max(r->theta[i] - shift, r->lower[i]), r->upper[i]);
    }
    for (int64_t s = 0; s < r->n_sims; s++) {
        mg1_state *sim = r->sims[s];
        if (sim == NULL)
            continue;
        set_factors(sim, r->controls + s * dim, dim, r->ddot);
        sim->done = 0;
        sim->want = r->L;
    }
    return -1;
}

/* Fold the L costs (or cost differences) into Z, guard it and step theta;
 * returns -1 to go on, SF_RECORD or SF_DIVERGED. */
static int64_t end_iteration(sf_run_t *r)
{
    const int64_t dim = r->dim, L = r->L;
    const double b = r->b, one_minus_b = r->one_minus_b;
    const double *plus = r->costs[0];
    double s = 0.0;
    if (r->n_sims == 2) {
        const double *minus = r->costs[1];
        for (int64_t m = 0; m < L; m++)
            s = one_minus_b * s + b * (plus[m] - minus[m]);
    } else {
        for (int64_t m = 0; m < L; m++)
            s = one_minus_b * s + b * plus[m];
    }
    const double decay = pow(one_minus_b, (double)L);
    int ok = 1;
    for (int64_t i = 0; i < dim; i++) {
        r->z_next[i] = decay * r->z[i] + s * r->coeff[i];
        if (!(fabs(r->z_next[i]) <= r->z_limit))
            ok = 0;  /* NaN fails the comparison too */
    }
    if (ok) {
        /* theta steps with the Z that entered the iteration */
        for (int64_t i = 0; i < dim; i++)
            r->theta[i] =
                np_min(np_max(r->theta[i] - r->a * r->z[i], r->lower[i]), r->upper[i]);
    }
    for (int64_t i = 0; i < dim; i++)
        r->z[i] = r->z_next[i];
    if (!ok)
        return SF_DIVERGED;
    r->n += 1;
    r->phase = 0;
    if (r->record_every > 0 && (r->n % r->record_every == 0 || r->n == r->M))
        return SF_RECORD;
    return -1;
}

/* Runs outer iterations from where the record stands until a stop; returns
 * its SF_ code. */
int64_t sf_run(sf_run_t *r)
{
    for (;;) {
        if (r->phase == 0) {
            if (r->n == r->M)
                return SF_DONE;
            int64_t stop = begin_iteration(r);
            if (stop >= 0)
                return stop;
            r->phase = 1;
        }
        while (r->phase <= r->n_sims) {
            const int64_t i = r->phase - 1;
            mg1_state *s = r->sims[i];
            if (r->targets[i] != NULL ? !quadratic_costs(r, i)
                                      : s == NULL || !finite_factors(s)) {
                /* the caller observes this simulator and every following
                   one it observes, then resumes after them */
                r->stopped = i;
                do
                    r->phase += 1;
                while (r->phase <= r->n_sims && r->sims[r->phase - 1] == NULL &&
                       r->targets[r->phase - 1] == NULL);
                return SF_OBSERVE;
            }
            if (s != NULL && mg1_observe(s) < r->L) {
                r->stopped = i;
                return SF_SIMULATOR;
            }
            r->phase += 1;
        }
        int64_t stop = end_iteration(r);
        if (stop >= 0)
            return stop;
    }
}
