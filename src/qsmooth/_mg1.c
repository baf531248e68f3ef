/* The M/G/1 feedback-network event loop of qsmooth.queueing, compiled.
 *
 * It mirrors QueueSimulator's Python kernel statement for statement: the
 * same event scan and tie order, the same uniforms in the same order, the
 * same floating-point operations in the same order.  Built without FMA
 * contraction (-ffp-contract=off), it returns the same costs bit for bit.
 *
 * It reads uniforms from the stream's own buffer and, when it finds it
 * read to its end, refills it in place from the stream's generator, as
 * RngStream._refill does (next_uniform).  It stops only at an event
 * boundary, before touching any state, when the ring that the next event
 * may push onto is full; the caller grows the rings and calls again, and
 * the record keeps the count of costs done so far.
 *
 * sf_run, further down, runs whole outer iterations of the two-timescale
 * optimizer over one or two simulators, each such a kernel, a quadratic
 * cost whose target it is given, or one the caller observes.
 *
 * Every argument travels in a record the caller binds once, so a call
 * from Python passes one pointer: a simulator's, mg1_state, is
 * qsmooth._native.NativeKernel itself.
 */
#include <math.h>
#include <stddef.h>
#include <stdint.h>

/* The records shared with Python (stream_t, ufunc_loop_t, mg1_state and
 * sf_run_t) and the SF_ stop codes are described here only:
 * qsmooth._native lays its ctypes records out from these declarations when
 * it is imported, and binds each stop code by its name.  So every typedef
 * struct in this file declares one member per line, as `T name;`,
 * `T *name;` or `T *name[N];`, with an optional leading const, and by value
 * only double, int64_t, ddot_fn, next_fn, loop_fn or a record declared
 * above it, whose members Python then reaches as the outer record's own;
 * comments may go anywhere.  Any other line fails that import, quoting the
 * line.
 */

/* a numpy bit generator's next_uint64, as its ctypes interface gives it */
typedef uint64_t (*next_fn)(void *state);

/* An RngStream, as qsmooth._native hands it to a compiled loop and back
 * around each call (only one that _refills_in_c allows, so no loop stops for
 * uniforms): its buffer of u_len uniforms, bound once, its position, its
 * cached normal and its Philox generator (numpy's Philox.ctypes), from
 * which next_uniform refills the buffer in place. */
typedef struct {
    double *u;              /* the stream's buffer of uniforms */
    int64_t u_pos;          /* next unread uniform */
    int64_t u_len;
    void *bitgen;
    next_fn next_uint64;
    int64_t refills;        /* refills made here */
    int64_t has_spare;      /* whether the stream holds a cached normal, */
    double spare;           /* which sf_run's next normal draw returns */
} stream_t;

/* RngStream.uniform01(): the next uniform of the buffer, which is first
 * refilled in place, as RngStream._refill refills it, when it is read to
 * its end: u_len fresh uniforms, each made from one raw draw as
 * RngStream._fresh makes it. */
static inline double next_uniform(stream_t *s)
{
    if (s->u_pos == s->u_len) {
        for (int64_t i = 0; i < s->u_len; i++)
            s->u[i] = ((double)(s->next_uint64(s->bitgen) >> 11) + 0.5) * 0x1p-53;
        s->u_pos = 0;
        s->refills += 1;
    }
    return s->u[s->u_pos++];
}

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
    stream_t stream;        /* the simulator's stream */
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

/* Runs until s->want costs are written to s->costs or the loop must stop;
 * returns the number of costs written so far, s->done included, and
 * stores it in s->done. */
int64_t mg1_observe(mg1_state *s)
{
    const int64_t L = s->want;
    int64_t done = s->done;
    const int64_t k = s->k;
    stream_t in = s->stream;  /* kept in registers, written back at the end */
    const double *fac = s->fac;
    double *serving = s->serving, *comp = s->comp, *nxt = s->nxt;
    int64_t n_present = s->n_present;
    double entry_sum = s->entry_sum;

    s->full = -1;
    while (done < L) {
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
            nxt[node] = clock - log(next_uniform(&in)) / s->rates[node];
            n_present += 1;
            entry_sum += clock;
            s->arrivals_seen += 1;
            if (comp[node] == INFINITY) {
                serving[node] = clock;
                comp[node] = clock + next_uniform(&in) * fac[node];
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
        if (p > 0.0 && next_uniform(&in) < p) {
            n_present -= 1;
            entry_sum -= entry;
            s->departures_seen += 1;
        } else if (dest == node || comp[dest] != INFINITY) {
            push(s, dest, entry);
        } else {
            serving[dest] = entry;
            comp[dest] = clock + next_uniform(&in) * fac[dest];
        }
        if (s->len[node] > 0) {
            serving[node] = pop(s, node);
            comp[node] = clock + next_uniform(&in) * fac[node];
        } else {
            comp[node] = INFINITY;
        }
    }
    s->stream = in;
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
 *   - the array Box-Muller calls numpy's own float64 log loop, through a
 *     pointer, with the lengths and strides that
 *     RngStream.standard_normal(size) calls it with, and libm's cos and
 *     sin, which numpy's float64 cos and sin are (qsmooth._native checks
 *     that they give libm's bits);
 *   - the scalar draws (chi-squared rejection, scalar normals) call libm's
 *     log, sin, cos and pow, as Python's math module and float ** do;
 *   - every np.dot is numpy's own BLAS ddot, reached through a pointer;
 *   - elementwise + - * / and sqrt, np.maximum and np.minimum are written
 *     out in numpy's order, NaN propagation and ties included.
 *
 * The loop refills the perturbation stream's buffer from its generator, as
 * mg1_observe refills a simulator's.  It returns to its caller only when a
 * ring is full, when the caller is to observe a simulator, at each
 * trajectory point, at M and on an error; the record keeps where it
 * stands, and the next call resumes there.
 */

/* numpy's ILP64 CBLAS ddot */
typedef double (*ddot_fn)(int64_t n, const double *x, int64_t incx,
                          const double *y, int64_t incy);

/* numpy's PyArrayMethod_StridedLoop (NEP 43) */
typedef int (*loop_fn)(void *context, char *const *data, const intptr_t *dimensions,
                       const intptr_t *strides, void *auxdata);

/* one of numpy's float64 ufunc loops, as its ufunc_call_info gives it */
typedef struct {
    loop_fn loop;
    void *context;
    void *auxdata;
} ufunc_loop_t;

/* The ufunc over n values, read every `step` doubles from `in`, written
 * contiguously to `out`.  The loops qsmooth._native checks never fail. */
static void apply(const ufunc_loop_t *f, const double *in, int64_t step, double *out, int64_t n)
{
    char *const data[2] = {(char *)in, (char *)out};
    const intptr_t dimensions[1] = {(intptr_t)n};
    const intptr_t strides[2] = {(intptr_t)(step * sizeof(double)), sizeof(double)};
    f->loop(f->context, data, dimensions, strides, f->auxdata);
}

enum {
    SF_DONE,        /* M outer iterations done */
    SF_RECORD,      /* a trajectory point is due after iteration n */
    SF_DIVERGED,    /* the fast iterate of iteration n failed the guard */
    SF_BAD_RHO,     /* rho <= 0 at iteration n */
    SF_SIMULATOR,   /* simulator `stopped` has a full ring to grow */
    SF_OBSERVE      /* the caller is to observe simulators `stopped` to
                       phase - 2 and write their costs */
};

/* one member per line: see the comment above stream_t */
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
    const ufunc_loop_t *log_loop;
    /* simulator i is the kernel sims[i], the quadratic cost
       ||control - targets[i]||^2, or, where both are NULL, one the caller
       observes */
    mg1_state *sims[2];
    const double *targets[2];
    double *costs[2];       /* simulator i's L costs, which the fold reads */
    stream_t stream;        /* the perturbation stream */
    /* iterates, and dim-sized scratch */
    double *theta;
    double *z;
    double *z_next;
    double *eta;
    double *coeff;
    double *controls;       /* n_sims rows of dim */
    double *diff;           /* control - target of a quadratic */
    double *uniforms;       /* a normal draw's uniforms, dim + 1 at most */
    double *logs;           /* np.log of each pair's first uniform, (dim + 1) / 2 */
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

/* RngStream.standard_normal() */
static double normal(sf_run_t *r)
{
    if (r->stream.has_spare) {
        r->stream.has_spare = 0;
        return r->stream.spare;
    }
    const double u1 = next_uniform(&r->stream);
    const double u2 = next_uniform(&r->stream);
    const double radius = sqrt(-2.0 * log(u1));
    r->stream.spare = radius * sin(2.0 * M_PI * u2);
    r->stream.has_spare = 1;
    return radius * cos(2.0 * M_PI * u2);
}

/* RngStream._gamma_unit_scale(shape) */
static double gamma_unit_scale(sf_run_t *r, double shape)
{
    double boost = 1.0;
    if (shape < 1.0) {
        boost = pow(next_uniform(&r->stream), 1.0 / shape);
        shape = shape + 1.0;
    }
    const double d = shape - 1.0 / 3.0;
    const double cd = 1.0 / sqrt(9.0 * d);
    for (;;) {
        const double x = normal(r);
        const double t = 1.0 + cd * x;
        if (t <= 0.0)
            continue;
        const double v = t * t * t;
        if (log(next_uniform(&r->stream)) < 0.5 * x * x + d - d * v + d * log(v))
            return boost * d * v;
    }
}

/* RngStream.standard_normal(dim) into r->eta: the cached normal first, then
 * pairs, pair j from uniforms 2j and 2j + 1 of the draw's; the unused half
 * of the last pair is cached */
static void normals(sf_run_t *r)
{
    const int64_t dim = r->dim;
    double *eta = r->eta;
    stream_t *s = &r->stream;
    int64_t first = 0;
    if (s->has_spare) {
        eta[0] = s->spare;
        s->has_spare = 0;
        first = 1;
    }
    const int64_t need = dim - first;
    const int64_t pairs = (need + 1) / 2;
    if (pairs == 0)
        return;
    double *u = r->uniforms;
    for (int64_t i = 0; i < 2 * pairs; i++)
        u[i] = next_uniform(s);
    /* np.log(u[0::2]), then np.sqrt(-2.0 * log) and 2.0 * np.pi * u[1::2] */
    apply(r->log_loop, u, 2, r->logs, pairs);
    for (int64_t j = 0; j < pairs; j++) {
        const double radius = sqrt(-2.0 * r->logs[j]);
        const double angle = 2.0 * M_PI * u[2 * j + 1];
        eta[first + 2 * j] = radius * cos(angle);
        const double odd = radius * sin(angle);
        if (2 * j + 1 < need) {
            eta[first + 2 * j + 1] = odd;
        } else {
            s->spare = odd;
            s->has_spare = 1;
        }
    }
}

/* qgaussian.sample_standard(q, dim, stream) into r->eta and r->rho */
static void draw(sf_run_t *r)
{
    const int64_t dim = r->dim;
    double *eta = r->eta;
    normals(r);
    if (r->q_cmp == 0) {
        r->rho = 1.0;
        return;
    }
    double a = 2.0 * gamma_unit_scale(r, r->shape);
    if (r->q_cmp < 0)
        a += dot(r->ddot, dim, eta, eta);
    const double root = sqrt(a);
    for (int64_t i = 0; i < dim; i++)
        eta[i] = r->scale * eta[i] / root;
    r->rho = 1.0 - r->rho_coeff * dot(r->ddot, dim, eta, eta);
}

/* Outer iteration n's perturbation, its weight and the projected controls;
 * then each compiled simulator's service factors.  Returns -1 when the
 * simulators can start, or SF_BAD_RHO. */
static int64_t begin_iteration(sf_run_t *r)
{
    const int64_t dim = r->dim;
    const double n1 = (double)(r->n + 1);
    r->a = 1.0 / n1;
    r->b = pow(n1, -r->gamma);
    r->one_minus_b = 1.0 - r->b;

    draw(r);
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
