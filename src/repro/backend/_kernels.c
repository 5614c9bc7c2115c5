/* Fused solver kernels — C twin of kernels_py.py.
 *
 * Every function here is a line-for-line translation of the corresponding
 * Python kernel: same operations in the same order, no reassociation, no
 * fast-math (the build uses -fno-fast-math). Both call libm exp, pow and
 * log1p, so the two implementations are bitwise interchangeable; the
 * golden tests assert it.
 *
 * The model arrives as per-column family tags plus parameter rows; the
 * tag numbers and row layouts are the table in repro/backend/dispatch.py.
 * Demand rows hold DEMAND_WIDTH doubles (family parameters, then the
 * share weight in the last slot); throughput rows hold (beta, peak).
 *
 * repro_equilibrium_solve strings the kernels into a whole equilibrium
 * solve, so one call replaces the Python loop of core/equilibrium.py.
 *
 * Keep this file in lockstep with kernels_py.py when editing either.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

enum {
    DEMAND_EXPONENTIAL = 0,
    DEMAND_LOGIT = 1,
    DEMAND_LINEAR = 2,
    DEMAND_POWER = 3,
    DEMAND_WIDTH = 5,
    RATE_EXPONENTIAL = 0,
    RATE_POWER = 1,
    RATE_RATIONAL = 2,
    RATE_WIDTH = 2
};

/* Exponent magnitude beyond which e^z over/underflows (demand.py). */
#define EXP_LIMIT 700.0

static double safe_div(double a, double b) {
    if (b != 0.0) {
        return a / b;
    }
    return a * copysign(INFINITY, b);
}

static double clamp0(double v) {
    /* np.maximum(v, 0.0) bit-for-bit: -0.0 -> +0.0, NaN stays NaN. */
    return (v <= 0.0) ? 0.0 : v;
}

static int sgn(double v) {
    return (v > 0.0) - (v < 0.0);
}

void repro_vexp(int64_t n, const double *values, double *out) {
    for (int64_t k = 0; k < n; k++) {
        out[k] = exp(values[k]);
    }
}

void repro_pair_dot(int64_t rows, int64_t n, const double *a, const double *b,
                    double *out) {
    for (int64_t row = 0; row < rows; row++) {
        double acc = 0.0;
        const double *ar = a + row * n;
        const double *br = b + row * n;
        for (int64_t k = 0; k < n; k++) {
            acc += ar[k] * br[k];
        }
        out[row] = acc;
    }
}

/* ------------------------------------------------------------------ */
/* per-tag family formulas                                            */
/* ------------------------------------------------------------------ */

static double rate(int64_t tag, double beta, double peak, double phi) {
    if (tag == RATE_EXPONENTIAL) {
        return peak * exp((-beta) * phi);
    }
    if (tag == RATE_POWER) {
        return peak * pow(1.0 + phi, -beta);
    }
    return peak / (1.0 + beta * phi);
}

static double d_rate(int64_t tag, double beta, double peak, double phi,
                     double r) {
    if (tag == RATE_EXPONENTIAL) {
        return (-beta) * r;
    }
    if (tag == RATE_POWER) {
        return ((-beta) * peak) * pow(1.0 + phi, (-beta) - 1.0);
    }
    double d = 1.0 + beta * phi;
    return ((-beta) * peak) / (d * d);
}

static double softplus(double t) {
    if (t > EXP_LIMIT) {
        return t;
    }
    return log1p(exp(t));
}

static double sigmoid(double t) {
    double z = exp(-fabs(t));
    if (t >= 0.0) {
        return 1.0 / (1.0 + z);
    }
    return z / (1.0 + z);
}

/* (m(t), dm/dt) of one tagged column, before its share weight. */
static void demand(int64_t tag, const double *p, double t, double *m_out,
                   double *dm_out) {
    if (tag == DEMAND_EXPONENTIAL) {
        double m = p[1] * exp((-p[0]) * t);
        *m_out = m;
        *dm_out = (-p[0]) * m;
        return;
    }
    if (tag == DEMAND_LOGIT) {
        double z = p[0] * (t - p[1]);
        if (z > EXP_LIMIT) {
            *m_out = 0.0;
            *dm_out = 0.0;
            return;
        }
        double ez = exp(z);
        *m_out = p[2] / (1.0 + ez);
        if (z < -EXP_LIMIT) {
            *dm_out = 0.0;
            return;
        }
        double q = 1.0 + ez;
        *dm_out = (((-p[0]) * p[2]) * ez) / (q * q);
        return;
    }
    if (tag == DEMAND_LINEAR) {
        if (t <= p[3]) {
            *m_out = p[0] - p[1] * t;
            *dm_out = -p[1];
            return;
        }
        double e = ((-p[1]) * (t - p[3])) / p[2];
        if (e > 0.0) {
            e = 0.0;
        }
        double tail = exp(e);
        *m_out = p[2] * tail;
        *dm_out = (-p[1]) * tail;
        return;
    }
    double sp = softplus(t);
    *m_out = p[1] * pow(1.0 + sp, -p[0]);
    *dm_out = (((-p[0]) * p[1]) * pow(1.0 + sp, (-p[0]) - 1.0)) * sigmoid(t);
}

/* Weighted population and dm/ds = -dm/dt of column i at t. */
static void demand_column(const int64_t *dtags, const double *dparams,
                          int64_t i, double t, double *m_out, double *dm_out) {
    const double *p = dparams + i * DEMAND_WIDTH;
    double m, dpop;
    demand(dtags[i], p, t, &m, &dpop);
    double weight = p[DEMAND_WIDTH - 1];
    m_out[i] = weight * m;
    dm_out[i] = -(weight * dpop);
}

static int all_finite(const double *values, int64_t n) {
    for (int64_t k = 0; k < n; k++) {
        if (!isfinite(values[k])) {
            return 0;
        }
    }
    return 1;
}

/* ------------------------------------------------------------------ */
/* congestion fixed point, one row at a time                          */
/* ------------------------------------------------------------------ */

/* The gap on linear utilization: g(phi) = phi*mu - sum_k m_k*rate_k(phi). */
static double gap_value(double phi, const double *m, const int64_t *rtags,
                        const double *rparams, double mu, int64_t n) {
    double total = 0.0;
    for (int64_t k = 0; k < n; k++) {
        const double *q = rparams + k * RATE_WIDTH;
        double r = rate(rtags[k], q[0], q[1], phi);
        total += m[k] * r;
    }
    return phi * mu - total;
}

static void gap_and_slope(double phi, const double *m, const int64_t *rtags,
                          const double *rparams, double mu, int64_t n,
                          double *g_out, double *slope_out) {
    double total = 0.0;
    double dslope = 0.0;
    for (int64_t k = 0; k < n; k++) {
        const double *q = rparams + k * RATE_WIDTH;
        double r = rate(rtags[k], q[0], q[1], phi);
        total += m[k] * r;
        dslope += m[k] * d_rate(rtags[k], q[0], q[1], phi, r);
    }
    *g_out = phi * mu - total;
    *slope_out = mu - dslope;
}

static double newton_row(double x, const double *m, const int64_t *rtags,
                         const double *rparams, double mu, int64_t n,
                         double rtol, int max_iter, int *converged,
                         int64_t *evals) {
    *converged = 0;
    for (int it = 0; it < max_iter; it++) {
        double g, slope;
        gap_and_slope(x, m, rtags, rparams, mu, n, &g, &slope);
        (*evals)++;
        double step = safe_div(g, slope);
        int informative = isfinite(step) && isfinite(slope) && slope > 0.0;
        double proposal = informative ? clamp0(x - step) : x;
        double delta = fabs(proposal - x);
        x = proposal;
        if (informative && delta <= rtol * (1.0 + fabs(x))) {
            *converged = 1;
            return x;
        }
    }
    return x;
}

static int expand_row(const double *m, const int64_t *rtags,
                      const double *rparams, double mu, int64_t n, double *lo_out, double *hi_out,
                      double *flo_out, double *fhi_out, int64_t *evals,
                      int64_t *expansions) {
    double f_lo = gap_value(0.0, m, rtags, rparams, mu, n);
    (*evals)++;
    if (f_lo >= 0.0) {
        *lo_out = 0.0;
        *hi_out = 0.0;
        *flo_out = f_lo;
        *fhi_out = f_lo;
        return 1;
    }
    double lo = 0.0;
    double width = 1.0;
    double hi = 1.0;
    double f_hi = f_lo;
    for (int it = 0; it < 200; it++) {
        double f_probe = gap_value(hi, m, rtags, rparams, mu, n);
        (*evals)++;
        (*expansions)++;
        f_hi = f_probe;
        if (f_probe >= 0.0) {
            *lo_out = lo;
            *hi_out = hi;
            *flo_out = f_lo;
            *fhi_out = f_hi;
            return 1;
        }
        lo = hi;
        f_lo = f_probe;
        width *= 2.0;
        hi = lo + width;
    }
    *lo_out = lo;
    *hi_out = hi;
    *flo_out = f_lo;
    *fhi_out = f_hi;
    return 0;
}

static double bracket_row(double lo, double hi, double f_lo, double f_hi,
                          const double *m, const int64_t *rtags,
                          const double *rparams, double mu, int64_t n,
                          double xtol, int bisect_iters, int max_iter,
                          int64_t *evals) {
    for (int iteration = 0; iteration < max_iter; iteration++) {
        if (!((hi - lo) > xtol)) {
            break;
        }
        double x;
        if (iteration < bisect_iters) {
            x = 0.5 * (lo + hi);
        } else {
            double denom = f_hi - f_lo;
            double secant = safe_div(lo * f_hi - hi * f_lo, denom);
            if (!isfinite(secant) || secant <= lo || secant >= hi) {
                x = 0.5 * (lo + hi);
            } else {
                x = secant;
            }
        }
        double fx = gap_value(x, m, rtags, rparams, mu, n);
        (*evals)++;
        if (fx == 0.0) {
            return x;
        }
        if (sgn(fx) == sgn(f_lo)) {
            lo = x;
            f_lo = fx;
            if (iteration >= bisect_iters) {
                f_hi = 0.5 * f_hi;
            }
        } else {
            hi = x;
            f_hi = fx;
            if (iteration >= bisect_iters) {
                f_lo = 0.5 * f_lo;
            }
        }
    }
    return 0.5 * (lo + hi);
}

static int congestion_row(const double *m, const int64_t *rtags,
                          const double *rparams, double mu, int64_t n,
                          double phi0, int has_phi0, double xtol_final, double *phi_out,
                          double *bad_lo, double *bad_hi, int64_t *evals,
                          int64_t *expansions) {
    int idle = 1;
    for (int64_t k = 0; k < n; k++) {
        if (m[k] != 0.0) {
            idle = 0;
            break;
        }
    }
    if (idle) {
        *phi_out = 0.0;
        return 1;
    }
    if (has_phi0) {
        double start = clamp0(phi0);
        if (!isfinite(start)) {
            start = 0.0;
        }
        int converged;
        double warm = newton_row(start, m, rtags, rparams, mu, n, 1e-15, 25,
                                 &converged, evals);
        if (converged) {
            *phi_out = warm;
            return 1;
        }
    }
    double lo, hi, f_lo, f_hi;
    int closed =
        expand_row(m, rtags, rparams, mu, n, &lo, &hi, &f_lo, &f_hi, evals,
                   expansions);
    if (!closed) {
        *phi_out = 0.0;
        *bad_lo = lo;
        *bad_hi = hi;
        return 0;
    }
    int hit_lo = (f_lo == 0.0) || (hi == lo);
    int hit_hi = (f_hi == 0.0);
    double coarse;
    if (hit_lo) {
        coarse = lo;
    } else if (hit_hi) {
        coarse = hi;
    } else {
        coarse = bracket_row(lo, hi, f_lo, f_hi, m, rtags, rparams, mu, n, 1e-6,
                             25, 30, evals);
    }
    int converged;
    double polished = newton_row(coarse, m, rtags, rparams, mu, n, 1e-15, 40,
                                 &converged, evals);
    if (!converged) {
        if (hit_lo) {
            polished = lo;
        } else if (hit_hi) {
            polished = hi;
        } else {
            polished = bracket_row(lo, hi, f_lo, f_hi, m, rtags, rparams, mu, n,
                                   xtol_final, 200, 200, evals);
        }
    }
    *phi_out = polished;
    return 1;
}

int64_t repro_congestion_batch(int64_t rows, int64_t n,
                               const double *populations, const int64_t *rtags,
                               const double *rparams, double mu,
                               const double *phi0, int64_t has_phi0,
                               double xtol_final, double *phi_out,
                               int64_t *stats, int64_t *fail_rows,
                               double *fail_lo, double *fail_hi) {
    int64_t nfail = 0;
    for (int64_t b = 0; b < rows; b++) {
        double p0 = has_phi0 ? phi0[b] : 0.0;
        double phi = 0.0, bad_lo = 0.0, bad_hi = 0.0;
        int64_t evals = 0, expansions = 0;
        int ok = congestion_row(populations + b * n, rtags, rparams, mu, n, p0,
                                (int)has_phi0, xtol_final, &phi, &bad_lo,
                                &bad_hi, &evals, &expansions);
        stats[0] += evals;
        stats[1] += expansions;
        if (ok) {
            phi_out[b] = phi;
        } else {
            fail_rows[nfail] = b;
            fail_lo[nfail] = bad_lo;
            fail_hi[nfail] = bad_hi;
            nfail++;
            phi_out[b] = 0.0;
        }
    }
    return nfail;
}

/* ------------------------------------------------------------------ */
/* marginal-utility chain, one profile row at a time                  */
/* ------------------------------------------------------------------ */

/* Populations of one profile row; 0 if any is not finite. */
static int demand_row(const double *srow, double price, const int64_t *dtags,
                      const double *dparams, int64_t n, double *m_out,
                      double *dm_out) {
    for (int64_t i = 0; i < n; i++) {
        demand_column(dtags, dparams, i, price - srow[i], m_out, dm_out);
    }
    return all_finite(m_out, n);
}

/* u(s) for one row with populations m. Returns 1 ok, 0 bracket failure. */
static int marginal_row(const double *srow, const double *values,
                        const double *m, const double *dm,
                        const int64_t *rtags, const double *rparams, double mu,
                        int64_t n, double xtol_final, double phi0,
                        int has_phi0, double *u_row, double *tmp_r,
                        double *tmp_dr, double *phi_res, double *bad_lo,
                        double *bad_hi, int64_t *evals, int64_t *expansions) {
    double phi;
    int ok = congestion_row(m, rtags, rparams, mu, n, phi0, has_phi0,
                            xtol_final, &phi, bad_lo, bad_hi, evals,
                            expansions);
    if (!ok) {
        *phi_res = 0.0;
        return 0;
    }
    double dslope = 0.0;
    for (int64_t k = 0; k < n; k++) {
        const double *q = rparams + k * RATE_WIDTH;
        double r = rate(rtags[k], q[0], q[1], phi);
        double dr = d_rate(rtags[k], q[0], q[1], phi, r);
        tmp_r[k] = r;
        tmp_dr[k] = dr;
        dslope += m[k] * dr;
    }
    double slope = mu - dslope;
    for (int64_t i = 0; i < n; i++) {
        double r = tmp_r[i];
        double dphi = safe_div(r * dm[i], slope);
        double dtheta = dm[i] * r + (m[i] * tmp_dr[i]) * dphi;
        u_row[i] = (values[i] - srow[i]) * dtheta - m[i] * r;
    }
    *phi_res = phi;
    return 1;
}

void repro_marginal_batch(int64_t rows, int64_t n, const double *s,
                          double price, const double *values,
                          const int64_t *dtags, const double *dparams,
                          const int64_t *rtags, const double *rparams,
                          double mu, double xtol_final, const double *phi0,
                          int64_t has_phi0, double *u_out, double *phi_out,
                          int64_t *stats, int64_t *pop_rows,
                          int64_t *fail_rows, double *fail_lo, double *fail_hi,
                          int64_t *counts) {
    double *work = (double *)malloc(sizeof(double) * 4 * (size_t)n);
    double *tmp_m = work;
    double *tmp_dm = work + n;
    double *tmp_r = work + 2 * n;
    double *tmp_dr = work + 3 * n;
    int64_t npop = 0;
    int64_t nfail = 0;
    for (int64_t b = 0; b < rows; b++) {
        const double *srow = s + b * n;
        if (!demand_row(srow, price, dtags, dparams, n, tmp_m, tmp_dm)) {
            phi_out[b] = 0.0;
            pop_rows[npop] = b;
            npop++;
            continue;
        }
        double p0 = has_phi0 ? phi0[b] : 0.0;
        double phi = 0.0, bad_lo = 0.0, bad_hi = 0.0;
        int64_t evals = 0, expansions = 0;
        int ok = marginal_row(srow, values, tmp_m, tmp_dm, rtags, rparams, mu,
                              n, xtol_final, p0, (int)has_phi0, u_out + b * n,
                              tmp_r, tmp_dr, &phi, &bad_lo, &bad_hi, &evals,
                              &expansions);
        stats[0] += evals;
        stats[1] += expansions;
        phi_out[b] = phi;
        if (!ok) {
            fail_rows[nfail] = b;
            fail_lo[nfail] = bad_lo;
            fail_hi[nfail] = bad_hi;
            nfail++;
        }
    }
    free(work);
    counts[0] = npop;
    counts[1] = nfail;
}

/* ------------------------------------------------------------------ */
/* fused best-response root loop                                      */
/* ------------------------------------------------------------------ */

/* Diagonal of u over the (N, N) trial batch; chains phi per row. Columns
 * other than i keep the populations base_m/base_dm of the clipped profile;
 * only column i is re-evaluated. work holds six scratch rows of n.
 * Returns 0 ok, 2 bracket failure, 3 non-finite populations; on failure
 * *bad is the offending trial-row index. */
static int diag_marginals(const double *own, const double *sclip, double price,
                          const double *values, const int64_t *dtags,
                          const double *dparams, const int64_t *rtags,
                          const double *rparams, double mu, int64_t n,
                          double xtol_final, double *phi_io, int has_chain,
                          double *out_f, const double *base_m,
                          const double *base_dm, double *work, int64_t *stats,
                          int64_t *bad) {
    size_t nb = sizeof(double) * (size_t)n;
    double *trial = work;
    double *tmp_m = work + n;
    double *tmp_dm = work + 2 * n;
    double *u_row = work + 3 * n;
    double *tmp_r = work + 4 * n;
    double *tmp_dr = work + 5 * n;
    for (int64_t i = 0; i < n; i++) {
        memcpy(trial, sclip, nb);
        memcpy(tmp_m, base_m, nb);
        memcpy(tmp_dm, base_dm, nb);
        trial[i] = clamp0(own[i]);
        demand_column(dtags, dparams, i, price - trial[i], tmp_m, tmp_dm);
        if (!all_finite(tmp_m, n)) {
            *bad = i;
            return 3;
        }
        double p0 = has_chain ? phi_io[i] : 0.0;
        double phi = 0.0, bad_lo = 0.0, bad_hi = 0.0;
        int64_t evals = 0, expansions = 0;
        int ok = marginal_row(trial, values, tmp_m, tmp_dm, rtags, rparams, mu,
                              n, xtol_final, p0, has_chain, u_row, tmp_r,
                              tmp_dr, &phi, &bad_lo, &bad_hi, &evals,
                              &expansions);
        stats[0] += evals;
        stats[1] += expansions;
        if (!ok) {
            *bad = i;
            return 2;
        }
        phi_io[i] = phi;
        out_f[i] = u_row[i];
    }
    *bad = -1;
    return 0;
}

void repro_best_response(int64_t n, const double *s, double price,
                         const double *values, const int64_t *dtags,
                         const double *dparams, const int64_t *rtags,
                         const double *rparams, double mu, double xtol_final,
                         double cap, double *phi_io, int64_t has_chain,
                         double root_xtol, double *responses, double *u_zero,
                         double *u_cap, int64_t *stats, int64_t *status_bad) {
    size_t nb = sizeof(double) * (size_t)n;
    double *sclip = (double *)malloc(nb);
    double *hi = (double *)malloc(nb);
    double *base_m = (double *)malloc(nb);
    double *base_dm = (double *)malloc(nb);
    double *work = (double *)malloc(6 * nb);
    double *own = (double *)malloc(nb);
    double *lo_a = (double *)malloc(nb);
    double *hi_a = (double *)malloc(nb);
    double *f_lo = (double *)malloc(nb);
    double *f_hi = (double *)malloc(nb);
    double *root = (double *)malloc(nb);
    double *probe = (double *)malloc(nb);
    double *f = (double *)malloc(nb);
    uint8_t *interior = (uint8_t *)malloc((size_t)n);
    uint8_t *pending = (uint8_t *)malloc((size_t)n);
    int64_t bad = -1;
    int status = 0;

    for (int64_t i = 0; i < n; i++) {
        sclip[i] = clamp0(s[i]);
        hi[i] = (cap < values[i]) ? cap : values[i];
        responses[i] = 0.0;
        own[i] = 0.0;
    }
    /* Finiteness is checked per trial row, after column i is replaced. */
    demand_row(sclip, price, dtags, dparams, n, base_m, base_dm);
    status = diag_marginals(own, sclip, price, values, dtags, dparams, rtags,
                            rparams, mu, n, xtol_final, phi_io,
                            (int)has_chain, u_zero, base_m, base_dm, work,
                            stats, &bad);
    if (status != 0) {
        goto done;
    }
    for (int64_t i = 0; i < n; i++) {
        own[i] = (hi[i] > 0.0) ? hi[i] : 0.0;
    }
    status = diag_marginals(own, sclip, price, values, dtags, dparams, rtags,
                            rparams, mu, n, xtol_final, phi_io, 1, u_cap,
                            base_m, base_dm, work, stats, &bad);
    if (status != 0) {
        goto done;
    }

    int any_interior = 0;
    for (int64_t i = 0; i < n; i++) {
        int playable = hi[i] > 0.0;
        int at_cap = playable && u_cap[i] >= 0.0;
        if (at_cap) {
            responses[i] = hi[i];
        }
        int inter = playable && u_zero[i] > 0.0 && !at_cap;
        interior[i] = (uint8_t)inter;
        pending[i] = (uint8_t)inter;
        if (inter) {
            any_interior = 1;
        }
    }
    if (!any_interior) {
        goto done;
    }

    for (int64_t i = 0; i < n; i++) {
        lo_a[i] = 0.0;
        hi_a[i] = hi[i];
        f_lo[i] = u_zero[i];
        f_hi[i] = u_cap[i];
        root[i] = 0.0;
    }
    for (int iteration = 0; iteration < 100; iteration++) {
        int64_t n_pending = 0;
        for (int64_t i = 0; i < n; i++) {
            if (pending[i] && !((hi_a[i] - lo_a[i]) > root_xtol)) {
                pending[i] = 0;
            }
            if (pending[i]) {
                n_pending++;
            }
        }
        if (n_pending == 0) {
            break;
        }
        for (int64_t i = 0; i < n; i++) {
            if (pending[i]) {
                double x;
                if (iteration < 6) {
                    x = 0.5 * (lo_a[i] + hi_a[i]);
                } else {
                    double denom = f_hi[i] - f_lo[i];
                    double secant =
                        safe_div(lo_a[i] * f_hi[i] - hi_a[i] * f_lo[i], denom);
                    if (!isfinite(secant) || secant <= lo_a[i] ||
                        secant >= hi_a[i]) {
                        x = 0.5 * (lo_a[i] + hi_a[i]);
                    } else {
                        x = secant;
                    }
                }
                probe[i] = x;
            } else {
                probe[i] = root[i];
            }
        }
        status = diag_marginals(probe, sclip, price, values, dtags, dparams,
                                rtags, rparams, mu, n, xtol_final, phi_io, 1,
                                f, base_m, base_dm, work, stats, &bad);
        if (status != 0) {
            goto done;
        }
        for (int64_t i = 0; i < n; i++) {
            if (!pending[i]) {
                continue;
            }
            double fx = f[i];
            if (fx == 0.0) {
                root[i] = probe[i];
                lo_a[i] = probe[i];
                hi_a[i] = probe[i];
                pending[i] = 0;
                continue;
            }
            if (sgn(fx) == sgn(f_lo[i])) {
                lo_a[i] = probe[i];
                f_lo[i] = fx;
                if (iteration >= 6) {
                    f_hi[i] = 0.5 * f_hi[i];
                }
            } else {
                hi_a[i] = probe[i];
                f_hi[i] = fx;
                if (iteration >= 6) {
                    f_lo[i] = 0.5 * f_lo[i];
                }
            }
        }
    }
    for (int64_t i = 0; i < n; i++) {
        if (interior[i]) {
            responses[i] = 0.5 * (lo_a[i] + hi_a[i]);
        }
    }

done:
    free(sclip);
    free(hi);
    free(base_m);
    free(base_dm);
    free(work);
    free(own);
    free(lo_a);
    free(hi_a);
    free(f_lo);
    free(f_hi);
    free(root);
    free(probe);
    free(f);
    free(interior);
    free(pending);
    status_bad[0] = status;
    status_bad[1] = bad;
}

/* ------------------------------------------------------------------ */
/* whole equilibrium solve                                            */
/* ------------------------------------------------------------------ */

/* Status words of repro_equilibrium_solve (dispatch.py maps them). */
enum {
    EQ_CONVERGED = 0,
    EQ_BUDGET = 1,
    EQ_BRACKET = 2,
    EQ_POPULATIONS = 3,
    EQ_CORNER = 4,
    EQ_SUBSIDIES = 5,
    EQ_ROOT_BRACKET = 6
};

/* Constants of core/equilibrium.py's _vector_solve and _newton_polish. */
#define NEWTON_TRIGGER 1e-3
#define NEWTON_MAX_ITER 15
#define ACTIVE_TOL 1e-12
#define LINESEARCH_STEPS 6
static const double LINESEARCH_SCALES[LINESEARCH_STEPS] = {
    1.0, 0.5, 0.25, 0.125, 0.0625, 0.015625};

/* One solve's model, warm-start chain and scratch. The chain mirrors
 * BatchedProfileEvaluator: the utilizations of the last evaluated batch,
 * reused as the next batch's warm start only when the sizes match. */
typedef struct {
    int64_t n;
    double price;
    const double *values;
    const int64_t *dtags;
    const double *dparams;
    const int64_t *rtags;
    const double *rparams;
    double mu;
    double xtol;
    double cap;
    double *chain;
    double *chain_next;
    int64_t chain_len;
    double *clipped;
    double *tmp_dm;
    double *tmp_r;
    double *tmp_dr;
    double *fail_lo;
    double *fail_hi;
    int64_t *pop_rows;
    int64_t *fail_rows;
    int64_t *stats;
    int64_t bad;
    double bad_lo;
    double bad_hi;
} eq_ctx;

/* np.clip(x, lo, hi) bit-for-bit: NaN and -0.0 pass through. */
static double clip_box(double x, double lo, double hi) {
    if (x < lo) {
        return lo;
    }
    if (x > hi) {
        return hi;
    }
    return x;
}

/* np.max(np.abs(v)): NaN wins. */
static double max_abs(const double *v, int64_t n) {
    double best = fabs(v[0]);
    for (int64_t k = 1; k < n; k++) {
        double a = fabs(v[k]);
        if (a > best || isnan(a)) {
            best = a;
        }
    }
    return best;
}

/* Natural-map residual ||s - clip(s + u, 0, cap)||_inf of one row. */
static double natural_residual(const double *s, const double *u, double cap,
                               int64_t n, double *scratch) {
    for (int64_t k = 0; k < n; k++) {
        scratch[k] = s[k] - clip_box(s[k] + u[k], 0.0, cap);
    }
    return max_abs(scratch, n);
}

/* np.sum's order over a contiguous vector: NumPy's pairwise summation,
 * eight interleaved accumulators over blocks of at most 128 values. */
static double pairwise_sum(const double *a, int64_t n) {
    if (n < 8) {
        double res = 0.0;
        for (int64_t i = 0; i < n; i++) {
            res += a[i];
        }
        return res;
    }
    if (n <= 128) {
        double r[8];
        for (int j = 0; j < 8; j++) {
            r[j] = a[j];
        }
        int64_t i = 8;
        for (; i < n - (n % 8); i += 8) {
            for (int j = 0; j < 8; j++) {
                r[j] += a[i + j];
            }
        }
        double res = ((r[0] + r[1]) + (r[2] + r[3])) +
                     ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++) {
            res += a[i];
        }
        return res;
    }
    int64_t half = n / 2;
    half -= half % 8;
    return pairwise_sum(a, half) + pairwise_sum(a + half, n - half);
}

/* Market.subsidy_matrix's check: finite and at least -1e-12. */
static int subsidies_valid(const double *s, int64_t count) {
    for (int64_t k = 0; k < count; k++) {
        if (!(s[k] >= -1e-12 && s[k] < INFINITY)) {
            return 0;
        }
    }
    return 1;
}

/* BatchedProfileEvaluator.marginal_utilities over rows x n profiles:
 * Market.subsidy_matrix's check and clip, then the marginal batch kernel
 * on the chained warm start. */
static int eq_marginals(eq_ctx *c, int64_t rows, const double *s,
                        double *u_out) {
    int64_t n = c->n;
    if (!subsidies_valid(s, rows * n)) {
        c->bad = -1;
        return EQ_SUBSIDIES;
    }
    for (int64_t k = 0; k < rows * n; k++) {
        c->clipped[k] = clamp0(s[k]);
    }
    int64_t counts[2];
    repro_marginal_batch(rows, n, c->clipped, c->price, c->values, c->dtags,
                         c->dparams, c->rtags, c->rparams, c->mu, c->xtol,
                         c->chain, c->chain_len == rows, u_out, c->chain_next,
                         c->stats, c->pop_rows, c->fail_rows, c->fail_lo,
                         c->fail_hi, counts);
    if (counts[0] > 0) {
        c->bad = c->pop_rows[0];
        return EQ_POPULATIONS;
    }
    if (counts[1] > 0) {
        c->bad = c->fail_rows[0];
        c->bad_lo = c->fail_lo[0];
        c->bad_hi = c->fail_hi[0];
        return EQ_BRACKET;
    }
    memcpy(c->chain, c->chain_next, sizeof(double) * (size_t)rows);
    c->chain_len = rows;
    return EQ_CONVERGED;
}

/* best_response_profile_vectorized on the fused root loop. */
static int eq_best_responses(eq_ctx *c, const double *s, double root_xtol,
                             double *responses, double *u_zero,
                             double *u_cap) {
    int64_t n = c->n;
    int any_playable = 0;
    for (int64_t i = 0; i < n; i++) {
        responses[i] = 0.0;
        double hi = (c->cap < c->values[i]) ? c->cap : c->values[i];
        if (hi > 0.0) {
            any_playable = 1;
        }
    }
    if (!any_playable) {
        return EQ_CONVERGED;
    }
    /* The trial batch's off-diagonal entries are the incoming profile. */
    if (n > 1 && !subsidies_valid(s, n)) {
        c->bad = -1;
        return EQ_SUBSIDIES;
    }
    int64_t status_bad[2] = {0, -1};
    repro_best_response(n, s, c->price, c->values, c->dtags, c->dparams,
                        c->rtags, c->rparams, c->mu, c->xtol, c->cap,
                        c->chain, c->chain_len == n, root_xtol, responses,
                        u_zero, u_cap, c->stats, status_bad);
    if (status_bad[0] != 0) {
        c->bad = status_bad[1];
        return status_bad[0] == 3 ? EQ_POPULATIONS : EQ_ROOT_BRACKET;
    }
    for (int64_t i = 0; i < n; i++) {
        double hi = (c->cap < c->values[i]) ? c->cap : c->values[i];
        if (hi > 0.0 && !(isfinite(u_zero[i]) && isfinite(u_cap[i]))) {
            c->bad = i;
            return EQ_CORNER;
        }
    }
    c->chain_len = n;
    return EQ_CONVERGED;
}

/* Solve the k x k system a x = b in place: LU with partial pivoting
 * (first largest |pivot|). Returns 0 when a pivot is exactly zero,
 * where LAPACK's dgesv reports a singular matrix. */
static int lu_solve(double *a, double *b, int64_t k) {
    for (int64_t col = 0; col < k; col++) {
        int64_t p = col;
        double biggest = fabs(a[col * k + col]);
        for (int64_t r = col + 1; r < k; r++) {
            double v = fabs(a[r * k + col]);
            if (v > biggest) {
                biggest = v;
                p = r;
            }
        }
        if (a[p * k + col] == 0.0) {
            return 0;
        }
        if (p != col) {
            for (int64_t j = 0; j < k; j++) {
                double t = a[p * k + j];
                a[p * k + j] = a[col * k + j];
                a[col * k + j] = t;
            }
            double t = b[p];
            b[p] = b[col];
            b[col] = t;
        }
        for (int64_t r = col + 1; r < k; r++) {
            double l = a[r * k + col] / a[col * k + col];
            a[r * k + col] = l;
            for (int64_t j = col + 1; j < k; j++) {
                a[r * k + j] -= l * a[col * k + j];
            }
            b[r] -= l * b[col];
        }
    }
    for (int64_t r = k - 1; r >= 0; r--) {
        double acc = b[r];
        for (int64_t j = k - 1; j > r; j--) {
            acc -= a[r * k + j] * b[j];
        }
        b[r] = acc / a[r * k + r];
    }
    return 1;
}

/* Scratch of one Newton polish: every array sized for the largest batch
 * (n Jacobian probes or the line-search rows). */
typedef struct {
    double *s;
    double *u;
    double *step;
    double *h;
    double *probes;
    double *perturbed;
    double *jac;
    double *block;
    double *rhs;
    double *residuals;
    int64_t *idx;
    int64_t *active;
} eq_newton_work;

/* core/equilibrium.py's _newton_polish, started at s. On success
 * *polished is 1, s holds the polished profile and *iters the Newton
 * steps taken; otherwise s is untouched. Returns a status word. */
static int eq_newton(eq_ctx *c, eq_newton_work *w, double *s_io, double tol,
                     int *polished, int64_t *iters) {
    int64_t n = c->n;
    double q = c->cap;
    size_t nb = sizeof(double) * (size_t)n;
    double *s = w->s;
    double *u = w->u;
    double *step = w->step;
    double *h = w->h;
    *polished = 0;
    memcpy(s, s_io, nb);
    int st = eq_marginals(c, 1, s, u);
    if (st != EQ_CONVERGED) {
        return st;
    }
    double residual = natural_residual(s, u, q, n, w->residuals);
    for (int64_t iteration = 1; iteration <= NEWTON_MAX_ITER; iteration++) {
        if (residual <= tol) {
            memcpy(s_io, s, nb);
            *polished = 1;
            *iters = iteration - 1;
            return EQ_CONVERGED;
        }
        int64_t n_inactive = 0, n_active = 0;
        for (int64_t i = 0; i < n; i++) {
            double shifted = s[i] + u[i];
            int lower = shifted <= ACTIVE_TOL;
            int upper = shifted >= q - ACTIVE_TOL;
            step[i] = 0.0;
            if (lower) {
                step[i] = -s[i];
            }
            if (upper) {
                step[i] = q - s[i];
            }
            if (lower || upper) {
                w->active[n_active++] = i;
            } else {
                w->idx[n_inactive++] = i;
            }
        }
        /* Forward-difference Jacobian: probe j perturbs player j, flipped
         * where a forward step would leave the box. */
        for (int64_t j = 0; j < n; j++) {
            double hj = 1e-7 * (1.0 + fabs(s[j]));
            h[j] = (s[j] + hj <= q) ? hj : -hj;
        }
        for (int64_t j = 0; j < n; j++) {
            for (int64_t k = 0; k < n; k++) {
                w->probes[j * n + k] = s[k] + h[j] * ((j == k) ? 1.0 : 0.0);
            }
        }
        st = eq_marginals(c, n, w->probes, w->perturbed);
        if (st != EQ_CONVERGED) {
            return st;
        }
        for (int64_t i = 0; i < n; i++) {
            for (int64_t j = 0; j < n; j++) {
                w->jac[i * n + j] = (w->perturbed[j * n + i] - u[i]) / h[j];
            }
        }
        if (n_inactive > 0) {
            int64_t k = n_inactive;
            for (int64_t r = 0; r < k; r++) {
                int64_t i = w->idx[r];
                double rhs = -u[i];
                if (n_active > 0) {
                    double acc = 0.0;
                    for (int64_t a = 0; a < n_active; a++) {
                        acc += w->jac[i * n + w->active[a]] * step[w->active[a]];
                    }
                    rhs = rhs - acc;
                }
                w->rhs[r] = rhs;
                for (int64_t col = 0; col < k; col++) {
                    w->block[r * k + col] = w->jac[i * n + w->idx[col]];
                }
            }
            if (lu_solve(w->block, w->rhs, k)) {
                for (int64_t r = 0; r < k; r++) {
                    step[w->idx[r]] = w->rhs[r];
                }
            } else {
                /* Singular inactive block: projected gradient step. */
                for (int64_t r = 0; r < k; r++) {
                    step[w->idx[r]] = u[w->idx[r]];
                }
            }
        }
        for (int64_t t = 0; t < LINESEARCH_STEPS; t++) {
            for (int64_t k = 0; k < n; k++) {
                w->probes[t * n + k] =
                    clip_box(s[k] + LINESEARCH_SCALES[t] * step[k], 0.0, q);
            }
        }
        st = eq_marginals(c, LINESEARCH_STEPS, w->probes, w->perturbed);
        if (st != EQ_CONVERGED) {
            return st;
        }
        int64_t best = -1;
        double best_residual = 0.0;
        for (int64_t t = 0; t < LINESEARCH_STEPS; t++) {
            double r = natural_residual(w->probes + t * n, w->perturbed + t * n,
                                        q, n, w->residuals);
            if (r < residual) {
                best = t;
                best_residual = r;
                break;
            }
        }
        if (best < 0) {
            return EQ_CONVERGED;
        }
        memcpy(s, w->probes + best * n, nb);
        memcpy(u, w->perturbed + best * n, nb);
        residual = best_residual;
    }
    if (residual <= tol) {
        memcpy(s_io, s, nb);
        *polished = 1;
        *iters = NEWTON_MAX_ITER;
    }
    return EQ_CONVERGED;
}

/* The solved state at s with a cold congestion root, as Market.solve and
 * the KKT certificate compute it. out: state subsidies | effective prices
 * | populations | rates | throughputs | utilities | utilization,
 * gap slope, revenue, welfare, residual. */
static int eq_state(eq_ctx *c, const double *s, double *out, double *u) {
    int64_t n = c->n;
    if (!subsidies_valid(s, n)) {
        c->bad = -1;
        return EQ_SUBSIDIES;
    }
    double *sc = out;
    double *effective = out + n;
    double *m = out + 2 * n;
    double *r = out + 3 * n;
    double *theta = out + 4 * n;
    double *utilities = out + 5 * n;
    double *scalars = out + 6 * n;
    for (int64_t i = 0; i < n; i++) {
        sc[i] = clamp0(s[i]);
        effective[i] = c->price - sc[i];
    }
    if (!demand_row(sc, c->price, c->dtags, c->dparams, n, m, c->tmp_dm)) {
        c->bad = 0;
        return EQ_POPULATIONS;
    }
    double phi = 0.0, bad_lo = 0.0, bad_hi = 0.0;
    int64_t evals = 0, expansions = 0;
    int ok = marginal_row(sc, c->values, m, c->tmp_dm, c->rtags, c->rparams,
                          c->mu, n, c->xtol, 0.0, 0, u, r, c->tmp_dr, &phi,
                          &bad_lo, &bad_hi, &evals, &expansions);
    c->stats[0] += evals;
    c->stats[1] += expansions;
    if (!ok) {
        c->bad = 0;
        c->bad_lo = bad_lo;
        c->bad_hi = bad_hi;
        return EQ_BRACKET;
    }
    double dslope = 0.0;
    double welfare = 0.0;
    for (int64_t i = 0; i < n; i++) {
        dslope += m[i] * c->tmp_dr[i];
        theta[i] = m[i] * r[i];
        utilities[i] = (c->values[i] - sc[i]) * theta[i];
        welfare += c->values[i] * theta[i];
    }
    scalars[0] = phi;
    scalars[1] = c->mu - dslope;
    /* Revenue sums in Market.solve's np.sum order. */
    scalars[2] = c->price * pairwise_sum(theta, n);
    scalars[3] = welfare;
    scalars[4] = natural_residual(s, u, c->cap, n, c->tmp_r);
    return EQ_CONVERGED;
}

/* Constants of the revenue slope (dispatch.py's SLOPE_*). */
#define SLOPE_BOUNDARY_TOL 1e-7
#define SLOPE_STEP 6.055454452393343e-06

/* u at one profile row under its own price and demand parameters,
 * warm-started at phi0. Returns 0 when a population or the congestion
 * root fails; m and dm are scratch. */
static int eq_probe(eq_ctx *c, const double *srow, double price,
                    const double *dparams, double phi0, double *u_out,
                    double *m, double *dm) {
    int64_t n = c->n;
    if (!demand_row(srow, price, c->dtags, dparams, n, m, dm)) {
        return 0;
    }
    double phi = 0.0, bad_lo = 0.0, bad_hi = 0.0;
    int64_t evals = 0, expansions = 0;
    int ok = marginal_row(srow, c->values, m, dm, c->rtags, c->rparams,
                          c->mu, n, c->xtol, phi0, 1, u_out, c->tmp_r,
                          c->tmp_dr, &phi, &bad_lo, &bad_hi, &evals,
                          &expansions);
    c->stats[0] += evals;
    c->stats[1] += expansions;
    return ok;
}

/* dR/dp at the certified state row (u at its profile) along a price move
 * that scales every demand weight by d ln w/dp = rate: Theorem 7's
 * eq. (13) with ds/dp from Theorem 6 on the interior block, plus the
 * share term. Probes are central differences warm-started at the state's
 * utilization, so the slope depends on the profile alone. NaN when a
 * probe fails or the interior block is singular (kernels_py's
 * _EquilibriumRun.slope). */
static double eq_slope(eq_ctx *c, const double *state, const double *u,
                       double rate) {
    int64_t n = c->n;
    double price = c->price;
    double cap = c->cap;
    const double *s = state;
    const double *m = state + 2 * n;
    const double *r = state + 3 * n;
    const double *theta = state + 4 * n;
    double phi = state[6 * n];
    double gap = state[6 * n + 1];
    double *work = (double *)malloc(
        sizeof(double) * (size_t)(DEMAND_WIDTH * n + 9 * n + n * n));
    int64_t *interior = (int64_t *)malloc(sizeof(int64_t) * (size_t)n);
    double *weighted = work;
    double *pop = weighted + DEMAND_WIDTH * n;
    double *dm = pop + n;
    double *u_hi = dm + n;
    double *u_lo = u_hi + n;
    double *fwd = u_lo + n;
    double *bwd = fwd + n;
    double *probe = bwd + n;
    double *ds = probe + n;
    double *rhs = ds + n;
    double *block = rhs + n;
    double result = NAN;
    double ap = fabs(price);
    double h = SLOPE_STEP * (ap > 1.0 ? ap : 1.0);
    if (price - h < 0.0) {
        h = (price > 0.0) ? price / 2.0 : SLOPE_STEP;
    }
    double p_at[2] = {price + h, clamp0(price - h)};
    double *u_at[2] = {u_hi, u_lo};
    memcpy(weighted, c->dparams, sizeof(double) * (size_t)(DEMAND_WIDTH * n));
    for (int t = 0; t < 2; t++) {
        double scale = exp(rate * (p_at[t] - price));
        for (int64_t i = 0; i < n; i++) {
            weighted[i * DEMAND_WIDTH + DEMAND_WIDTH - 1] =
                c->dparams[i * DEMAND_WIDTH + DEMAND_WIDTH - 1] * scale;
        }
        if (!eq_probe(c, s, p_at[t], weighted, phi, u_at[t], pop, dm)) {
            goto done;
        }
    }
    int64_t k = 0;
    for (int64_t i = 0; i < n; i++) {
        ds[i] = 0.0;
        if (SLOPE_BOUNDARY_TOL < s[i] && s[i] < cap - SLOPE_BOUNDARY_TOL) {
            interior[k++] = i;
        }
    }
    if (k > 0) {
        memcpy(probe, s, sizeof(double) * (size_t)n);
        for (int64_t col = 0; col < k; col++) {
            int64_t j = interior[col];
            double aj = fabs(s[j]);
            double hj = SLOPE_STEP * (aj > 1.0 ? aj : 1.0);
            double up = cap - s[j];
            double down = s[j];
            double room = (up > down) ? up : down;
            if (room < hj) {
                hj = room;
            }
            const double *f_fwd = u;
            const double *f_bwd = u;
            if (up >= hj) {
                probe[j] = s[j] + hj;
                if (!eq_probe(c, probe, price, c->dparams, phi, fwd, pop,
                              dm)) {
                    goto done;
                }
                f_fwd = fwd;
            }
            if (down >= hj) {
                probe[j] = s[j] - hj;
                if (!eq_probe(c, probe, price, c->dparams, phi, bwd, pop,
                              dm)) {
                    goto done;
                }
                f_bwd = bwd;
            }
            probe[j] = s[j];
            double denominator = (up >= hj && down >= hj) ? 2.0 * hj : hj;
            for (int64_t row = 0; row < k; row++) {
                int64_t i = interior[row];
                block[row * k + col] = (f_fwd[i] - f_bwd[i]) / denominator;
            }
        }
        for (int64_t row = 0; row < k; row++) {
            int64_t i = interior[row];
            rhs[row] = -((u_hi[i] - u_lo[i]) / (p_at[0] - p_at[1]));
        }
        if (!lu_solve(block, rhs, k)) {
            goto done;
        }
        for (int64_t row = 0; row < k; row++) {
            ds[interior[row]] = rhs[row];
        }
    }
    demand_row(s, price, c->dtags, c->dparams, n, pop, dm);
    double acc = 0.0;
    for (int64_t j = 0; j < n; j++) {
        acc += r[j] * (rate * m[j] - dm[j] * (1.0 - ds[j]));
    }
    result = pairwise_sum(theta, n) + ((c->mu / gap) * price) * acc;

done:
    free(work);
    free(interior);
    return result;
}

/* The revenue slope at an equilibrium profile s solved elsewhere: the
 * certified state at s, then eq_slope, so it equals the slope
 * repro_equilibrium_solve reports for the same profile. out[0] takes the
 * slope (NaN when the state or a probe fails); stats[2] as elsewhere. */
void repro_revenue_slope(int64_t n, const double *s, double price,
                         const double *values, const int64_t *dtags,
                         const double *dparams, const int64_t *rtags,
                         const double *rparams, double mu, double xtol_final,
                         double cap, double share_rate, double *out,
                         int64_t *stats) {
    double *work = (double *)malloc(sizeof(double) * (size_t)(10 * n + 6));
    eq_ctx c;
    memset(&c, 0, sizeof(c));
    c.n = n;
    c.price = price;
    c.values = values;
    c.dtags = dtags;
    c.dparams = dparams;
    c.rtags = rtags;
    c.rparams = rparams;
    c.mu = mu;
    c.xtol = xtol_final;
    c.cap = cap;
    c.tmp_dm = work;
    c.tmp_r = work + n;
    c.tmp_dr = work + 2 * n;
    c.stats = stats;
    c.bad = -1;
    double *u = work + 3 * n;
    double *row = work + 4 * n;
    stats[0] = 0;
    stats[1] = 0;
    out[0] = NAN;
    if (eq_state(&c, s, row, u) == EQ_CONVERGED) {
        out[0] = eq_slope(&c, row, u, share_rate);
    }
    free(work);
}

/* The next count doubles of a workspace. */
static double *carve(double **cursor, int64_t count) {
    double *head = *cursor;
    *cursor += count;
    return head;
}

/* core/equilibrium.py's _vector_solve (damping 1) plus the certified
 * state, in one call. s0 is the starting profile, already in the box.
 * out (7n + 8 doubles): profile | the eq_state block (6n + 5) | revenue
 * slope | fail_lo, fail_hi. The slope is NaN unless want_slope asks for
 * it (then along d ln w/dp = share_rate). iout: stats[2] | iterations |
 * status | bad index. */
void repro_equilibrium_solve(int64_t n, const double *s0, double price,
                             const double *values, const int64_t *dtags,
                             const double *dparams, const int64_t *rtags,
                             const double *rparams, double mu,
                             double xtol_final, double cap, double tol,
                             int64_t max_sweeps, int64_t want_slope,
                             double share_rate, double *out, int64_t *iout) {
    int64_t wide = (n > LINESEARCH_STEPS) ? n : LINESEARCH_STEPS;
    int64_t cells = wide * n;
    double *work = (double *)malloc(
        sizeof(double) * (size_t)(3 * cells + 2 * n * n + 4 * wide + 12 * n));
    int64_t *iwork =
        (int64_t *)malloc(sizeof(int64_t) * (size_t)(2 * n + 2 * wide));
    double *cursor = work;
    eq_ctx c;
    c.n = n;
    c.price = price;
    c.values = values;
    c.dtags = dtags;
    c.dparams = dparams;
    c.rtags = rtags;
    c.rparams = rparams;
    c.mu = mu;
    c.xtol = xtol_final;
    c.cap = cap;
    c.chain = carve(&cursor, wide);
    c.chain_next = carve(&cursor, wide);
    c.chain_len = 0;
    c.clipped = carve(&cursor, cells);
    c.tmp_dm = carve(&cursor, n);
    c.tmp_r = carve(&cursor, n);
    c.tmp_dr = carve(&cursor, n);
    c.fail_lo = carve(&cursor, wide);
    c.fail_hi = carve(&cursor, wide);
    c.pop_rows = iwork + 2 * n;
    c.fail_rows = iwork + 2 * n + wide;
    c.stats = iout;
    c.bad = -1;
    c.bad_lo = 0.0;
    c.bad_hi = 0.0;
    eq_newton_work w;
    w.probes = carve(&cursor, cells);
    w.perturbed = carve(&cursor, cells);
    w.jac = carve(&cursor, n * n);
    w.block = carve(&cursor, n * n);
    w.s = carve(&cursor, n);
    w.u = carve(&cursor, n);
    w.step = carve(&cursor, n);
    w.h = carve(&cursor, n);
    w.rhs = carve(&cursor, n);
    w.residuals = carve(&cursor, n);
    w.idx = iwork;
    w.active = iwork + n;
    double *s = carve(&cursor, n);
    double *u = carve(&cursor, n);
    double *u_cap = carve(&cursor, n);
    /* The best responses and their corner marginals reuse Newton rows. */
    double *responses = w.rhs;
    double *u_zero = w.residuals;

    iout[0] = 0;
    iout[1] = 0;
    out[7 * n + 5] = NAN;
    int64_t iterations = max_sweeps;
    int status = EQ_BUDGET;
    double residual_tol = (1e-12 > tol) ? 1e-12 : tol;
    memcpy(s, s0, sizeof(double) * (size_t)n);
    /* The initial residual seeds the change estimate, so a warm start
     * lands straight in the Newton polish. */
    int st = eq_marginals(&c, 1, s, u);
    if (st != EQ_CONVERGED) {
        status = st;
        goto finish;
    }
    double largest_change = natural_residual(s, u, cap, n, w.residuals);
    double barrier = INFINITY;
    for (int64_t sweep = 1; sweep <= max_sweeps; sweep++) {
        double trigger = (barrier < NEWTON_TRIGGER) ? barrier : NEWTON_TRIGGER;
        if (largest_change <= trigger) {
            int polished = 0;
            int64_t newton_iters = 0;
            st = eq_newton(&c, &w, s, residual_tol, &polished, &newton_iters);
            if (st != EQ_CONVERGED) {
                status = st;
                goto finish;
            }
            if (polished) {
                iterations = sweep - 1 + newton_iters;
                status = EQ_CONVERGED;
                break;
            }
            /* Newton stalled: sweep until the change shrinks a lot. */
            barrier = largest_change / 4.0;
        }
        double root_xtol = clip_box(0.05 * largest_change, 1e-12, 5e-4);
        st = eq_best_responses(&c, s, root_xtol, responses, u_zero, u_cap);
        if (st != EQ_CONVERGED) {
            status = st;
            goto finish;
        }
        for (int64_t i = 0; i < n; i++) {
            u_cap[i] = responses[i] - s[i];
        }
        largest_change = max_abs(u_cap, n);
        for (int64_t i = 0; i < n; i++) {
            s[i] = s[i] + u_cap[i];
        }
        if (largest_change <= tol) {
            st = eq_marginals(&c, 1, s, u);
            if (st != EQ_CONVERGED) {
                status = st;
                goto finish;
            }
            if (natural_residual(s, u, cap, n, w.residuals) <= residual_tol) {
                iterations = sweep;
                status = EQ_CONVERGED;
                break;
            }
        }
    }
    if (status == EQ_CONVERGED) {
        status = eq_state(&c, s, out + n, u);
        if (status == EQ_CONVERGED && want_slope) {
            out[7 * n + 5] = eq_slope(&c, out + n, u, share_rate);
        }
    }

finish:
    memcpy(out, s, sizeof(double) * (size_t)n);
    out[7 * n + 6] = c.bad_lo;
    out[7 * n + 7] = c.bad_hi;
    iout[2] = iterations;
    iout[3] = status;
    iout[4] = c.bad;
    free(work);
    free(iwork);
}
