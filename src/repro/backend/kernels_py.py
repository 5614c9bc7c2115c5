"""Fused solver kernels — the portable reference implementation.

These are the per-row, early-exit counterparts of the lockstep batch
solvers: one congestion fixed point per row (warm Newton, bracket
expansion, bisection/Illinois, Newton polish), the marginal-utility
chain, and the fused best-response root loop. Each row follows *exactly*
the trajectory the NumPy lockstep path walks for that row — same
operations in the same order. On top of them, ``equilibrium_solve`` runs
a whole equilibrium solve (``core/equilibrium.py``'s Jacobi sweeps and
Newton polish, then the certified state) in one call.

The model reaches the kernels as per-column family tags plus parameter
rows (see :mod:`repro.backend.dispatch` for the tag table). Per-tag
helpers (``_rate``/``_d_rate`` for throughput, ``_demand`` for population
and its derivative) copy each family class's array formulas, including
the ``_EXP_LIMIT`` guards and the ``LinearDemand`` tail. Exponential
columns evaluate with the same scalar ``exp`` the lockstep path is bound
to under a kernel backend (libm here, via :mod:`math`), so for them the
results are bitwise identical — that is what the golden kernel-parity
tests pin. The other families call libm ``pow``/``log1p``/``exp`` where
their lockstep arm uses NumPy ufuncs, so they agree with it to a few
ulps instead.

The module computes what the C kernels compute, in the same operation
order: plain loops over float64 arrays, scalar math, out-parameters. It
runs as pure Python — slow, but with identical arithmetic — as the
``pyloops`` backend, the readable reference the cext-vs-pyloops bitwise
cross tests compare against.

Batch drivers return failure *lists* (all failing rows with their last
bracket intervals), never raise: exception construction is the caller's
job (:mod:`repro.backend.dispatch`).
"""

from __future__ import annotations

import math

import numpy as np

from repro.backend.dispatch import (
    DEMAND_EXPONENTIAL,
    DEMAND_LINEAR,
    DEMAND_LOGIT,
    DEMAND_WIDTH,
    EQUILIBRIUM_BRACKET,
    EQUILIBRIUM_BUDGET,
    EQUILIBRIUM_CONVERGED,
    EQUILIBRIUM_CORNER,
    EQUILIBRIUM_POPULATIONS,
    EQUILIBRIUM_ROOT_BRACKET,
    EQUILIBRIUM_SUBSIDIES,
    LINESEARCH_SCALES,
    NEWTON_ACTIVE_TOL,
    NEWTON_MAX_ITER,
    NEWTON_TRIGGER,
    RATE_EXPONENTIAL,
    RATE_POWER,
    SLOPE_BOUNDARY_TOL,
    SLOPE_STEP,
)

__all__ = [
    "bind",
    "congestion_batch",
    "marginal_batch",
    "best_response_root",
    "equilibrium_solve",
    "exp_inplace",
    "revenue_slope",
    "pair_dot_batch",
]


def _safe_div(a: float, b: float) -> float:
    """IEEE-style division: ``b == 0`` yields a signed inf (or nan)."""
    if b != 0.0:
        return a / b
    return a * math.copysign(math.inf, b)


def _clamp0(v: float) -> float:
    """``np.maximum(v, 0.0)`` bit-for-bit: ``-0.0`` maps to ``+0.0``."""
    if v <= 0.0:
        return 0.0
    return v


def _sgn(v: float) -> int:
    """Sign of ``v`` as an int (works on numpy scalars in pure Python too)."""
    if v > 0.0:
        return 1
    if v < 0.0:
        return -1
    return 0


def exp_inplace(values, out):
    """Elementwise libm ``exp`` over a flat float64 array."""
    for k in range(values.shape[0]):
        out[k] = math.exp(values[k])


def pair_dot_batch(a, b, out):
    """Row-wise dot of two ``(B, N)`` matrices, sequential accumulation."""
    for row in range(a.shape[0]):
        acc = 0.0
        for k in range(a.shape[1]):
            acc += a[row, k] * b[row, k]
        out[row] = acc


# ----------------------------------------------------------------------
# per-tag family formulas (tags: repro.backend.dispatch)
# ----------------------------------------------------------------------
# Each branch copies its family class's array formula operation for
# operation (network/demand.py, network/throughput.py), guards included.

#: Exponent magnitude beyond which ``e^z`` over/underflows (demand.py).
_EXP_LIMIT = 700.0


def _rate(tag, beta, peak, phi):
    """Per-user throughput ``rate(phi)`` of one tagged column."""
    if tag == RATE_EXPONENTIAL:
        return peak * math.exp((-beta) * phi)
    if tag == RATE_POWER:
        return peak * math.pow(1.0 + phi, -beta)
    return peak / (1.0 + beta * phi)


def _d_rate(tag, beta, peak, phi, r):
    """``d rate / d phi`` of one tagged column; ``r`` is its rate at phi."""
    if tag == RATE_EXPONENTIAL:
        return (-beta) * r
    if tag == RATE_POWER:
        return ((-beta) * peak) * math.pow(1.0 + phi, (-beta) - 1.0)
    d = 1.0 + beta * phi
    return ((-beta) * peak) / (d * d)


def _softplus(t):
    if t > _EXP_LIMIT:
        return t
    return math.log1p(math.exp(t))


def _sigmoid(t):
    z = math.exp(-abs(t))
    if t >= 0.0:
        return 1.0 / (1.0 + z)
    return z / (1.0 + z)


def _demand(tag, p, t):
    """``(m(t), dm/dt)`` of one tagged column, before its share weight."""
    if tag == DEMAND_EXPONENTIAL:
        m = p[1] * math.exp((-p[0]) * t)
        return m, (-p[0]) * m
    if tag == DEMAND_LOGIT:
        z = p[0] * (t - p[1])
        if z > _EXP_LIMIT:
            return 0.0, 0.0
        ez = math.exp(z)
        m = p[2] / (1.0 + ez)
        if z < -_EXP_LIMIT:
            return m, 0.0
        q = 1.0 + ez
        return m, (((-p[0]) * p[2]) * ez) / (q * q)
    if tag == DEMAND_LINEAR:
        if t <= p[3]:
            return p[0] - p[1] * t, -p[1]
        e = ((-p[1]) * (t - p[3])) / p[2]
        if e > 0.0:
            e = 0.0
        tail = math.exp(e)
        return p[2] * tail, (-p[1]) * tail
    sp = _softplus(t)
    m = p[1] * math.pow(1.0 + sp, -p[0])
    dm = (((-p[0]) * p[1]) * math.pow(1.0 + sp, (-p[0]) - 1.0)) * _sigmoid(t)
    return m, dm


def _demand_column(dtags, dparams, i, t, m_out, dm_out):
    """Weighted population and ``dm/ds = -dm/dt`` of column ``i`` at ``t``."""
    m, dpop = _demand(dtags[i], dparams[i], t)
    weight = dparams[i, DEMAND_WIDTH - 1]
    m_out[i] = weight * m
    dm_out[i] = -(weight * dpop)


def _all_finite(values):
    for k in range(values.shape[0]):
        if not math.isfinite(values[k]):
            return False
    return True


# ----------------------------------------------------------------------
# the congestion fixed point, one row at a time
# ----------------------------------------------------------------------
# The gap on linear utilization: g(phi) = phi*mu - sum_k m_k * rate_k(phi).


def _gap_value(phi, m, rtags, rparams, mu):
    demand = 0.0
    for k in range(m.shape[0]):
        r = _rate(rtags[k], rparams[k, 0], rparams[k, 1], phi)
        demand += m[k] * r
    return phi * mu - demand


def _gap_and_slope(phi, m, rtags, rparams, mu):
    demand = 0.0
    dslope = 0.0
    for k in range(m.shape[0]):
        beta = rparams[k, 0]
        peak = rparams[k, 1]
        r = _rate(rtags[k], beta, peak, phi)
        demand += m[k] * r
        dslope += m[k] * _d_rate(rtags[k], beta, peak, phi, r)
    return phi * mu - demand, mu - dslope


def _newton_row(x, m, rtags, rparams, mu, rtol, max_iter):
    """Safeguarded Newton; mirrors ``newton_polish_batch`` row-wise."""
    evals = 0
    for _ in range(max_iter):
        g, slope = _gap_and_slope(x, m, rtags, rparams, mu)
        evals += 1
        step = _safe_div(g, slope)
        informative = (
            math.isfinite(step) and math.isfinite(slope) and slope > 0.0
        )
        if informative:
            proposal = _clamp0(x - step)
        else:
            proposal = x
        delta = abs(proposal - x)
        x = proposal
        if informative and delta <= rtol * (1.0 + abs(x)):
            return x, True, evals
    return x, False, evals


def _expand_row(m, rtags, rparams, mu):
    """Geometric expansion; mirrors ``expand_bracket_batch`` row-wise."""
    f_lo = _gap_value(0.0, m, rtags, rparams, mu)
    evals = 1
    if f_lo >= 0.0:
        # Boundary root: collapsed bracket, resolved at lo by the caller.
        return 0.0, 0.0, f_lo, f_lo, True, evals, 0
    lo = 0.0
    width = 1.0
    hi = 1.0
    f_hi = f_lo
    expansions = 0
    for _ in range(200):
        f_probe = _gap_value(hi, m, rtags, rparams, mu)
        evals += 1
        expansions += 1
        f_hi = f_probe
        if f_probe >= 0.0:
            return lo, hi, f_lo, f_hi, True, evals, expansions
        lo = hi
        f_lo = f_probe
        width *= 2.0
        hi = lo + width
    return lo, hi, f_lo, f_hi, False, evals, expansions


def _bracket_row(
    lo, hi, f_lo, f_hi, m, rtags, rparams, mu, xtol, bisect_iters, max_iter
):
    """Bisection + Illinois; mirrors ``bracketed_root_batch`` row-wise.

    The caller pre-resolves endpoint roots and collapsed brackets, so the
    row is pending on entry (``sign(f_lo) != sign(f_hi)``, both nonzero).
    """
    evals = 0
    for iteration in range(max_iter):
        if not (hi - lo) > xtol:
            break
        if iteration < bisect_iters:
            x = 0.5 * (lo + hi)
        else:
            denom = f_hi - f_lo
            secant = _safe_div(lo * f_hi - hi * f_lo, denom)
            if (not math.isfinite(secant)) or secant <= lo or secant >= hi:
                x = 0.5 * (lo + hi)
            else:
                x = secant
        fx = _gap_value(x, m, rtags, rparams, mu)
        evals += 1
        if fx == 0.0:
            # Exact hit: lockstep collapses the bracket onto the probe and
            # settles at its midpoint, which is the probe itself.
            return x, evals
        same_as_lo = _sgn(fx) == _sgn(f_lo)
        if same_as_lo:
            lo = x
            f_lo = fx
            if iteration >= bisect_iters:
                f_hi = 0.5 * f_hi
        else:
            hi = x
            f_hi = fx
            if iteration >= bisect_iters:
                f_lo = 0.5 * f_lo
    return 0.5 * (lo + hi), evals


def _congestion_row(m, rtags, rparams, mu, phi0, has_phi0, xtol_final):
    """One row of ``solve_population_batch``: warm Newton, then cold solve.

    Returns ``(phi, ok, bad_lo, bad_hi, evals, expansions)``; ``ok`` is
    False only on bracket-expansion failure, with the last interval in
    ``bad_lo``/``bad_hi``.
    """
    idle = True
    for k in range(m.shape[0]):
        if m[k] != 0.0:
            idle = False
            break
    if idle:
        return 0.0, True, 0.0, 0.0, 0, 0
    evals = 0
    expansions = 0
    if has_phi0:
        start = _clamp0(phi0)
        if not math.isfinite(start):
            start = 0.0
        warm, converged, ev = _newton_row(
            start, m, rtags, rparams, mu, 1e-15, 25
        )
        evals += ev
        if converged:
            return warm, True, 0.0, 0.0, evals, expansions
    lo, hi, f_lo, f_hi, closed, ev, ex = _expand_row(m, rtags, rparams, mu)
    evals += ev
    expansions += ex
    if not closed:
        return 0.0, False, lo, hi, evals, expansions
    hit_lo = (f_lo == 0.0) or (hi == lo)
    hit_hi = f_hi == 0.0
    if hit_lo:
        coarse = lo
    elif hit_hi:
        coarse = hi
    else:
        coarse, ev = _bracket_row(
            lo, hi, f_lo, f_hi, m, rtags, rparams, mu, 1e-6, 25, 30
        )
        evals += ev
    polished, converged, ev = _newton_row(
        coarse, m, rtags, rparams, mu, 1e-15, 40
    )
    evals += ev
    if not converged:
        # Stragglers re-bisect from the *original* bracket to full xtol.
        if hit_lo:
            polished = lo
        elif hit_hi:
            polished = hi
        else:
            polished, ev = _bracket_row(
                lo, hi, f_lo, f_hi, m, rtags, rparams, mu, xtol_final, 200, 200
            )
            evals += ev
    return polished, True, 0.0, 0.0, evals, expansions


def _congestion_rows(
    populations,
    rtags,
    rparams,
    mu,
    phi0,
    has_phi0,
    xtol_final,
    phi_out,
    stats,
    fail_rows,
    fail_lo,
    fail_hi,
):
    """Solve every row's fixed point; returns the bracket-failure count.

    ``stats`` accumulates ``[residual_evals, brackets_expanded]``; failing
    rows land in ``fail_rows``/``fail_lo``/``fail_hi`` (first ``nfail``).
    """
    nfail = 0
    for b in range(populations.shape[0]):
        p0 = phi0[b] if has_phi0 else 0.0
        phi, ok, bad_lo, bad_hi, evals, expansions = _congestion_row(
            populations[b], rtags, rparams, mu, p0, has_phi0, xtol_final
        )
        stats[0] += evals
        stats[1] += expansions
        if ok:
            phi_out[b] = phi
        else:
            fail_rows[nfail] = b
            fail_lo[nfail] = bad_lo
            fail_hi[nfail] = bad_hi
            nfail += 1
            phi_out[b] = 0.0
    return nfail


# ----------------------------------------------------------------------
# the marginal-utility chain, one profile row at a time
# ----------------------------------------------------------------------
# Operation order matches SubsidizationGame.marginal_diagnostics_batch:
# populations and dm/ds from the demand columns, the congestion solve,
# then the derivative algebra on the solved rates.


def _demand_row(srow, price, dtags, dparams, m_out, dm_out):
    """Populations of one profile row; False if any is not finite."""
    for i in range(srow.shape[0]):
        _demand_column(dtags, dparams, i, price - srow[i], m_out, dm_out)
    return _all_finite(m_out)


def _marginal_row(
    srow,
    values,
    m,
    dm,
    rtags,
    rparams,
    mu,
    xtol_final,
    phi0,
    has_phi0,
    u_row,
    tmp_r,
    tmp_dr,
):
    """u(s) for one row with populations ``m``; returns (phi, ok, ...)."""
    phi, ok, bad_lo, bad_hi, evals, expansions = _congestion_row(
        m, rtags, rparams, mu, phi0, has_phi0, xtol_final
    )
    if not ok:
        return 0.0, False, bad_lo, bad_hi, evals, expansions
    n = srow.shape[0]
    dslope = 0.0
    for k in range(n):
        beta = rparams[k, 0]
        peak = rparams[k, 1]
        r = _rate(rtags[k], beta, peak, phi)
        dr = _d_rate(rtags[k], beta, peak, phi, r)
        tmp_r[k] = r
        tmp_dr[k] = dr
        dslope += m[k] * dr
    slope = mu - dslope
    for i in range(n):
        r = tmp_r[i]
        dphi = _safe_div(r * dm[i], slope)
        dtheta = dm[i] * r + (m[i] * tmp_dr[i]) * dphi
        u_row[i] = (values[i] - srow[i]) * dtheta - m[i] * r
    return phi, True, 0.0, 0.0, evals, expansions


def _marginal_rows(
    s,
    price,
    values,
    dtags,
    dparams,
    rtags,
    rparams,
    mu,
    xtol_final,
    phi0,
    has_phi0,
    u_out,
    phi_out,
    stats,
    pop_rows,
    fail_rows,
    fail_lo,
    fail_hi,
):
    """u(s) for a (B, N) batch; returns (n_pop_bad, n_bracket_fail)."""
    n = s.shape[1]
    tmp_m = np.empty(n)
    tmp_dm = np.empty(n)
    tmp_r = np.empty(n)
    tmp_dr = np.empty(n)
    npop = 0
    nfail = 0
    for b in range(s.shape[0]):
        if not _demand_row(s[b], price, dtags, dparams, tmp_m, tmp_dm):
            phi_out[b] = 0.0
            pop_rows[npop] = b
            npop += 1
            continue
        p0 = phi0[b] if has_phi0 else 0.0
        phi, ok, bad_lo, bad_hi, evals, expansions = _marginal_row(
            s[b], values, tmp_m, tmp_dm, rtags, rparams, mu, xtol_final,
            p0, has_phi0, u_out[b], tmp_r, tmp_dr,
        )
        stats[0] += evals
        stats[1] += expansions
        phi_out[b] = phi
        if not ok:
            fail_rows[nfail] = b
            fail_lo[nfail] = bad_lo
            fail_hi[nfail] = bad_hi
            nfail += 1
    return npop, nfail


# ----------------------------------------------------------------------
# the fused best-response root loop
# ----------------------------------------------------------------------


def _diag_marginals(
    own,
    sclip,
    price,
    values,
    dtags,
    dparams,
    rtags,
    rparams,
    mu,
    xtol_final,
    phi_io,
    has_chain,
    out_f,
    base_m,
    base_dm,
    work,
    stats,
):
    """Diagonal of u over the (N, N) trial batch; chains phi per row.

    Row ``i`` is the incoming (clipped) profile with entry ``i`` replaced
    by ``clip(own[i], 0, inf)``. Columns other than ``i`` keep the
    populations ``base_m``/``base_dm`` of the clipped profile; only
    column ``i`` is re-evaluated. Every row is evaluated every call — the
    warm-start chain is part of the observable trajectory, so rows are
    never skipped (this mirrors the lockstep batched evaluator exactly).
    ``work`` holds six scratch rows. Returns (status, bad_row): 0 ok,
    2 bracket failure, 3 non-finite populations.
    """
    n = own.shape[0]
    trial = work[0]
    tmp_m = work[1]
    tmp_dm = work[2]
    u_row = work[3]
    tmp_r = work[4]
    tmp_dr = work[5]
    for i in range(n):
        for j in range(n):
            trial[j] = sclip[j]
            tmp_m[j] = base_m[j]
            tmp_dm[j] = base_dm[j]
        trial[i] = _clamp0(own[i])
        _demand_column(dtags, dparams, i, price - trial[i], tmp_m, tmp_dm)
        if not _all_finite(tmp_m):
            return 3, i
        p0 = phi_io[i] if has_chain else 0.0
        phi, ok, _bad_lo, _bad_hi, evals, expansions = _marginal_row(
            trial, values, tmp_m, tmp_dm, rtags, rparams, mu, xtol_final,
            p0, has_chain, u_row, tmp_r, tmp_dr,
        )
        stats[0] += evals
        stats[1] += expansions
        if not ok:
            return 2, i
        phi_io[i] = phi
        out_f[i] = u_row[i]
    return 0, -1


def _best_response_rows(
    s,
    price,
    values,
    dtags,
    dparams,
    rtags,
    rparams,
    mu,
    xtol_final,
    cap,
    phi_io,
    has_chain,
    root_xtol,
    responses,
    u_zero,
    u_cap,
    stats,
):
    """All players' best responses via the fused per-row root loop.

    Mirrors ``best_response_profile_vectorized`` + its
    ``bracketed_root_batch`` call (bisect_iters=6, max_iter=100): corner
    classification from the u(0)/u(cap) evaluations, then Illinois root
    iterations in which *every* row is evaluated at its probe (pending) or
    current root (settled) — the phi chain sees the same trial sequence as
    the lockstep path. Returns (status, bad_row): 0 ok, 2 bracket
    failure inside a congestion solve, 3 non-finite populations. Corner
    finiteness is the caller's check (``u_zero``/``u_cap`` are outputs).
    """
    n = s.shape[0]
    sclip = np.empty(n)
    hi = np.empty(n)
    for i in range(n):
        sclip[i] = _clamp0(s[i])
        hi[i] = cap if cap < values[i] else values[i]
        responses[i] = 0.0
    base_m = np.empty(n)
    base_dm = np.empty(n)
    # Finiteness is checked per trial row, after column i is replaced.
    _demand_row(sclip, price, dtags, dparams, base_m, base_dm)
    work = np.empty((6, n))

    own = np.zeros(n)
    status, bad = _diag_marginals(
        own, sclip, price, values, dtags, dparams, rtags, rparams, mu,
        xtol_final, phi_io, has_chain, u_zero, base_m, base_dm, work, stats,
    )
    if status != 0:
        return status, bad
    for i in range(n):
        own[i] = hi[i] if hi[i] > 0.0 else 0.0
    status, bad = _diag_marginals(
        own, sclip, price, values, dtags, dparams, rtags, rparams, mu,
        xtol_final, phi_io, 1, u_cap, base_m, base_dm, work, stats,
    )
    if status != 0:
        return status, bad

    interior = np.zeros(n, np.uint8)
    pending = np.zeros(n, np.uint8)
    any_interior = False
    for i in range(n):
        playable = hi[i] > 0.0
        at_cap = playable and u_cap[i] >= 0.0
        if at_cap:
            responses[i] = hi[i]
        if playable and u_zero[i] > 0.0 and not at_cap:
            interior[i] = 1
            pending[i] = 1
            any_interior = True
    if not any_interior:
        return 0, -1

    lo_a = np.zeros(n)
    hi_a = hi.copy()
    f_lo = u_zero.copy()
    f_hi = u_cap.copy()
    root = np.zeros(n)
    probe = np.empty(n)
    f = np.empty(n)
    for iteration in range(100):
        n_pending = 0
        for i in range(n):
            if pending[i] and not (hi_a[i] - lo_a[i]) > root_xtol:
                pending[i] = 0
            if pending[i]:
                n_pending += 1
        if n_pending == 0:
            break
        for i in range(n):
            if pending[i]:
                if iteration < 6:
                    x = 0.5 * (lo_a[i] + hi_a[i])
                else:
                    denom = f_hi[i] - f_lo[i]
                    secant = _safe_div(
                        lo_a[i] * f_hi[i] - hi_a[i] * f_lo[i], denom
                    )
                    if (
                        (not math.isfinite(secant))
                        or secant <= lo_a[i]
                        or secant >= hi_a[i]
                    ):
                        x = 0.5 * (lo_a[i] + hi_a[i])
                    else:
                        x = secant
                probe[i] = x
            else:
                probe[i] = root[i]
        status, bad = _diag_marginals(
            probe, sclip, price, values, dtags, dparams, rtags, rparams,
            mu, xtol_final, phi_io, 1, f, base_m, base_dm, work, stats,
        )
        if status != 0:
            return status, bad
        for i in range(n):
            if not pending[i]:
                continue
            fx = f[i]
            if fx == 0.0:
                root[i] = probe[i]
                lo_a[i] = probe[i]
                hi_a[i] = probe[i]
                pending[i] = 0
                continue
            same_as_lo = _sgn(fx) == _sgn(f_lo[i])
            if same_as_lo:
                lo_a[i] = probe[i]
                f_lo[i] = fx
                if iteration >= 6:
                    f_hi[i] = 0.5 * f_hi[i]
            else:
                hi_a[i] = probe[i]
                f_hi[i] = fx
                if iteration >= 6:
                    f_lo[i] = 0.5 * f_lo[i]
    for i in range(n):
        if interior[i]:
            responses[i] = 0.5 * (lo_a[i] + hi_a[i])
    return 0, -1


# ----------------------------------------------------------------------
# the whole equilibrium solve
# ----------------------------------------------------------------------
# core/equilibrium.py's _vector_solve at damping 1 (Jacobi sweeps on the
# fused best-response loop, the projected semismooth Newton polish) and
# the certified state at the solution, as the C kernel runs them.


def _clip_box(x, lo, hi):
    """``np.clip(x, lo, hi)`` bit-for-bit: NaN and ``-0.0`` pass through."""
    if x < lo:
        return lo
    if x > hi:
        return hi
    return x


def _max_abs(v, n):
    """``np.max(np.abs(v[:n]))``: NaN wins."""
    best = abs(v[0])
    for k in range(1, n):
        a = abs(v[k])
        if a > best or math.isnan(a):
            best = a
    return best


def _natural_residual(s, u, cap, n, scratch):
    """``‖s − clip(s + u, 0, cap)‖_∞`` of one profile row."""
    for k in range(n):
        scratch[k] = s[k] - _clip_box(s[k] + u[k], 0.0, cap)
    return _max_abs(scratch, n)


def _pairwise_sum(a, n):
    """``np.sum``'s order over ``a[:n]``: NumPy's pairwise summation,
    eight interleaved accumulators over blocks of at most 128 values."""
    if n < 8:
        res = 0.0
        for i in range(n):
            res += a[i]
        return res
    if n <= 128:
        r = [a[j] for j in range(8)]
        i = 8
        while i < n - (n % 8):
            for j in range(8):
                r[j] += a[i + j]
            i += 8
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        while i < n:
            res += a[i]
            i += 1
        return res
    half = n // 2
    half -= half % 8
    return _pairwise_sum(a, half) + _pairwise_sum(a[half:], n - half)


def _subsidies_valid(s):
    """``Market.subsidy_matrix``'s check: finite and at least ``-1e-12``."""
    for k in range(s.shape[0]):
        if not (s[k] >= -1e-12 and s[k] < math.inf):
            return False
    return True


def _lu_solve(a, b, k):
    """Solve ``a x = b`` in place (``x`` lands in ``b``); False if singular.

    LU with partial pivoting (first largest ``|pivot|``); an exactly zero
    pivot is where LAPACK's ``dgesv`` reports a singular matrix.
    """
    for col in range(k):
        p = col
        biggest = abs(a[col, col])
        for r in range(col + 1, k):
            v = abs(a[r, col])
            if v > biggest:
                biggest = v
                p = r
        if a[p, col] == 0.0:
            return False
        if p != col:
            for j in range(k):
                a[p, j], a[col, j] = a[col, j], a[p, j]
            b[p], b[col] = b[col], b[p]
        for r in range(col + 1, k):
            lower = a[r, col] / a[col, col]
            a[r, col] = lower
            for j in range(col + 1, k):
                a[r, j] -= lower * a[col, j]
            b[r] -= lower * b[col]
    for r in range(k - 1, -1, -1):
        acc = b[r]
        for j in range(k - 1, r, -1):
            acc -= a[r, j] * b[j]
        b[r] = acc / a[r, r]
    return True


class _EquilibriumRun:
    """One solve's model, warm-start chain and scratch.

    The chain mirrors ``BatchedProfileEvaluator``: the utilizations of the
    last evaluated batch, reused as the next batch's warm start only when
    the batch sizes match. ``bad``/``bad_lo``/``bad_hi`` describe the
    first failure.
    """

    def __init__(self, bound, cap, n, stats):
        (self.price, self.values, self.dtags, self.dparams, self.rtags,
         self.rparams, self.mu, self.xtol) = bound
        self.cap = cap
        self.n = n
        self.stats = stats
        wide = max(n, len(LINESEARCH_SCALES))
        self.chain = np.zeros(wide)
        self.chain_next = np.zeros(wide)
        self.chain_len = 0
        self.clipped = np.empty((wide, n))
        self.tmp_dm = np.empty(n)
        self.tmp_r = np.empty(n)
        self.tmp_dr = np.empty(n)
        self.fail_lo = np.empty(wide)
        self.fail_hi = np.empty(wide)
        self.pop_rows = np.empty(wide, dtype=np.int64)
        self.fail_rows = np.empty(wide, dtype=np.int64)
        self.bad = -1
        self.bad_lo = 0.0
        self.bad_hi = 0.0

    def marginals(self, s, u_out):
        """u over a ``(rows, n)`` batch, chaining warm starts; a status.

        ``Market.subsidy_matrix``'s check and clip, then the marginal
        batch kernel.
        """
        rows = s.shape[0]
        if not _subsidies_valid(s.reshape(-1)):
            self.bad = -1
            return EQUILIBRIUM_SUBSIDIES
        clipped = self.clipped[:rows]
        for b in range(rows):
            for k in range(self.n):
                clipped[b, k] = _clamp0(s[b, k])
        npop, nfail = _marginal_rows(
            clipped, self.price, self.values, self.dtags, self.dparams,
            self.rtags, self.rparams, self.mu, self.xtol, self.chain,
            self.chain_len == rows, u_out, self.chain_next, self.stats,
            self.pop_rows, self.fail_rows, self.fail_lo, self.fail_hi,
        )
        if npop:
            self.bad = self.pop_rows[0]
            return EQUILIBRIUM_POPULATIONS
        if nfail:
            self.bad = self.fail_rows[0]
            self.bad_lo = self.fail_lo[0]
            self.bad_hi = self.fail_hi[0]
            return EQUILIBRIUM_BRACKET
        self.chain[:rows] = self.chain_next[:rows]
        self.chain_len = rows
        return EQUILIBRIUM_CONVERGED

    def _hi(self, i):
        cap = self.cap
        value = self.values[i]
        return cap if cap < value else value

    def best_responses(self, s, root_xtol, responses, u_zero, u_cap):
        """``best_response_profile_vectorized`` on the fused root loop."""
        n = self.n
        any_playable = False
        for i in range(n):
            responses[i] = 0.0
            if self._hi(i) > 0.0:
                any_playable = True
        if not any_playable:
            return EQUILIBRIUM_CONVERGED
        # The trial batch's off-diagonal entries are the incoming profile.
        if n > 1 and not _subsidies_valid(s):
            self.bad = -1
            return EQUILIBRIUM_SUBSIDIES
        phi_io = self.chain[:n]
        status, bad = _best_response_rows(
            s, self.price, self.values, self.dtags, self.dparams,
            self.rtags, self.rparams, self.mu, self.xtol, self.cap, phi_io,
            self.chain_len == n, root_xtol, responses, u_zero, u_cap,
            self.stats,
        )
        if status != 0:
            self.bad = bad
            if status == 3:
                return EQUILIBRIUM_POPULATIONS
            return EQUILIBRIUM_ROOT_BRACKET
        for i in range(n):
            if self._hi(i) > 0.0 and not (
                math.isfinite(u_zero[i]) and math.isfinite(u_cap[i])
            ):
                self.bad = i
                return EQUILIBRIUM_CORNER
        self.chain_len = n
        return EQUILIBRIUM_CONVERGED

    def newton(self, s_io, tol):
        """``_newton_polish`` from ``s_io``: ``(status, polished, iters)``.

        On success ``s_io`` holds the polished profile; otherwise it is
        untouched.
        """
        n = self.n
        q = self.cap
        steps = len(LINESEARCH_SCALES)
        wide = max(n, steps)
        s = s_io.copy()
        u = np.empty((1, n))
        scratch = np.empty(n)
        step = np.empty(n)
        h = np.empty(n)
        probes = np.empty((wide, n))
        perturbed = np.empty((wide, n))
        jac = np.empty((n, n))
        status = self.marginals(s[None, :], u)
        if status != EQUILIBRIUM_CONVERGED:
            return status, False, 0
        u = u[0]
        residual = _natural_residual(s, u, q, n, scratch)
        for iteration in range(1, NEWTON_MAX_ITER + 1):
            if residual <= tol:
                s_io[:] = s
                return EQUILIBRIUM_CONVERGED, True, iteration - 1
            inactive = []
            active = []
            for i in range(n):
                shifted = s[i] + u[i]
                lower = shifted <= NEWTON_ACTIVE_TOL
                upper = shifted >= q - NEWTON_ACTIVE_TOL
                step[i] = 0.0
                if lower:
                    step[i] = -s[i]
                if upper:
                    step[i] = q - s[i]
                if lower or upper:
                    active.append(i)
                else:
                    inactive.append(i)
            # Forward-difference Jacobian: probe j perturbs player j,
            # flipped where a forward step would leave the box.
            for j in range(n):
                hj = 1e-7 * (1.0 + abs(s[j]))
                h[j] = hj if s[j] + hj <= q else -hj
            for j in range(n):
                for k in range(n):
                    probes[j, k] = s[k] + h[j] * (1.0 if j == k else 0.0)
            status = self.marginals(probes[:n], perturbed[:n])
            if status != EQUILIBRIUM_CONVERGED:
                return status, False, 0
            for i in range(n):
                for j in range(n):
                    jac[i, j] = (perturbed[j, i] - u[i]) / h[j]
            if inactive:
                k = len(inactive)
                block = np.empty((k, k))
                rhs = np.empty(k)
                for r, i in enumerate(inactive):
                    value = -u[i]
                    if active:
                        acc = 0.0
                        for a in active:
                            acc += jac[i, a] * step[a]
                        value = value - acc
                    rhs[r] = value
                    for col, j in enumerate(inactive):
                        block[r, col] = jac[i, j]
                if _lu_solve(block, rhs, k):
                    for r, i in enumerate(inactive):
                        step[i] = rhs[r]
                else:
                    # Singular inactive block: projected gradient step.
                    for i in inactive:
                        step[i] = u[i]
            for t in range(steps):
                scale = LINESEARCH_SCALES[t]
                for k in range(n):
                    probes[t, k] = _clip_box(s[k] + scale * step[k], 0.0, q)
            status = self.marginals(probes[:steps], perturbed[:steps])
            if status != EQUILIBRIUM_CONVERGED:
                return status, False, 0
            best = -1
            for t in range(steps):
                r = _natural_residual(probes[t], perturbed[t], q, n, scratch)
                if r < residual:
                    best = t
                    residual = r
                    break
            if best < 0:
                return EQUILIBRIUM_CONVERGED, False, 0
            s[:] = probes[best]
            u[:] = perturbed[best]
        if residual <= tol:
            s_io[:] = s
            return EQUILIBRIUM_CONVERGED, True, NEWTON_MAX_ITER
        return EQUILIBRIUM_CONVERGED, False, 0

    def state(self, s, out, u):
        """The certified state at ``s`` with a cold congestion root.

        ``out`` takes the state row: subsidies | effective prices |
        populations | rates | throughputs | utilities | utilization, gap
        slope, revenue, welfare, KKT residual, revenue slope (written by
        :meth:`slope`, when asked).
        """
        n = self.n
        if not _subsidies_valid(s):
            self.bad = -1
            return EQUILIBRIUM_SUBSIDIES
        sc = out[:n]
        effective = out[n:2 * n]
        m = out[2 * n:3 * n]
        r = out[3 * n:4 * n]
        theta = out[4 * n:5 * n]
        utilities = out[5 * n:6 * n]
        for i in range(n):
            sc[i] = _clamp0(s[i])
            effective[i] = self.price - sc[i]
        if not _demand_row(sc, self.price, self.dtags, self.dparams, m,
                           self.tmp_dm):
            self.bad = 0
            return EQUILIBRIUM_POPULATIONS
        phi, ok, bad_lo, bad_hi, evals, expansions = _marginal_row(
            sc, self.values, m, self.tmp_dm, self.rtags, self.rparams,
            self.mu, self.xtol, 0.0, False, u, r, self.tmp_dr,
        )
        self.stats[0] += evals
        self.stats[1] += expansions
        if not ok:
            self.bad = 0
            self.bad_lo = bad_lo
            self.bad_hi = bad_hi
            return EQUILIBRIUM_BRACKET
        dslope = 0.0
        welfare = 0.0
        for i in range(n):
            dslope += m[i] * self.tmp_dr[i]
            theta[i] = m[i] * r[i]
            utilities[i] = (self.values[i] - sc[i]) * theta[i]
            welfare += self.values[i] * theta[i]
        out[6 * n] = phi
        out[6 * n + 1] = self.mu - dslope
        # Revenue sums in Market.solve's np.sum order.
        out[6 * n + 2] = self.price * _pairwise_sum(theta, n)
        out[6 * n + 3] = welfare
        out[6 * n + 4] = _natural_residual(s, u, self.cap, n, self.tmp_r)
        return EQUILIBRIUM_CONVERGED

    def _probe(self, srow, price, dparams, phi0, u_out, m, dm):
        """u at one profile row under its own price and demand parameters,
        warm-started at ``phi0``; False when a population or the
        congestion root fails."""
        if not _demand_row(srow, price, self.dtags, dparams, m, dm):
            return False
        _phi, ok, _lo, _hi, evals, expansions = _marginal_row(
            srow, self.values, m, dm, self.rtags, self.rparams, self.mu,
            self.xtol, phi0, True, u_out, self.tmp_r, self.tmp_dr,
        )
        self.stats[0] += evals
        self.stats[1] += expansions
        return ok

    def slope(self, state, u, rate):
        """``dR/dp`` at the certified state row ``state`` (``u`` at its
        profile), along a price move that scales every demand weight by
        ``d ln w/dp = rate``.

        Theorem 7's eq. (13) with ``∂s/∂p`` from Theorem 6 on the
        interior block, plus the share term: ``Σθ + Υ·p·Σ_j λ_j·dm_j/dp``
        with ``Υ = µ/(dg/dφ)`` and ``dm_j/dp = rate·m_j + m'_j(1 − ∂s_j/∂p)``.
        ``∂u/∂p`` along the move and the interior Jacobian are central
        differences (``core/dynamics.py``'s steps and box rule), every
        probe warm-started at the state's utilization, so the slope is a
        function of the profile alone. NaN when a probe fails or the
        interior block is singular.
        """
        n = self.n
        price = self.price
        cap = self.cap
        s = state[:n]
        m = state[2 * n:3 * n]
        r = state[3 * n:4 * n]
        theta = state[4 * n:5 * n]
        phi = state[6 * n]
        gap = state[6 * n + 1]
        pop = np.empty(n)
        dm = np.empty(n)
        width = DEMAND_WIDTH - 1
        h = SLOPE_STEP * (abs(price) if abs(price) > 1.0 else 1.0)
        if price - h < 0.0:
            h = price / 2.0 if price > 0.0 else SLOPE_STEP
        p_hi = price + h
        p_lo = _clamp0(price - h)
        u_hi = np.empty(n)
        u_lo = np.empty(n)
        weighted = self.dparams.copy()
        for p_at, u_at in ((p_hi, u_hi), (p_lo, u_lo)):
            scale = math.exp(rate * (p_at - price))
            for i in range(n):
                weighted[i, width] = self.dparams[i, width] * scale
            if not self._probe(s, p_at, weighted, phi, u_at, pop, dm):
                return math.nan
        interior = [
            i for i in range(n)
            if SLOPE_BOUNDARY_TOL < s[i] < cap - SLOPE_BOUNDARY_TOL
        ]
        ds = np.zeros(n)
        k = len(interior)
        if k:
            block = np.empty((k, k))
            rhs = np.empty(k)
            fwd = np.empty(n)
            bwd = np.empty(n)
            probe = s.copy()
            for col, j in enumerate(interior):
                hj = SLOPE_STEP * (abs(s[j]) if abs(s[j]) > 1.0 else 1.0)
                up = cap - s[j]
                down = s[j]
                room = up if up > down else down
                if room < hj:
                    hj = room
                f_fwd = u
                f_bwd = u
                if up >= hj:
                    probe[j] = s[j] + hj
                    if not self._probe(probe, price, self.dparams, phi, fwd,
                                       pop, dm):
                        return math.nan
                    f_fwd = fwd
                if down >= hj:
                    probe[j] = s[j] - hj
                    if not self._probe(probe, price, self.dparams, phi, bwd,
                                       pop, dm):
                        return math.nan
                    f_bwd = bwd
                probe[j] = s[j]
                denominator = 2.0 * hj if up >= hj and down >= hj else hj
                for row, i in enumerate(interior):
                    block[row, col] = (f_fwd[i] - f_bwd[i]) / denominator
            for row, i in enumerate(interior):
                rhs[row] = -((u_hi[i] - u_lo[i]) / (p_hi - p_lo))
            if not _lu_solve(block, rhs, k):
                return math.nan
            for row, i in enumerate(interior):
                ds[i] = rhs[row]
        _demand_row(s, price, self.dtags, self.dparams, pop, dm)
        acc = 0.0
        for j in range(n):
            acc += r[j] * (rate * m[j] - dm[j] * (1.0 - ds[j]))
        return _pairwise_sum(theta, n) + ((self.mu / gap) * price) * acc


def _certify(run, s, out, u, rate):
    """The state row at ``s`` into ``out``, and its revenue slope when
    ``rate`` is not None."""
    status = run.state(s, out, u)
    if status == EQUILIBRIUM_CONVERGED and rate is not None:
        out[6 * run.n + 5] = run.slope(out, u, rate)
    return status


def _equilibrium_rows(bound, s0, cap, tol, max_sweeps, rate, out, stats):
    """The Jacobi + Newton solve; returns ``(status, iterations, run)``.

    ``out[:n]`` receives the final profile and, on convergence,
    ``out[n:]`` the state row (see ``_EquilibriumRun.state``), with the
    revenue slope in its last slot when ``rate`` is not None.
    """
    n = s0.shape[0]
    run = _EquilibriumRun(bound, cap, n, stats)
    s = out[:n]
    s[:] = s0
    u = np.empty((1, n))
    scratch = np.empty(n)
    responses = np.empty(n)
    u_zero = np.empty(n)
    u_cap = np.empty(n)
    residual_tol = 1e-12 if 1e-12 > tol else tol
    # The initial residual seeds the change estimate, so a warm start
    # lands straight in the Newton polish.
    status = run.marginals(s[None, :], u)
    if status != EQUILIBRIUM_CONVERGED:
        return status, max_sweeps, run
    largest_change = _natural_residual(s, u[0], cap, n, scratch)
    barrier = math.inf
    for sweep in range(1, max_sweeps + 1):
        trigger = barrier if barrier < NEWTON_TRIGGER else NEWTON_TRIGGER
        if largest_change <= trigger:
            status, polished, newton_iters = run.newton(s, residual_tol)
            if status != EQUILIBRIUM_CONVERGED:
                return status, max_sweeps, run
            if polished:
                status = _certify(run, s, out[n:], u[0], rate)
                return status, sweep - 1 + newton_iters, run
            # Newton stalled: sweep until the change shrinks a lot.
            barrier = largest_change / 4.0
        root_xtol = _clip_box(0.05 * largest_change, 1e-12, 5e-4)
        status = run.best_responses(s, root_xtol, responses, u_zero, u_cap)
        if status != EQUILIBRIUM_CONVERGED:
            return status, max_sweeps, run
        for i in range(n):
            u_cap[i] = responses[i] - s[i]
        largest_change = _max_abs(u_cap, n)
        for i in range(n):
            s[i] = s[i] + u_cap[i]
        if largest_change <= tol:
            status = run.marginals(s[None, :], u)
            if status != EQUILIBRIUM_CONVERGED:
                return status, max_sweeps, run
            if _natural_residual(s, u[0], cap, n, scratch) <= residual_tol:
                status = _certify(run, s, out[n:], u[0], rate)
                return status, sweep, run
    return EQUILIBRIUM_BUDGET, max_sweeps, run


# ----------------------------------------------------------------------
# the kernel-module call shape (see repro.backend.dispatch)
# ----------------------------------------------------------------------
# These only carve each call's outputs from one float64 and one int64
# workspace, in the same layout as the C binding.

#: Stands in for an absent warm start (the row drivers never read it).
_NO_START = np.zeros(1)


def bind(plan):
    """The plan's constant kernel arguments, in call order."""
    return (
        plan.price, plan.values, plan.demand_tags, plan.demand_params,
        plan.rate_tags, plan.rate_params, plan.mu, plan.xtol,
    )


def congestion_batch(bound, populations, phi0):
    """Fixed points of a population batch (see ``_congestion_rows``)."""
    _, _, _, _, rtags, rparams, mu, xtol = bound
    rows = populations.shape[0]
    fwork = np.empty(3 * rows)
    iwork = np.zeros(2 + rows, dtype=np.int64)
    phi_out = fwork[:rows]
    fail_lo = fwork[rows:2 * rows]
    fail_hi = fwork[2 * rows:]
    stats = iwork[:2]
    fail_rows = iwork[2:]
    nfail = _congestion_rows(
        populations, rtags, rparams, mu,
        _NO_START if phi0 is None else phi0, phi0 is not None, xtol,
        phi_out, stats, fail_rows, fail_lo, fail_hi,
    )
    return phi_out, stats, fail_rows[:nfail], fail_lo[:nfail], fail_hi[:nfail]


def marginal_batch(bound, s, phi0):
    """u(s) of a profile batch (see ``_marginal_rows``)."""
    price, values, dtags, dparams, rtags, rparams, mu, xtol = bound
    rows, n = s.shape
    cells = rows * n
    fwork = np.empty(cells + 3 * rows)
    iwork = np.zeros(4 + 2 * rows, dtype=np.int64)
    u_out = fwork[:cells].reshape(rows, n)
    phi_out = fwork[cells:cells + rows]
    fail_lo = fwork[cells + rows:cells + 2 * rows]
    fail_hi = fwork[cells + 2 * rows:]
    stats = iwork[:2]
    pop_rows = iwork[4:4 + rows]
    fail_rows = iwork[4 + rows:]
    npop, nfail = _marginal_rows(
        s, price, values, dtags, dparams, rtags, rparams, mu, xtol,
        _NO_START if phi0 is None else phi0, phi0 is not None,
        u_out, phi_out, stats, pop_rows, fail_rows, fail_lo, fail_hi,
    )
    return (
        u_out, phi_out, stats, npop,
        fail_rows[:nfail], fail_lo[:nfail], fail_hi[:nfail],
    )


def best_response_root(bound, s, cap, phi0, root_xtol):
    """All players' best responses (see ``_best_response_rows``)."""
    price, values, dtags, dparams, rtags, rparams, mu, xtol = bound
    n = s.shape[0]
    fwork = np.zeros(4 * n)
    iwork = np.zeros(2, dtype=np.int64)
    responses = fwork[:n]
    u_zero = fwork[n:2 * n]
    u_cap = fwork[2 * n:3 * n]
    phi_io = fwork[3 * n:]
    if phi0 is not None:
        phi_io[:] = phi0
    status, bad = _best_response_rows(
        s, price, values, dtags, dparams, rtags, rparams, mu, xtol, cap,
        phi_io, phi0 is not None, root_xtol, responses, u_zero, u_cap, iwork,
    )
    return responses, u_zero, u_cap, phi_io, iwork, status, bad


def revenue_slope(bound, s, cap, share_rate):
    """The revenue slope at an equilibrium profile solved elsewhere: the
    certified state at ``s``, then ``_EquilibriumRun.slope`` (NaN when the
    state fails). Returns ``(slope, stats)``."""
    n = s.shape[0]
    stats = np.zeros(2, dtype=np.int64)
    run = _EquilibriumRun(bound, cap, n, stats)
    row = np.empty(6 * n + 6)
    u = np.empty(n)
    if run.state(s, row, u) != EQUILIBRIUM_CONVERGED:
        return math.nan, stats
    return run.slope(row, u, share_rate), stats


def equilibrium_solve(bound, s0, cap, tol, max_sweeps, share_rate=None):
    """One whole equilibrium solve (see ``_equilibrium_rows``)."""
    n = s0.shape[0]
    fwork = np.zeros(7 * n + 8)
    fwork[7 * n + 5] = math.nan
    iwork = np.zeros(2, dtype=np.int64)
    status, iterations, run = _equilibrium_rows(
        bound, s0, cap, tol, max_sweeps, share_rate, fwork, iwork
    )
    fwork[7 * n + 6] = run.bad_lo
    fwork[7 * n + 7] = run.bad_hi
    return (
        fwork[:n], fwork[n:7 * n + 6], iwork, iterations, status, run.bad,
        fwork[7 * n + 6:],
    )
