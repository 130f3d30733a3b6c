"""Fixed-point machinery: naive iteration, Anderson acceleration, Perron-Frobenius
eigenvalue estimation, and the infinity-norm weight projection.

Anderson acceleration follows Walker & Ni (2011): the next iterate is the
affine combination of the last k map evaluations whose coefficients minimize
the combined residual norm subject to summing to one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.linalg import _umath_linalg

DIVERGENCE_LIMIT = 1e6
# Tikhonov weight of the Anderson least-squares step, relative to the mean
# squared residual difference, so it keeps its effect as residuals shrink
ANDERSON_RIDGE = 1e-8


class DivergenceError(RuntimeError):
    """Residual exceeded the divergence guard during a fixed-point solve."""


@dataclass
class SolverConfig:
    """Fixed-point solver settings.

    m is the residual history size (number of stored columns); m = 1 degrades
    to plain fixed-point iteration. tol is a relative residual threshold; when
    None it is resolved per dtype (1e-5 for f32, 1e-8 for f64).
    """

    m: int = 5
    max_iter: int = 50
    tol: float | None = None

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")

    def resolve_tol(self, dtype: np.dtype) -> float:
        if self.tol is not None:
            return self.tol
        return 1e-8 if np.dtype(dtype) == np.float64 else 1e-5


@dataclass
class SolverResult:
    x_star: np.ndarray
    residuals: list[float]
    iterations: int
    converged: bool
    fallback_steps: list[int] = field(default_factory=list)
    stop_reason: str | None = None


def naive_iterate(
    f: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    max_iter: int = 50,
    tol: float = 1e-6,
) -> SolverResult:
    """Iterate x <- f(x) until the relative residual drops below tol.

    Convergence tests the relative residual ||f(x)-x|| / (||x|| + 1e-12); the
    divergence guard trips on the absolute residual so that starting at zero
    does not spuriously abort.
    """
    x = np.asarray(x0)
    residuals: list[float] = []
    for it in range(1, max_iter + 1):
        fx = f(x)
        gap = float(np.linalg.norm(fx - x))
        res = float(gap / (np.linalg.norm(x) + 1e-12))
        residuals.append(res)
        if gap > DIVERGENCE_LIMIT or not np.isfinite(gap):
            raise DivergenceError(f"divergence: residual {gap:.3e} at iteration {it}")
        if res < tol:
            return SolverResult(fx, residuals, it, True)
        x = fx
    return SolverResult(x, residuals, len(residuals), False)


@dataclass
class StackResult:
    """A stacked solve: one `SolverResult` per stacked problem, and the final
    iterates stacked in `x_star` (each result's x_star is a view into it).

    `iterations`, `converged` and `fallback_steps` summarize the stack for
    logs: the steps the stack ran (its longest problem's), whether every
    problem converged, and every problem's fallback steps in problem order.
    """

    x_star: np.ndarray
    results: list[SolverResult]

    @property
    def iterations(self) -> int:
        return max(r.iterations for r in self.results)

    @property
    def converged(self) -> bool:
        return all(r.converged for r in self.results)

    @property
    def fallback_steps(self) -> list[int]:
        return [step for r in self.results for step in r.fallback_steps]


def anderson(
    f: Callable,
    x0: np.ndarray,
    cfg: SolverConfig,
    on_iterate: Callable | None = None,
    stacked: bool = False,
) -> SolverResult | StackResult:
    """Anderson-accelerated fixed-point solve of x = f(x).

    Keeps the last min(m, t+1) iterates and residuals g_i = f(x_i) - x_i,
    solves min_alpha ||G alpha||_2 with sum(alpha) = 1 by eliminating the
    constraint and solving the ridge-regularized normal equations (ridge
    scaled to the mean diagonal of the Gram matrix: an absolute ridge swamps
    the Gram matrix once residuals fall below its square root, and the step
    degrades to plain iteration), and forms
    the next iterate as sum_i alpha_i f(x_i). A singular least-squares step
    falls back to the plain update for that iteration (recorded in
    `fallback_steps`).

    With stacked=True, x0's leading axis stacks independent problems that are
    solved side by side and returned as a `StackResult`: each keeps its own
    window, residuals, fallbacks and stop. f(x) maps the whole stack at every
    step. A problem that has stopped is held at its result, its row of x set
    back to its final iterate before each map, and records nothing more (no
    residual, divergence check or fallback step). At every step, once each
    running problem's residual is recorded and checked for divergence,
    on_iterate(fx, it, items) gets the whole stack's map values and the stack
    positions of the running problems, and returns one stop reason or None
    per running problem; a problem whose residual meets tol at that step
    stops converged, with no stop reason, whatever reason it was given. A
    problem that diverges raises `DivergenceError` for the stack, with the
    message it raises alone. A single solve is the stack of one, and its
    on_iterate(fx, it) returns one reason or None.

    The window holds each problem's residuals as rows of an f64 (m, N)
    buffer and its f(x) values as columns of an (N, k) array of f(x)'s dtype,
    oldest first; the columns grow while k < m. Once full, each window moves
    one slot toward its start by one flat 1-D slice assignment, which numpy
    makes without a temporary; an element that crosses into the next row or
    problem lands in the slot written next. BLAS sums the small products
    below in an order that depends on operand layout, so the layouts are
    fixed: the difference matrix D = g_new - g_i is a C-contiguous (N, k-1)
    f64 array, the newest residual enters D^T g as a strided vector, and the
    combination multiplies the C-contiguous (N, k) columns. Each product is
    a stacked matmul or `np.vecdot` over per-problem operands, so BLAS sees
    the same operands as for one problem alone. Norms are sqrt(v . v) in the iterate's dtype, as
    np.linalg.norm computes them; a stack of one takes them as 1-D dots,
    which cost less per call than stacked ones.
    """
    if not stacked:
        stop = None if on_iterate is None else (
            lambda fx, it, _items: [on_iterate(fx[0], it)])
        return anderson(lambda x: f(x[0])[None], np.asarray(x0)[None], cfg, stop,
                        stacked=True).results[0]
    x0 = np.asarray(x0)
    size, shape = x0.shape[0], x0.shape[1:]
    x = x0.reshape(size, -1).copy()
    tol = cfg.resolve_tol(x.dtype)
    n, m = x.shape[1], cfg.m
    items = tuple(range(size))  # stack positions of the problems still running
    held: list[int] = []  # stack positions of the problems that stopped
    g_rows = np.empty((size, m, n))  # windows of residuals f(x_i) - x_i, solved in f64
    fx_cols: np.ndarray | None = None  # windows of f(x_i) as columns, aligned with g_rows
    x_out: np.ndarray | None = None  # each problem's final iterate
    g_last = np.empty((size, n, 2))[..., :1]  # the newest residuals, as strided vectors
    k = 0
    residuals: list[list[float]] = [[] for _ in range(size)]
    fallbacks: list[list[int]] = [[] for _ in range(size)]
    results: list[SolverResult | None] = [None] * size

    def finish(i: int, value: np.ndarray, it: int, converged: bool,
               reason: str | None = None) -> None:
        x_out[i] = value
        results[i] = SolverResult(x_out[i].reshape(shape), residuals[i], it, converged,
                                  fallbacks[i], stop_reason=reason)

    for it in range(1, cfg.max_iter + 1):
        if held:
            x[held] = x_out[held]
        fx = f(x.reshape(size, *shape)).reshape(x.shape)
        if x_out is None:
            x_out = np.empty((size, n), dtype=fx.dtype)
        g = fx - x
        if k == m:
            g_flat, fx_flat = g_rows.reshape(-1), fx_cols.reshape(-1)
            g_flat[:-n] = g_flat[n:]
            fx_flat[:-1] = fx_flat[1:]
            fx_cols[..., -1] = fx
        else:
            k += 1
            fx_cols = (fx[..., None].copy() if fx_cols is None
                       else np.concatenate((fx_cols, fx[..., None]), axis=-1))
        g_rows[:, k - 1] = g
        # residuals are compared as Python floats, as one problem's would be
        if size == 1:
            gap = float(np.sqrt(g[0].dot(g[0])))
            gaps, res = [gap], [float(gap / (np.sqrt(x[0].dot(x[0])) + 1e-12))]
        else:
            gaps = np.sqrt(np.vecdot(g, g))
            x_norms = np.sqrt(np.vecdot(x, x))
            # divided in the iterate's dtype, as a Python float gap would be
            res = (gaps.astype(x_norms.dtype, copy=False) / (x_norms + 1e-12)).tolist()
            gaps = gaps.tolist()
        for i in items:
            residuals[i].append(res[i])
            if gaps[i] > DIVERGENCE_LIMIT or not math.isfinite(gaps[i]):
                raise DivergenceError(f"divergence: residual {gaps[i]:.3e} at iteration {it}")
        reasons = ([None] * len(items) if on_iterate is None
                   else on_iterate(fx.reshape(size, *shape), it, items))
        for i, reason in zip(items, reasons):
            if res[i] < tol or reason is not None:
                finish(i, fx[i], it, res[i] < tol, None if res[i] < tol else reason)
                held.append(i)
        if len(held) == size:
            break
        items = tuple(i for i in items if results[i] is None)
        if k == 1:
            x = fx.copy()
            continue
        g_last[..., 0] = g_rows[:, k - 1]
        d = np.empty((size, n, k - 1))
        d_t = d.transpose(0, 2, 1)
        np.subtract(g_rows[:, k - 1 : k], g_rows[:, : k - 1], out=d_t)
        gram = d_t @ d
        # the ridge goes onto each matrix's diagonal, a strided view; the
        # trace is the view's sum, in the diagonal's order
        diag = gram.reshape(size, -1)[:, ::k]
        diag += ANDERSON_RIDGE * (diag.sum(axis=1, keepdims=True) / (k - 1))
        beta = solve_stack(gram, d_t @ g_last)
        sums = beta.sum(axis=1)
        failed = []
        if not all(map(math.isfinite, sums.ravel().tolist())):  # some beta is not finite
            failed = np.flatnonzero(~np.isfinite(beta).all(axis=(1, 2))).tolist()
            beta[failed] = 0.0  # these problems take the plain update below
            sums = beta.sum(axis=1)
        alpha = np.empty((size, k, 1), dtype=fx.dtype)
        alpha[:, :-1] = beta
        alpha[:, -1] = 1.0 - sums
        x = (fx_cols @ alpha)[..., 0]
        for i in failed:
            x[i] = fx[i]
            if results[i] is None:
                fallbacks[i].append(it)
    else:
        for i in items:
            finish(i, x[i], it, False)
    return StackResult(x_out.reshape(size, *shape), results)


def solve_stack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve each f64 system a[i] x = b[i] of a stack, as `np.linalg.solve`
    does through the LAPACK gufunc it wraps, without the wrapper's checks.

    A singular item solves to NaN, and the other items keep their bits; the
    wrapper would raise `LinAlgError` for the whole stack instead. No
    floating-point warning is raised for it.
    """
    with np.errstate(all="ignore"):
        return _umath_linalg.solve(a, b, signature="dd->d")


def pf_eigenvalue(matrix: np.ndarray, max_iter: int = 1000,
                  tol: float = 1e-12) -> float | np.ndarray:
    """Spectral radius of a nonnegative matrix by power iteration.

    Negative entries are folded with abs() first. Iterates on M + I so that
    periodic nonnegative matrices (e.g. permutations) converge; the unit
    shift is subtracted from the Rayleigh estimate, which is exact because
    adding I shifts every eigenvalue of a nonnegative matrix by one. The
    product in each step's Rayleigh quotient is the next step's iterate, so
    a step costs one matrix-vector product.

    Leading axes stack matrices of one shape, and the result is an array
    over them (a float for one matrix, the stack of one). Each matrix keeps
    its own stop and leaves the stack when it stops, unlike a stacked
    `anderson` problem: only this loop's own arrays are sliced, and the stops
    spread widely over stacks of a few hundred matrices at tol 1e-12, so
    holding the stopped ones would keep most products running. The products
    are stacked matmuls and `np.vecdot`s over each matrix's own operands, so
    a matrix gets the bits it gets alone; a stack saves per-call dispatch,
    and a stack of one costs about three times a plain 1-D loop.
    """
    # a new C-ordered array, which becomes M + I in place
    m = np.abs(matrix, dtype=np.float64, order="C")
    lead, n = m.shape[:-2], m.shape[-1]
    m = m.reshape(math.prod(lead), n, n)
    lam_out = np.zeros(len(m))  # estimates before the shift; 0 for a zero matrix
    items = np.flatnonzero(m.reshape(len(m), -1).any(axis=1))
    if len(items):
        ms = m if len(items) == len(m) else m[items]
        diag = np.arange(n)
        ms[:, diag, diag] += 1.0
        x = np.full((len(items), n), 1.0 / np.sqrt(n))
        y = np.matmul(ms, x[..., None])[..., 0]
        lam = np.zeros(len(items))
        for _ in range(max_iter):
            np.divide(y, np.sqrt(np.vecdot(y, y))[:, None], out=x)
            np.matmul(ms, x[..., None], out=y[..., None])
            lam_new = np.vecdot(x, y)
            stop = np.abs(lam_new - lam) < tol * np.maximum(1.0, np.abs(lam_new))
            lam = lam_new
            if stop.any():
                lam_out[items[stop]] = lam[stop]
                keep = ~stop
                items, ms, x, y, lam = (v[keep] for v in (items, ms, x, y, lam))
                if not len(items):
                    break
        lam_out[items] = lam
    lam_out = np.maximum(lam_out - 1.0, 0.0)
    return float(lam_out[0]) if not lead else lam_out.reshape(lead)


def project_l1_ball(v: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection of a vector onto the L1 ball of the given radius.

    Sorted-threshold algorithm of Duchi et al. (2008): soft-threshold at the
    level that makes the result's L1 norm hit the radius.
    """
    v = np.asarray(v, dtype=np.float64)
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    a = np.abs(v)
    if a.sum() <= radius:
        return v.copy()
    if radius == 0.0:
        return np.zeros_like(v)
    u = np.sort(a)[::-1]
    css = np.cumsum(u)
    idx = np.arange(1, len(v) + 1)
    rho = int(np.max(np.nonzero(u - (css - radius) / idx > 0)[0])) + 1
    theta = (css[rho - 1] - radius) / rho
    return np.sign(v) * np.maximum(a - theta, 0.0)


def project_wellposed(w: np.ndarray, lambda_pf: float, kappa: float) -> np.ndarray:
    """Project W in Frobenius distance onto {M : ||M||_inf <= kappa / lambda_pf}.

    The infinity norm is the max row L1 norm, so the projection decomposes
    into independent L1-ball projections per row. lambda_pf <= 0 means no
    constraint is needed and W is returned unchanged. Projected rows land a
    few units in the last place of W's dtype inside the radius, so the bound
    still holds after the cast back to that dtype and a row sum taken in it.
    """
    if lambda_pf <= 0.0:
        return np.array(w, copy=True)
    radius = kappa / lambda_pf
    inner = radius * (1.0 - w.shape[1] * float(np.finfo(w.dtype).eps))
    out = np.array(w, dtype=np.float64, copy=True)
    norms = np.abs(out).sum(axis=1)
    for i in np.nonzero(norms > radius)[0]:
        out[i] = project_l1_ball(out[i], inner)
    return out.astype(w.dtype, copy=False)
