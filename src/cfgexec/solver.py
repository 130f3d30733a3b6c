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

DIVERGENCE_LIMIT = 1e6


class DivergenceError(RuntimeError):
    """Residual exceeded the divergence guard during a fixed-point solve."""


@dataclass
class SolverConfig:
    """Fixed-point solver settings.

    m is the residual history size (number of stored columns); m = 1 degrades
    to plain fixed-point iteration. tol is a relative residual threshold; when
    None it is resolved per dtype (1e-5 for f32, 1e-8 for f64). ridge is the
    Tikhonov weight of the Anderson least-squares step, relative to the mean
    squared residual difference, so it keeps its effect as residuals shrink.
    """

    m: int = 5
    max_iter: int = 50
    tol: float | None = None
    ridge: float = 1e-8

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
    on_iterate: Callable[[np.ndarray, int], str | None] | None = None,
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
        if on_iterate is not None:
            reason = on_iterate(fx, it)
            if reason is not None:
                return SolverResult(fx, residuals, it, False, stop_reason=reason)
        x = fx
    return SolverResult(x, residuals, len(residuals), False)


def anderson(
    f: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    cfg: SolverConfig,
    tol: float | None = None,
    on_iterate: Callable[[np.ndarray, int], str | None] | None = None,
) -> SolverResult:
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

    The window lives in preallocated row buffers, oldest first, shifted when
    full. BLAS sums the small products below in an order that depends on
    operand layout, so the layouts are fixed: the difference matrix D is a
    C-contiguous (N, k-1) f64 array, the newest residual enters D^T g as a
    strided vector, and the combination multiplies a C-contiguous (N, k)
    array of f(x)'s dtype. Norms are sqrt(v . v) in the iterate's dtype, as
    np.linalg.norm computes them.
    """
    shape = np.asarray(x0).shape
    x = np.asarray(x0).ravel().copy()
    tol = cfg.resolve_tol(x.dtype) if tol is None else tol
    n, m = x.size, cfg.m
    g_rows = np.empty((m, n))  # window of residuals f(x_i) - x_i, solved in f64
    fx_rows: np.ndarray | None = None  # window of f(x_i), aligned with g_rows
    g_last = np.empty((n, 2))[:, 0]  # the newest residual, as a strided vector
    eyes: dict[int, np.ndarray] = {}
    k = 0
    residuals: list[float] = []
    fallback_steps: list[int] = []
    for it in range(1, cfg.max_iter + 1):
        fx = f(x.reshape(shape)).ravel()
        if fx_rows is None:
            fx_rows = np.empty((m, n), dtype=fx.dtype)
        g = fx - x
        if k == m:
            g_rows[:-1] = g_rows[1:]
            fx_rows[:-1] = fx_rows[1:]
        else:
            k += 1
        g_rows[k - 1] = g
        fx_rows[k - 1] = fx
        gap = float(np.sqrt(g.dot(g)))
        res = float(gap / (np.sqrt(x.dot(x)) + 1e-12))
        residuals.append(res)
        if gap > DIVERGENCE_LIMIT or not math.isfinite(gap):
            raise DivergenceError(f"divergence: residual {gap:.3e} at iteration {it}")
        if res < tol:
            return SolverResult(fx.reshape(shape), residuals, it, True, fallback_steps)
        if on_iterate is not None:
            reason = on_iterate(fx.reshape(shape), it)
            if reason is not None:
                return SolverResult(fx.reshape(shape), residuals, it, False,
                                    fallback_steps, stop_reason=reason)
        if k == 1:
            x = fx.copy()
            continue
        g_last[:] = g_rows[k - 1]
        D = (g_rows[: k - 1] - g_rows[k - 1]).T.copy()
        gram = D.T @ D
        eye = eyes.get(k - 1)
        if eye is None:
            eye = eyes[k - 1] = np.eye(k - 1)
        lhs = gram + cfg.ridge * (float(gram.trace()) / (k - 1)) * eye
        rhs = -(D.T @ g_last)
        try:
            beta = np.linalg.solve(lhs, rhs)
        except np.linalg.LinAlgError:
            beta = None
        if beta is None or not np.isfinite(beta).all():
            fallback_steps.append(it)
            x = fx.copy()
        else:
            alpha = np.empty(k, dtype=fx.dtype)
            alpha[:-1] = beta
            alpha[-1] = 1.0 - beta.sum()
            x = fx_rows[:k].T.copy() @ alpha
    return SolverResult(x.reshape(shape), residuals, len(residuals), False, fallback_steps)


def pf_eigenvalue(matrix: np.ndarray, max_iter: int = 1000, tol: float = 1e-12) -> float:
    """Spectral radius of a nonnegative matrix by power iteration.

    Negative entries are folded with abs() first. Iterates on M + I so that
    periodic nonnegative matrices (e.g. permutations) converge; the unit
    shift is subtracted from the Rayleigh estimate, which is exact because
    adding I shifts every eigenvalue of a nonnegative matrix by one. The
    product in each step's Rayleigh quotient is the next step's iterate, so
    a step costs one matrix-vector product.
    """
    m = np.abs(np.asarray(matrix, dtype=np.float64))
    n = m.shape[0]
    if n == 0 or not m.any():
        return 0.0
    ms = m + np.eye(n)
    x = np.full(n, 1.0 / np.sqrt(n))
    y = ms @ x
    lam = 0.0
    # np.dot calls the same BLAS kernels as `@` and np.linalg.norm, with less
    # dispatch per call; the two buffers are reused across steps
    for _ in range(max_iter):
        norm = math.sqrt(np.dot(y, y))
        if norm == 0.0:
            return 0.0
        np.divide(y, norm, out=x)
        np.dot(ms, x, out=y)
        lam_new = float(np.dot(x, y))
        if abs(lam_new - lam) < tol * max(1.0, abs(lam_new)):
            lam = lam_new
            break
        lam = lam_new
    return max(lam - 1.0, 0.0)


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
