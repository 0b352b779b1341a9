"""One implicit time step: minimize F(., prev) in reduced coordinates.

The equal-edge constraint is eliminated by the (base, l, headings) chart, so
the step is an unconstrained smooth minimization on an open set: l > 0, the
endpoint gap above a small floor (the log barrier keeps the region open), and
no anti-parallel edge pairs. An L-BFGS iteration with Armijo backtracking is
used; the objective rejects steps that leave the open set by raising, and the
line search halves such a step like any other failed trial.
Everything is deterministic: identical inputs produce bit-identical outputs.
"""

from collections import deque
from dataclasses import dataclass

import numpy as np

from .energy import EnergyParams, PrevFrame, _objective_raw
from .errors import (
    CuspAngle,
    DegenerateGap,
    LineSearchFailure,
    MismatchedN,
    ZeroEdgeLength,
)
from .polyline import DiscreteCurve, ReducedCoords, from_reduced, to_reduced

# Armijo sufficient-decrease constant and the backtracking shrink factor.
_ARMIJO_C1 = 1e-4
_SHRINK = 0.5

# Backtracking gives up after this many halvings.
_MAX_HALVINGS = 60

# A stalled line search with a gradient above 1e-3*(1+|f|) indicates a genuine
# failure (broken gradient, non-smooth objective) rather than the
# floating-point floor of f; benign floor stalls sit orders of magnitude lower.
_STALL_GRAD_FACTOR = 1e-3

# Inner iterations without strict objective decrease before declaring a stall.
_STALL_WINDOW = 30

# L-BFGS history length (curvature pairs kept) and iteration cap per step.
_MEMORY = 25
_MAX_ITERS = 2000


@dataclass(frozen=True)
class SolverOptions:
    """Stationarity tolerance of the inner quasi-Newton solver."""

    grad_tol: float = 1e-8

    def __post_init__(self):
        if not self.grad_tol > 0:
            raise ValueError("grad_tol must be positive")


@dataclass(frozen=True)
class StepReport:
    iterations: int
    final_grad_norm: float
    f_initial: float
    f_final: float
    converged: bool


def _two_loop(grad, history):
    """Standard L-BFGS two-loop recursion over (s, y, rho) pairs, oldest
    first; returns the descent direction."""
    q = grad.copy()
    alphas = []
    for s, y, rho in reversed(history):
        a = rho * float(s @ q)
        q -= a * y
        alphas.append(a)
    if history:
        s, y, _ = history[-1]
        q *= float(s @ y) / float(y @ y)
    for (s, y, rho), a in zip(history, reversed(alphas)):
        b = rho * float(y @ q)
        q += (a - b) * s
    return -q


def minimize_step(
    prev: DiscreteCurve,
    params: EnergyParams,
    opts: SolverOptions | None = None,
) -> tuple[DiscreteCurve, StepReport]:
    """Minimize F(., prev) warm-started at prev; returns (curve, report).

    The accepted iterates decrease F monotonically, so the result always
    satisfies F(next, prev) <= F(prev, prev) = E(prev). With ``converged``
    set, the analytic gradient inf-norm is below ``opts.grad_tol``; hitting
    the iteration cap, the stall window or the floating-point resolution of F
    returns the partial minimizer with converged=False instead of raising. A
    prev outside the open set raises from the first objective evaluation.
    """
    if opts is None:
        opts = SolverOptions()
    frame = PrevFrame(prev)
    n = prev.n

    # Work in scaled variables w (the l slot carries total length) so the
    # coordinate scales are comparable; z = scale * w.
    scale = np.ones(n + 2)
    scale[2] = 1.0 / (n - 1)

    def evaluate(w):
        f, g = _objective_raw(scale * w, frame, params, True)
        return f, g * scale

    z0 = to_reduced(prev).as_vector()
    w = z0 / scale
    f, g = evaluate(w)
    f_initial = f

    history = deque(maxlen=_MEMORY)  # (s, y, rho), oldest first
    iterations = 0
    since_improvement = 0

    for _ in range(_MAX_ITERS):
        grad_z_inf = float(np.max(np.abs(g / scale)))
        if grad_z_inf <= opts.grad_tol or since_improvement > _STALL_WINDOW:
            break

        d = _two_loop(g, history)
        gd = float(g @ d)
        if not np.isfinite(gd) or gd >= 0.0:
            d = -g
            gd = -float(g @ g)
            history.clear()

        alpha = 1.0 if history else min(1.0, 1.0 / float(np.linalg.norm(g)))
        for _ in range(_MAX_HALVINGS + 1):
            w_trial = w + alpha * d
            try:
                f_trial, g_trial = evaluate(w_trial)
            except (CuspAngle, DegenerateGap, ZeroEdgeLength):
                pass  # left the open set; shrink
            else:
                if f_trial <= f + _ARMIJO_C1 * alpha * gd:
                    break
            alpha *= _SHRINK
        else:  # no trial accepted
            if grad_z_inf > _STALL_GRAD_FACTOR * (1.0 + abs(f)):
                raise LineSearchFailure(
                    f"no descent within {_MAX_HALVINGS} halvings at "
                    f"grad inf-norm {grad_z_inf:.3e}"
                )
            break  # floating-point floor of F; return the partial minimizer

        s_vec = w_trial - w
        if not np.any(s_vec):
            break  # step rounded to zero
        y_vec = g_trial - g
        sy = float(s_vec @ y_vec)
        if sy > 1e-12 * float(np.linalg.norm(s_vec)) * float(np.linalg.norm(y_vec)):
            history.append((s_vec, y_vec, 1.0 / sy))

        # An accepted trial never raises f, so f is also the best value seen.
        since_improvement = 0 if f_trial < f else since_improvement + 1
        w, f, g = w_trial, f_trial, g_trial
        iterations += 1

    final_grad = float(np.max(np.abs(g / scale)))
    report = StepReport(
        iterations=iterations,
        final_grad_norm=final_grad,
        f_initial=f_initial,
        f_final=f,
        converged=final_grad <= opts.grad_tol,
    )
    next_curve = from_reduced(ReducedCoords.from_vector(scale * w))
    return next_curve, report


def assert_cone_condition(next_curve: DiscreteCurve, prev: DiscreteCurve) -> bool:
    """True iff every edge tangent kept a non-negative dot with its
    predecessor, i.e. the step stayed inside the admissible cone of prev."""
    if next_curve.n != prev.n:
        raise MismatchedN(f"curves have N={next_curve.n} and N={prev.n}")
    e_new = next_curve.edges
    e_old = prev.edges
    dots = np.sum(e_new * e_old, axis=1)
    return bool(np.all(dots >= 0.0))
