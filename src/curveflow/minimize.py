"""One implicit time step: minimize F(., prev) in reduced coordinates.

The equal-edge constraint is eliminated by the (base, l, headings) chart, so
the step is an unconstrained smooth minimization on an open set: l > 0, the
endpoint gap above a small floor (the log barrier keeps the region open), and
no anti-parallel edge pairs. An L-BFGS iteration with Armijo backtracking is
used; the objective rejects steps that leave the open set by raising, and the
line search halves such a step like any other failed trial.

Near the tolerance the decrease Armijo asks for, -alpha*g.d, falls below the
rounding of F, and the test would reject trials that do improve the iterate.
So a finite trial whose predicted decrease is at that floor,
-alpha*g.d <= _FLOOR*(1+|f|), is also accepted when it lowers the gradient
inf-norm. Such a trial may raise F slightly, so F decreases only up to its
rounding; the flow's ENERGY_SLACK (1e-10) sits far above that.
Everything is deterministic: identical inputs produce bit-identical outputs.
"""

from collections import deque
from dataclasses import dataclass

import numpy as np

from .energy import EnergyParams, PrevFrame, _objective_raw
from .errors import CuspAngle, DegenerateGap, MismatchedN, ZeroEdgeLength
from .polyline import DiscreteCurve, ReducedCoords, from_reduced, to_reduced

# Armijo sufficient-decrease constant and the backtracking shrink factor.
_ARMIJO_C1 = 1e-4
_SHRINK = 0.5

# Backtracking gives up after this many halvings.
_MAX_HALVINGS = 60

# A predicted decrease at or below _FLOOR*(1+|f|) is beneath the rounding of F
# (~1e-16*|F|, with margin), where Armijo cannot tell improvement from noise.
_FLOOR = 1e-12

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
    """How one implicit step ended.

    ``stop_reason`` is ``"converged"`` (gradient inf-norm at most
    ``grad_tol``), ``"zero_step"`` (the accepted step rounded to zero),
    ``"no_descent"`` (every backtracking trial was rejected) or ``"cap"``
    (the iteration cap). ``n_evals`` counts objective evaluations, the
    initial one and trials outside the open set included.
    """

    iterations: int
    n_evals: int
    final_grad_norm: float
    f_initial: float
    f_final: float
    stop_reason: str

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"


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

    The accepted iterates decrease F monotonically up to the rounding of F,
    so the result satisfies F(next, prev) <= F(prev, prev) = E(prev) up to
    that rounding. The solve stops when the analytic gradient inf-norm is at most
    ``opts.grad_tol`` (``report.converged``). Otherwise it returns the
    partial minimizer, with ``report.stop_reason`` naming the stop: the
    accepted step rounded to zero, no backtracking trial was accepted, or the
    iteration cap was reached. A prev outside the open set raises from the
    first objective evaluation.
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
    n_evals = 1

    history = deque(maxlen=_MEMORY)  # (s, y, rho), oldest first
    iterations = 0

    while True:
        grad_z_inf = float(np.max(np.abs(g / scale)))
        if grad_z_inf <= opts.grad_tol:
            stop_reason = "converged"
            break
        if iterations == _MAX_ITERS:
            stop_reason = "cap"
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
            n_evals += 1
            try:
                f_trial, g_trial = evaluate(w_trial)
            except (CuspAngle, DegenerateGap, ZeroEdgeLength):
                pass  # left the open set; shrink
            else:
                if f_trial <= f + _ARMIJO_C1 * alpha * gd:
                    break
                # Below the rounding of F, take a lower gradient as progress.
                if (
                    -alpha * gd <= _FLOOR * (1.0 + abs(f))
                    and np.isfinite(f_trial)
                    and float(np.max(np.abs(g_trial / scale))) < grad_z_inf
                ):
                    break
            alpha *= _SHRINK
        else:
            stop_reason = "no_descent"
            break

        s_vec = w_trial - w
        if not np.any(s_vec):
            stop_reason = "zero_step"
            break
        y_vec = g_trial - g
        sy = float(s_vec @ y_vec)
        if sy > 1e-12 * float(np.linalg.norm(s_vec)) * float(np.linalg.norm(y_vec)):
            history.append((s_vec, y_vec, 1.0 / sy))

        w, f, g = w_trial, f_trial, g_trial
        iterations += 1

    report = StepReport(
        iterations=iterations,
        n_evals=n_evals,
        final_grad_norm=grad_z_inf,
        f_initial=f_initial,
        f_final=f,
        stop_reason=stop_reason,
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
