"""One implicit time step: minimize F(., prev) in reduced coordinates.

The equal-edge constraint is eliminated by the (base, l, headings) chart, so
the step is an unconstrained smooth minimization on an open set: l > 0, the
endpoint gap above a small floor (the log barrier keeps the region open), and
no anti-parallel edge pairs. Each step starts with an L-BFGS iteration, its
history kept in compact form (see _History). A stiff step goes on with exact
Newton directions from the O(N) structured Hessian solve
(energy.newton_direction), with a first trial of alpha = 1, once L-BFGS
stalls: at the first iterate whose gradient inf-norm is not below the
previous iterate's, or after _NEWTON_AFTER iterations. Most steps converge
before either. Every direction goes through the same Armijo
backtracking (Nocedal and Wright, Numerical Optimization, 2nd ed., sec. 3.5).
A finite trial that fails takes the next alpha from the minimizer of the
quadratic through f, g.d and the trial's F, kept within [0.1, 0.5] times
alpha. A trial outside the open set (the objective raises) counts as
F = inf, so it is halved like a non-finite trial or one where that quadratic
has no positive curvature.

Near the tolerance the decrease Armijo asks for, -alpha*g.d, falls below the
rounding of F, and the test would reject trials that do improve the iterate.
So a finite trial whose predicted decrease is at that floor,
-alpha*g.d <= _FLOOR*(1+|f|), is also accepted when it lowers the gradient
inf-norm. Such a trial may raise F slightly, so F decreases only up to its
rounding; the flow's ENERGY_SLACK (1e-10) sits far above that.
Everything is deterministic: identical inputs produce bit-identical outputs.
"""

import math
from dataclasses import dataclass

import numpy as np

from .energy import (
    EnergyParams,
    PrevFrame,
    _objective_hessian,
    _objective_raw,
    newton_direction,
)
from .errors import CuspAngle, DegenerateGap, ZeroEdgeLength
from .polyline import DiscreteCurve, ReducedCoords, from_reduced, to_reduced

# Armijo sufficient-decrease constant.
_ARMIJO_C1 = 1e-4

# Bounds of the next trial as a fraction of a rejected alpha, and the factor
# used where the quadratic model does not apply.
_SHRINK_MIN = 0.1
_SHRINK = 0.5

# Backtracking gives up when the trial after this many backtracks fails too.
_MAX_BACKTRACKS = 60

# A predicted decrease at or below _FLOOR*(1+|f|) is beneath the rounding of F
# (~1e-16*|F|, with margin), where Armijo cannot tell improvement from noise.
_FLOOR = 1e-12

# A step still unconverged after this many L-BFGS iterations goes on with
# Newton directions, if no iterate has stalled before; so the L-BFGS history
# never holds more pairs than this. Segment steps take at most 6 iterations,
# stiff gamma steps 45-135 L-BFGS ones.
_NEWTON_AFTER = 10

# Iteration cap per step.
_MAX_ITERS = 2000


@dataclass(frozen=True)
class SolverOptions:
    """Stationarity tolerance (positive, finite) of the inner quasi-Newton solver."""

    grad_tol: float = 1e-8

    def __post_init__(self):
        if not 0.0 < self.grad_tol < math.inf:
            raise ValueError(f"grad_tol must be positive and finite, got {self.grad_tol}")


@dataclass(frozen=True)
class StepReport:
    """How one implicit step ended.

    ``stop_reason`` is ``"converged"`` (gradient inf-norm at most
    ``grad_tol``), ``"zero_step"`` (the accepted step rounded to zero with no
    curvature pair held; with pairs held the solve drops them and goes on),
    ``"no_descent"`` (every backtracking trial was rejected) or ``"cap"``
    (the iteration cap). ``n_evals`` counts objective evaluations, the
    initial one and trials outside the open set included. ``n_backtracks``
    counts the trials the line search rejected, outside the open set or
    failing the Armijo and floor tests; so ``n_evals == 1 + iterations +
    n_backtracks``, except that an accepted step that rounds to zero adds
    an evaluation and no iteration. ``n_newton`` counts the iterations that
    took a Newton direction.
    """

    iterations: int
    n_evals: int
    final_grad_norm: float
    f_initial: float
    f_final: float
    stop_reason: str
    n_newton: int
    n_backtracks: int

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"


class _History:
    """L-BFGS curvature pairs in the compact form of Byrd, Nocedal and
    Schnabel (1994, Math. Prog. 63).

    Held: the pair rows S and Y, oldest first; the inverse of R, the upper
    triangle of S Y^T; the Gram matrix Y Y^T; and D = diag(s_i . y_i). A
    direction costs seven matrix-vector products whatever the number of pairs,
    and applies the inverse-Hessian approximation of the two-loop recursion
    with the initial scaling gamma = s.y / y.y of the newest pair. Room for
    _NEWTON_AFTER pairs is allocated at once: a step appends at most one pair
    per L-BFGS iteration.
    """

    def __init__(self, size: int):
        self.m = 0
        self.s = np.empty((_NEWTON_AFTER, size))
        self.y = np.empty((_NEWTON_AFTER, size))
        self.d = np.empty(_NEWTON_AFTER)
        self.rinv = np.zeros((_NEWTON_AFTER, _NEWTON_AFTER))
        self.yy = np.empty((_NEWTON_AFTER, _NEWTON_AFTER))

    def __len__(self):
        return self.m

    def clear(self):
        self.m = 0

    def append(self, s, y, sy):
        """Add the pair (s, y) with s.y = sy > 0."""
        m = self.m
        # Border R^-1 = [[R0^-1, -R0^-1 r / sy], [0, 1 / sy]], r_i = s_i . y;
        # below the diagonal rinv stays zero.
        self.rinv[:m, m] = (self.rinv[:m, :m] @ (self.s[:m] @ y)) / -sy
        self.rinv[m, m] = 1.0 / sy
        self.yy[m, :m] = self.yy[:m, m] = self.y[:m] @ y
        self.yy[m, m] = y @ y
        self.s[m], self.y[m], self.d[m] = s, y, sy
        self.m = m + 1

    def direction(self, g):
        """The quasi-Newton direction -H g; -g while no pair is held."""
        m = self.m
        if m == 0:
            return -g
        s, y, d = self.s[:m], self.y[:m], self.d[:m]
        rinv = self.rinv[:m, :m]
        gamma = d[-1] / self.yy[m - 1, m - 1]
        t = rinv @ (s @ g)
        w = (d * t + gamma * (self.yy[:m, :m] @ t - y @ g)) @ rinv
        return -(gamma * (g - t @ y) + w @ s)


def _next_alpha(alpha: float, f: float, gd: float, f_trial: float) -> float:
    """The trial after a rejected one at alpha: the minimizer of the
    quadratic q with q(0) = f, q'(0) = gd and q(alpha) = f_trial, kept within
    [_SHRINK_MIN, _SHRINK] * alpha; _SHRINK * alpha when f_trial is not
    finite or q has no positive curvature."""
    curv = f_trial - f - gd * alpha  # alpha^2 times the curvature of q
    if not 0.0 < curv < math.inf:
        return _SHRINK * alpha
    return min(max(-0.5 * gd * alpha * alpha / curv, _SHRINK_MIN * alpha),
               _SHRINK * alpha)


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

    def newton(w, g):
        """The Newton direction in w (Newton is affine invariant, so it is
        the chart direction over scale); NaN when a block is singular."""
        try:
            hess = _objective_hessian(scale * w, frame, params)
            return newton_direction(hess, g / scale) / scale
        except np.linalg.LinAlgError:
            return np.full_like(g, np.nan)

    z0 = to_reduced(prev).as_vector()
    w = z0 / scale
    f, g = evaluate(w)
    f_initial = f
    n_evals = 1

    history = _History(n + 2)
    iterations = n_newton = n_backtracks = 0
    newton_phase = False
    grad_prev_inf = math.inf  # of the iterate before the current one

    while True:
        grad_z_inf = float(np.max(np.abs(g / scale)))
        if grad_z_inf <= opts.grad_tol:
            stop_reason = "converged"
            break
        if iterations == _MAX_ITERS:
            stop_reason = "cap"
            break

        # L-BFGS has stalled once an iterate fails to lower the gradient.
        newton_phase = (newton_phase or iterations >= _NEWTON_AFTER
                        or grad_z_inf >= grad_prev_inf)
        if newton_phase:
            history.clear()
            d = newton(w, g)
        else:
            d = history.direction(g)
        gd = float(g @ d)
        took_newton = newton_phase
        if not np.isfinite(gd) or gd >= 0.0:
            d = -g
            gd = -float(g @ g)
            history.clear()
            took_newton = False

        alpha = (1.0 if history or took_newton
                 else min(1.0, 1.0 / float(np.linalg.norm(g))))
        for _ in range(_MAX_BACKTRACKS + 1):
            w_trial = w + alpha * d
            n_evals += 1
            try:
                f_trial, g_trial = evaluate(w_trial)
            except (CuspAngle, DegenerateGap, ZeroEdgeLength):
                f_trial = math.inf  # left the open set
            if f_trial <= f + _ARMIJO_C1 * alpha * gd:
                break
            # Below the rounding of F, take a lower gradient as progress.
            if (
                -alpha * gd <= _FLOOR * (1.0 + abs(f))
                and np.isfinite(f_trial)
                and float(np.max(np.abs(g_trial / scale))) < grad_z_inf
            ):
                break
            alpha = _next_alpha(alpha, f, gd, f_trial)
            n_backtracks += 1
        else:
            stop_reason = "no_descent"
            break

        s_vec = w_trial - w
        if not np.any(s_vec):
            # The step rounded away; restart from steepest descent unless the
            # history is already empty (as it is in the Newton phase). Each
            # restart needs a pair stored since the last, so restarts are
            # bounded by _MAX_ITERS.
            if not history:
                stop_reason = "zero_step"
                break
            history.clear()
            continue
        if not newton_phase:
            y_vec = g_trial - g
            sy = float(s_vec @ y_vec)
            if sy > 1e-12 * float(np.linalg.norm(s_vec)) * float(np.linalg.norm(y_vec)):
                history.append(s_vec, y_vec, sy)

        w, f, g = w_trial, f_trial, g_trial
        grad_prev_inf = grad_z_inf
        iterations += 1
        n_newton += took_newton

    report = StepReport(
        iterations=iterations,
        n_evals=n_evals,
        final_grad_norm=grad_z_inf,
        f_initial=f_initial,
        f_final=f,
        stop_reason=stop_reason,
        n_newton=n_newton,
        n_backtracks=n_backtracks,
    )
    next_curve = from_reduced(ReducedCoords.from_vector(scale * w))
    return next_curve, report
