"""Internal energies driving the diffusion, and their derived objects.

For an energy density E the pressure function is F' (t) = t E'(t) - E(t), so
that div(rho grad E'(rho)) = Lap F'(rho) and F''(t) = t E''(t).  Supported
kinds:

    entropy     E = t log t     F = t^2/2              (linear diffusion)
    power(m)    E = t^m, m > 1  F = (m-1)/(m+1) t^(m+1) (porous medium)
    zero        E = 0           F = 0                   (pure drift)

Every kind has E(0) = 0 and is convex, so ``InternalEnergy``'s kind and
exponent checks are all the paper's hypotheses need; nothing is sampled.
In closed form:

* growth: E''(t) >= t^(m-2)/C and F'(t) <= C (1 + t^m) for t > 0, with
  C = 1 for entropy (E'' = 1/t, F' = t) and C = max(m - 1, 1/(m (m - 1)))
  for power (E'' = m (m-1) t^(m-2), F' = (m-1) t^m);
* displacement convexity (McCann, Adv. Math. 128, 1997): r^d E(r^-d) is
  -d log r for entropy, r^(d (1-m)) for power and 0 for zero.  Each is
  convex and nonincreasing in r > 0 for every dimension d.

``regularize`` builds the uniformly elliptic truncation F_eps whose curvature
is clamped to [eps, 1/eps]: quadratic of curvature eps below delta_eps, F
itself on [delta_eps, M_eps], quadratic of curvature 1/eps above M_eps, glued
C^1 at both junctions.

``kl_prox`` is the scalar building block of the entropic minimizing-movement
step, in closed form for every kind: the unique minimizer over rho >= 0 of

    eps * (rho log(rho/s) - rho + s) + tau * (E(rho) + u * rho).

Power kinds go through the Wright omega function; given a start near the
minimizer they take one Fritsch-Shafer-Crowley step from it instead of the
cold three-step solve, under the same residual check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "InternalEnergy",
    "RegularizedEnergy",
    "regularize",
    "kl_prox",
]

_KINDS = ("entropy", "power", "zero")


@dataclass(frozen=True)
class InternalEnergy:
    """Convex energy density on R+ with E(0) = 0, described by its kind."""

    kind: str
    m: float = 1.0  # growth exponent; fixed to 1 for entropy and zero kinds

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown energy kind {self.kind!r}")
        if self.kind == "power" and not self.m > 1:
            raise ValueError("power energies need exponent m > 1")
        if self.kind in ("entropy", "zero") and self.m != 1.0:
            raise ValueError(f"{self.kind} energy has fixed exponent m = 1")

    @classmethod
    def entropy(cls) -> "InternalEnergy":
        return cls(kind="entropy")

    @classmethod
    def power(cls, m: float) -> "InternalEnergy":
        return cls(kind="power", m=float(m))

    @classmethod
    def zero(cls) -> "InternalEnergy":
        return cls(kind="zero")

    # Pointwise maps, vectorized over numpy arrays.

    def _apply(self, t, fn):
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        out = fn(t.reshape(1) if scalar else t)
        return float(out[0]) if scalar else out

    def e(self, t):
        def fn(tt):
            if self.kind == "entropy":
                out = np.zeros_like(tt)
                pos = tt > 0
                out[pos] = tt[pos] * np.log(tt[pos])
                return out
            if self.kind == "power":
                return tt**self.m
            return np.zeros_like(tt)

        return self._apply(t, fn)

    def f(self, t):
        def fn(tt):
            if self.kind == "entropy":
                return 0.5 * tt**2
            if self.kind == "power":
                return (self.m - 1.0) / (self.m + 1.0) * tt ** (self.m + 1.0)
            return np.zeros_like(tt)

        return self._apply(t, fn)

    def f_prime(self, t):
        def fn(tt):
            if self.kind == "entropy":
                return tt.copy()
            if self.kind == "power":
                return (self.m - 1.0) * tt**self.m
            return np.zeros_like(tt)

        return self._apply(t, fn)

    def f_second(self, t):
        def fn(tt):
            if self.kind == "entropy":
                return np.ones_like(tt)
            if self.kind == "power":
                return self.m * (self.m - 1.0) * tt ** (self.m - 1.0)
            return np.zeros_like(tt)

        return self._apply(t, fn)

    def total(self, values: np.ndarray, cell_volume: float) -> float:
        """Integral of E over a density sampled on cells."""
        return float(np.sum(self.e(values)) * cell_volume)


def _power_or_inf(base: float, exponent: float) -> float:
    """base ** exponent for positive floats, inf where it overflows."""
    try:
        return base**exponent
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class RegularizedEnergy:
    """Uniformly elliptic truncation F_eps of the base energy's F."""

    base: InternalEnergy
    eps: float
    delta_eps: float = field(init=False)
    M_eps: float = field(init=False)

    def __post_init__(self) -> None:
        if not (0.0 < self.eps < 1.0):
            raise ValueError("eps must lie in (0, 1)")
        if self.base.kind == "zero":
            raise ValueError("cannot regularize an energy with F'' identically zero")
        # Closed-form junctions: smallest rho with F'' >= eps, largest with
        # F'' <= 1/eps.  Entropy has F'' == 1, so the truncation is trivial.
        # For m near 1 (m (m-1) < eps) the powers grow huge: an M_eps beyond
        # the float range is no upper junction, as for entropy.  A huge
        # delta_eps puts every density on the lower piece, whose
        # F'(delta) + eps (t - delta) resolves t only to ulp(delta); beyond
        # 2^26 unit densities keep fewer than half the float digits (all of
        # them are lost near 1e16), so such a delta_eps is refused.
        if self.base.kind == "entropy":
            delta, M = 0.0, math.inf
        else:
            m = self.base.m
            c = m * (m - 1.0)
            delta = _power_or_inf(self.eps / c, 1.0 / (m - 1.0))
            if not delta <= 2.0**26:
                raise ValueError(
                    f"cannot regularize m = {m!r} at eps = {self.eps!r}: F'' reaches "
                    f"eps only at delta_eps = {delta:.3g}, where the truncation cannot "
                    "resolve unit densities"
                )
            M = _power_or_inf(1.0 / (self.eps * c), 1.0 / (m - 1.0))
        object.__setattr__(self, "delta_eps", delta)
        object.__setattr__(self, "M_eps", M)

    def _eval(self, t, middle, below, above):
        """middle on [delta_eps, M_eps], below and above outside.  The masks
        are built only when a min/max test finds values outside, which NaN
        also fails (M_eps = inf needs no max test: a NaN fails the min)."""
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        tt = t.reshape(1) if scalar else t
        out = middle(tt)  # a fresh array: the base maps never return their input
        if tt.size and not (
            tt.min() >= self.delta_eps and (self.M_eps == math.inf or tt.max() <= self.M_eps)
        ):
            lo = tt < self.delta_eps
            hi = tt > self.M_eps
            if lo.any():
                out[lo] = below(tt[lo])
            if hi.any():
                out[hi] = above(tt[hi])
        return float(out[0]) if scalar else out

    def f(self, t):
        base, d, M, eps = self.base, self.delta_eps, self.M_eps, self.eps
        return self._eval(
            t,
            base.f,
            lambda tt: base.f(d) + base.f_prime(d) * (tt - d) + 0.5 * eps * (tt - d) ** 2,
            lambda tt: base.f(M) + base.f_prime(M) * (tt - M) + 0.5 / eps * (tt - M) ** 2,
        )

    def f_prime(self, t):
        base, d, M, eps = self.base, self.delta_eps, self.M_eps, self.eps
        return self._eval(
            t,
            base.f_prime,
            lambda tt: base.f_prime(d) + eps * (tt - d),
            lambda tt: base.f_prime(M) + (tt - M) / eps,
        )

    def f_second(self, t):
        return self._eval(
            t,
            self.base.f_second,
            lambda tt: np.full_like(tt, self.eps),
            lambda tt: np.full_like(tt, 1.0 / self.eps),
        )


# The finite-volume route's eps_reg; config checks every energy against it.
EPS_REG = 1e-3


def regularize(energy: InternalEnergy, eps: float) -> RegularizedEnergy:
    return RegularizedEnergy(base=energy, eps=float(eps))


def _fsc_step(z: np.ndarray, y: np.ndarray) -> None:
    """One Fritsch-Shafer-Crowley step for w + log w = z, applied to y = log w
    in place.  1 + w is formed once; every other operation keeps the order
    of y + log1p(r / (1 + w) * (1 - t) / (1 - 2 t)) with
    t = r / (2 (1 + w)) / (1 + w + 2 r / 3) and r = z - w - y, so the bits are
    those of the written formula.  t is divided twice so nothing overflows."""
    q = np.exp(y)
    r = np.subtract(z, q)
    r -= y
    q += 1.0
    b = np.multiply(r, 2.0)
    b /= 3.0
    b += q  # 1 + w + 2 r / 3
    t = np.multiply(q, 2.0)
    np.divide(r, t, out=t)
    t /= b
    r /= q
    np.subtract(1.0, t, out=b)
    r *= b
    t *= 2.0
    np.subtract(1.0, t, out=t)
    r /= t
    np.log1p(r, out=r)
    y += r


def _log_wright_omega(z: np.ndarray) -> np.ndarray:
    """log w for the w with w + log w = z (Wright omega): three fixed
    Fritsch-Shafer-Crowley steps from an asymptotic start.  log w stays finite
    where w underflows (z < -745)."""
    zb = np.maximum(z, 1.0)
    y = np.where(z > 1.0, np.log(zb - np.log(zb)), z)
    for _ in range(3):
        _fsc_step(z, y)
    return y


def _kl_prox_power(
    energy: InternalEnergy,
    s: np.ndarray,
    eps: float,
    tau: float,
    u: np.ndarray,
    start: np.ndarray | None = None,
) -> np.ndarray:
    """Root of eps*log(rho/s) + tau*(m rho^(m-1) + u) = 0: with A = m(m-1)tau/eps
    and w = A rho^(m-1) it reads w + log w = z, so w is the Wright omega
    function of z (Corless et al., Adv. Comput. Math. 5, 1996).

    With a start, one FSC step from log w = (m-1) log(start) + log A is
    returned when its residual passes in every cell; otherwise, and without
    a start, the cold three-step solve is returned.  The residual check is
    the same on both routes."""
    m = energy.m
    log_a = math.log(m * (m - 1.0) * tau / eps)

    def solve(y):
        rho = np.exp((y - log_a) / (m - 1.0))
        residual = np.abs(eps * np.log(rho / s) + tau * (m * rho ** (m - 1.0) + u))
        return rho, residual

    with np.errstate(all="ignore"):  # non-finite inputs fail the check below
        z = (m - 1.0) * (np.log(s) - tau * u / eps) + log_a
        if start is not None:
            y = np.log(start)
            y *= m - 1.0
            y += log_a
            _fsc_step(z, y)
            rho, residual = solve(y)
            if np.all(residual <= 1e-12):
                return rho
        rho, residual = solve(_log_wright_omega(z))
    if not np.all(residual <= 1e-12):
        raise RuntimeError(
            "kl_prox residual check failed; parameters are pathological "
            f"(eps={eps}, tau={tau}, max |residual|={float(np.max(residual))})"
        )
    return rho


def kl_prox(energy: InternalEnergy, s, eps: float, tau: float, u=0.0, start=None):
    """Proximal map of tau*(E + u . ) in the eps-weighted KL geometry.

    Every kind is solved in closed form; power kinds raise RuntimeError
    unless the first-order residual is finite and <= 1e-12 in every cell.
    Vectorized over s and u.

    ``start`` is an optional guess of the minimizer, positive and of the
    shape of s, such as the previous scaling iteration's.  Power kinds take
    one Fritsch-Shafer-Crowley step from it and keep that step only when
    its residual passes in every cell, else they solve cold as without a
    start; entropy and zero kinds ignore it.  A poor start costs time, never
    accuracy.
    """
    if eps <= 0 or tau <= 0:
        raise ValueError("eps and tau must be positive")
    s_arr = np.asarray(s, dtype=float)
    # fmin skips NaN, so a NaN center passes as it did under any(s <= 0).
    if s_arr.size and np.fmin.reduce(s_arr, axis=None) <= 0:
        raise ValueError("prox center s must be positive")
    if start is not None and np.shape(start) != s_arr.shape:
        raise ValueError(
            f"start has shape {np.shape(start)}, the prox center s has {s_arr.shape}"
        )
    u_arr = np.asarray(u, dtype=float)
    if u_arr.shape != s_arr.shape:
        u_arr = np.broadcast_to(u_arr, s_arr.shape)  # a read-only view, not a copy
    scalar = s_arr.ndim == 0
    s_arr = np.atleast_1d(s_arr)
    u_arr = np.atleast_1d(u_arr)

    # A strong potential overflows the closed forms to inf, which jko_step's
    # scaling guard reports.
    if energy.kind == "zero":
        with np.errstate(over="ignore"):
            out = s_arr * np.exp(-tau * u_arr / eps)
    elif energy.kind == "entropy":
        with np.errstate(over="ignore"):
            out = np.exp((eps * np.log(s_arr) - tau * (1.0 + u_arr)) / (eps + tau))
    else:
        if start is not None:
            start = np.atleast_1d(np.asarray(start, dtype=float))
        out = _kl_prox_power(energy, s_arr, eps, tau, u_arr, start)
    return float(out[0]) if scalar else out
