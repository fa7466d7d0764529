"""Monte Carlo simulation of the jump-driven Ornstein-Uhlenbeck dynamics
dX_t = -X_t dt - dL_t, synchronous coupling, and empirical 1D Wasserstein
contraction checks.

The deterministic drift is applied by its exact flow e^{-s}, so pathwise
statements (coupled contraction) hold to roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple, Union

import numpy as np

from .kernels import Kernel


# ---------------------------------------------------------------------------
# specifications


@dataclass(frozen=True)
class CompoundPoisson:
    """Jumps from a finite-mass kernel: rate = rate_scale * ||kernel||_L1,
    sizes drawn from kernel / ||kernel||_L1."""

    kernel: Kernel
    rate_scale: float = 1.0

    def __post_init__(self) -> None:
        if not np.isfinite(self.kernel.l1_norm):
            raise ValueError("CompoundPoisson requires a finite-mass kernel")
        if self.rate_scale < 0:
            raise ValueError("rate_scale must be >= 0")


@dataclass(frozen=True)
class AlphaStable:
    """Symmetric alpha-stable driving noise; the stationary law of the
    dynamics then has characteristic function exp(-|xi|^alpha / alpha)."""

    alpha: float

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha <= 2.0):
            raise ValueError("alpha must be in (0,2]")


NoiseSpec = Union[CompoundPoisson, AlphaStable]


@dataclass(frozen=True)
class JumpOuSpec:
    noise: NoiseSpec
    t_end: float
    n_paths: int
    seed: int = 0
    dt_record: float = 0.1

    def __post_init__(self) -> None:
        if self.t_end < 0 or self.dt_record <= 0:
            raise ValueError("t_end >= 0 and dt_record > 0 required")
        if abs(round(self.t_end / self.dt_record) * self.dt_record - self.t_end) > 1e-9 * self.t_end:
            raise ValueError(f"t_end {self.t_end} is not a whole number of record steps "
                             f"dt_record = {self.dt_record}")
        if self.n_paths < 1:
            raise ValueError("n_paths >= 1")


@dataclass(frozen=True)
class PathEnsemble:
    times: np.ndarray = field(repr=False)
    states: np.ndarray = field(repr=False)  # (n_records, n_paths) or (n_records, k, n_paths)
    seed: int = 0


# ---------------------------------------------------------------------------
# samplers


def _rng(seed: int, stream: int = 0) -> np.random.Generator:
    return np.random.default_rng(np.random.Philox(key=(seed << 16) + stream))


def stable_standard(rng: np.random.Generator, alpha: float, size: int) -> np.ndarray:
    """Standard symmetric alpha-stable draws (characteristic function
    exp(-|xi|^alpha)) by the Chambers-Mallows-Stuck construction."""
    if abs(alpha - 2.0) < 1e-12:
        return rng.normal(scale=np.sqrt(2.0), size=size)
    U = rng.uniform(-np.pi / 2.0, np.pi / 2.0, size=size)
    W = rng.exponential(1.0, size=size)
    if abs(alpha - 1.0) < 1e-12:
        return np.tan(U, out=U)
    # sin(alpha U) / cos(U)^(1/alpha) * (cos((1 - alpha) U) / W)^((1 - alpha)/alpha),
    # the same operations in the same order, with U and W reused as buffers
    W = np.divide(np.cos(U * (1.0 - alpha)), W, out=W)
    W **= (1.0 - alpha) / alpha
    s = np.sin(U * alpha)
    np.cos(U, out=U)
    U **= 1.0 / alpha
    return np.multiply(np.divide(s, U, out=s), W, out=s)


class _JumpTable(NamedTuple):
    cdf: np.ndarray     # strictly increasing, from 0 to 1
    z: np.ndarray       # |jump| at each knot
    slope: np.ndarray   # dz/dcdf on each interval, as np.interp computes it
    guide: np.ndarray   # per bucket: the knot below it, or -1 if it holds a knot


def _kernel_jump_table(k: Kernel) -> _JumpTable:
    """Monotone CDF table of |jump| for the normalized symmetric kernel on
    4096 equally spaced knots of [0, cut], with a guide table (Chen & Asau
    1974) over K = 8 * (knots kept) equal buckets of [0, 1).

    A draw u falls in bucket b = min(floor(u K), K - 1).  The knots are
    bucketed by the same floating-point expression, which is monotone in u, so
    every knot of a lower bucket is <= u and every knot of a higher one is > u.
    In a bucket that holds no knot, the interval containing u is therefore the
    one starting at the last knot below the bucket: ``guide[b]``.  Buckets
    that hold a knot store -1 and are resolved by a binary search."""
    cut = k.support_radius if np.isfinite(k.support_radius) else k.tail_cut
    z = np.linspace(0.0, cut, 4096)
    pdf = np.asarray(k(z))
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * np.diff(z))])
    cdf /= cdf[-1]
    # make strictly monotone for interpolation
    cdf = np.maximum.accumulate(cdf)
    keep = np.concatenate([[True], np.diff(cdf) > 0])
    cdf, z = cdf[keep], z[keep]
    n_buckets = 8 * cdf.size
    below = np.searchsorted(_bucket(cdf, n_buckets), np.arange(n_buckets + 1))
    guide = np.where(below[1:] != below[:-1], -1, below[:-1] - 1)
    return _JumpTable(cdf, z, np.diff(z) / np.diff(cdf), guide)


_SIGN_CHUNK = 1 << 15  # sign bits drawn per call in ``_invert_jumps``


def _bucket(u: np.ndarray, n_buckets: int) -> np.ndarray:
    return np.minimum((u * n_buckets).astype(np.intp), n_buckets - 1)


def _invert_jumps(table: _JumpTable, rng: np.random.Generator, u: np.ndarray,
                  scratch: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Symmetric draws from kernel/||kernel||_1 by CDF-table inversion of the
    uniforms u in [0, 1), formed in u, with the float array ``scratch`` and
    the intp array j of u's size as work space; draws the sign bits from
    rng.

    Each u is placed by the table's guide (O(1) per draw; a binary search
    only in the buckets that hold a knot) and mapped by
    slope * (u - cdf[j]) + z[j], np.interp's formula with its slopes, so the
    magnitudes are bit-identical to np.interp(u, cdf, z)."""
    cdf, z, slope, guide = table
    # _bucket(u, K), formed in scratch read as intp
    bucket = scratch.view(np.intp)
    np.multiply(u, guide.size, out=bucket, casting="unsafe")
    np.minimum(bucket, guide.size - 1, out=bucket)
    # every index below is in range, so np.take needs no bounds check
    # (mode "raise" would buffer its output)
    np.take(guide, bucket, out=j, mode="clip")
    # cdf ends at 1, so no u < 1 reaches the last knot: 0 <= j < cdf.size - 1
    mixed = np.flatnonzero(j < 0)
    j[mixed] = np.searchsorted(cdf, u[mixed], side="right") - 1
    # in place: u becomes mag = slope[j] * (u - cdf[j]) + z[j] >= 0, then takes
    # the sign of bit - 1/2, which is np.where(bit, mag, -mag) bit for bit
    u -= np.take(cdf, j, out=scratch, mode="clip")
    u *= np.take(slope, j, out=scratch, mode="clip")
    u += np.take(z, j, out=scratch, mode="clip")
    # the bits come in chunks, which continue rng.integers' one stream, so
    # no further array of u's size is made
    for lo in range(0, u.size, _SIGN_CHUNK):
        v = u[lo : lo + _SIGN_CHUNK]
        np.copysign(v, rng.integers(0, 2, size=v.size) - 0.5, out=v)
    return u


# ---------------------------------------------------------------------------
# simulation


def simulate(spec: JumpOuSpec, initial_sampler: Callable[[np.random.Generator, int], np.ndarray],
             stream: int = 0) -> PathEnsemble:
    """Simulate the jump Ornstein-Uhlenbeck dynamics.

    CompoundPoisson: exact drift flow between exponential jump times, vectorized
    per record interval.  AlphaStable: exact transition over each record step,
    X' = e^{-dt} X + sigma(dt) S_alpha with sigma(dt) = ((1 - e^{-alpha dt})/alpha)^{1/alpha}.

    ``initial_sampler(rng, n_paths)`` returns the start, of shape (n_paths,) or
    (k, n_paths).  The noise does not depend on the state, so a (k, n_paths)
    start runs k ensembles on one noise realization: each window's draws are
    made once and broadcast over the k rows, and ``states`` is
    (n_records, k, n_paths).  Row i equals a separate run from row i's start on
    the same seed and stream, bit for bit.  Holds every record.
    """
    n_rec = int(round(spec.t_end / spec.dt_record))
    for r, x in enumerate(_paths(spec, initial_sampler, stream)):
        if r == 0:
            states = np.empty((n_rec + 1, *x.shape))
        states[r] = x
    if not np.all(np.isfinite(states)):
        raise FloatingPointError("non-finite state in ensemble")
    return PathEnsemble(times=np.arange(n_rec + 1) * spec.dt_record, states=states,
                        seed=spec.seed)


def _final_state(spec: JumpOuSpec, initial_sampler: Callable[[np.random.Generator, int], np.ndarray],
                 stream: int = 0) -> np.ndarray:
    """``simulate(...).states[-1]``, bit for bit, keeping no earlier state;
    not checked for finiteness."""
    for x in _paths(spec, initial_sampler, stream):
        pass
    return x


def _paths(spec: JumpOuSpec, initial_sampler: Callable[[np.random.Generator, int], np.ndarray],
           stream: int) -> Iterator[np.ndarray]:
    """The start and then the state at the end of each record window of
    ``simulate``.  The windows update a copy of the start in place, so a
    consumer that keeps a state copies it."""
    rng = _rng(spec.seed, stream)
    n = spec.n_paths
    x = np.array(initial_sampler(rng, n), dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != n:
        raise ValueError(f"initial state must be (n_paths,) or (k, n_paths), got {x.shape}")
    n_rec = int(round(spec.t_end / spec.dt_record))
    dt = spec.dt_record
    yield x

    if isinstance(spec.noise, AlphaStable):
        alpha = spec.noise.alpha
        decay = np.exp(-dt)
        sigma = ((1.0 - np.exp(-alpha * dt)) / alpha) ** (1.0 / alpha)
        for _ in range(n_rec):
            x *= decay
            x -= sigma * stable_standard(rng, alpha, n)
            yield x
    else:
        k = spec.noise.kernel
        lam = spec.noise.rate_scale * k.l1_norm
        table = _kernel_jump_table(k)
        # the window's jumps, times and indices live in three buffers kept
        # across windows, so their pages are not handed back and faulted in
        # again each window; the draws are those of rng.uniform
        buffers = (np.empty(0), np.empty(0), np.empty(0, dtype=np.intp))
        for _ in range(n_rec):
            # number of jumps per path in this record window
            counts = rng.poisson(lam * dt, size=n)
            total = int(counts.sum())
            if total > buffers[0].size:
                buffers = tuple(np.empty(total + total // 32, dtype=b.dtype) for b in buffers)
            jumps, e, j = (b[:total] for b in buffers)
            _invert_jumps(table, rng, rng.random(out=jumps), e, j)
            # jump times s uniform in the window (0 + dt * u, as rng.uniform
            # forms them); each jump J adds -J * e^{-(dt - s)} at the record
            # time under the linear flow, and fl(s - dt) = -fl(dt - s)
            rng.random(out=e)
            e *= dt
            e -= dt
            jumps *= np.negative(np.exp(e, out=e), out=e)
            x *= np.exp(-dt)
            # each jump's path, np.repeat(np.arange(n), counts), formed in j:
            # the first jump of every path that has one marks the path, and
            # a running maximum carries the mark over its other jumps
            j.fill(0)
            hit = np.flatnonzero(counts)
            j[(np.cumsum(counts) - counts)[hit]] = hit
            x += np.bincount(np.maximum.accumulate(j, out=j), weights=jumps, minlength=n)
            yield x


def coupled_decay(spec: JumpOuSpec, x0: float, y0: float) -> dict:
    """Synchronous coupling: both paths see the same noise, so the gap
    contracts deterministically, |X_t - Y_t| = e^{-t} |x0 - y0|."""
    ens = simulate(spec, lambda rng, n: np.stack([np.full(n, x0), np.full(n, y0)]), stream=7)
    gaps = np.abs(ens.states[:, 0] - ens.states[:, 1])
    expected = np.abs(x0 - y0) * np.exp(-ens.times)
    err = float(np.max(np.abs(gaps - expected[:, None])))
    return {"times": ens.times, "gaps": gaps[:, 0], "expected": expected,
            "max_error": err, "pass": bool(err <= 1e-12 * max(1.0, abs(x0 - y0)))}


# ---------------------------------------------------------------------------
# Wasserstein checks


def empirical_w1(samples_a: np.ndarray, samples_b: np.ndarray) -> float:
    """Exact empirical 1D Wasserstein-1 distance: mean absolute difference of
    order statistics (equal counts; the larger cloud is subsampled)."""
    a = np.sort(np.asarray(samples_a, dtype=float))
    b = np.sort(np.asarray(samples_b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise ValueError("empty sample set")
    if a.size != b.size:
        m = min(a.size, b.size)
        a = a[np.linspace(0, a.size - 1, m).astype(int)]
        b = b[np.linspace(0, b.size - 1, m).astype(int)]
    return float(np.mean(np.abs(a - b)))


def wasserstein_contraction_check(
    spec: JumpOuSpec,
    f0_sampler: Callable[[np.random.Generator, int], np.ndarray],
    t_grid: list[float],
) -> dict:
    """Checks W1(f_t, G) <= e^{-t} W1(f0, G) (1 + mc_tol), mc_tol = 4/sqrt(n).

    The equilibrium ensemble G is produced by a burn-in run to t = 20 and
    then evolved synchronously with the test ensemble (same noise), so the
    contraction bound holds pathwise up to the empirical-quantile noise.
    With shared noise and a linear drift, X_t - Y_t = e^{-t}(x0 - y0) on
    every path, so the bound tests the rank pairing of the two clouds, not
    the process.

    Each t must be a whole number of record steps (to 1e-9 relative) in
    [0, spec.t_end].  Holds one (2, n_paths) state, plus W1 at t = 0 and at
    the t_grid records; a non-finite state raises at its window."""
    dt = spec.dt_record
    steps = [int(round(t / dt)) for t in t_grid]
    if any(not 0.0 <= t <= spec.t_end or abs(r * dt - t) > 1e-9 * t
           for t, r in zip(t_grid, steps)):
        raise ValueError(f"t_grid {t_grid} must be record times of {dt} in [0, {spec.t_end}]")
    burn_spec = JumpOuSpec(noise=spec.noise, t_end=20.0, n_paths=spec.n_paths,
                           seed=spec.seed + 101, dt_record=0.5)
    eq0 = np.sort(_final_state(burn_spec, lambda r, n: r.normal(size=n), stream=11))
    f0 = np.sort(f0_sampler(_rng(spec.seed, 999), spec.n_paths))

    # rank-pairing the two initial clouds makes the synchronous coupling an
    # optimal one, so the pathwise contraction transfers to the W1 bound; the
    # two clouds are the rows of one run, so they see the same noise
    run = JumpOuSpec(noise=spec.noise, t_end=max(t_grid), n_paths=spec.n_paths,
                     seed=spec.seed, dt_record=dt)
    w1 = {}
    for r, x in enumerate(_paths(run, lambda r, n: np.stack([f0, eq0]), stream=23)):
        if not np.all(np.isfinite(x)):
            raise FloatingPointError("non-finite state in ensemble")
        if r == 0 or r in steps:
            w1[r] = empirical_w1(x[0], x[1])

    w0 = w1[0]
    mc_tol = 4.0 / np.sqrt(spec.n_paths)
    rows = []
    ok = True
    for t, r in zip(t_grid, steps):
        bound = np.exp(-t) * w0 * (1.0 + mc_tol)
        passed = w1[r] <= bound + mc_tol * max(w0, 1.0) * 1e-6
        ok = ok and passed
        rows.append({"t": t, "w1": w1[r], "bound": bound, "pass": bool(passed)})
    return {"rows": rows, "w1_initial": w0, "mc_tol": mc_tol, "pass": bool(ok)}
