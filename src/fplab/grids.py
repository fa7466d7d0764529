"""Uniform symmetric 1D grids, sampled densities, and weighted norms."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid on [-L, L] with an odd number of nodes so x = 0 is a node.

    Parameters
    ----------
    L : float
        Half-width of the domain.
    n : int
        Number of nodes (odd, >= 3).
    """

    L: float
    n: int

    def __post_init__(self) -> None:
        if self.L <= 0:
            raise ValueError("L must be positive")
        if self.n < 3:
            raise ValueError("n must be >= 3")
        if self.n % 2 == 0:
            raise ValueError("n must be odd")

    @property
    def h(self) -> float:
        return 2.0 * self.L / (self.n - 1)

    @property
    def nodes(self) -> np.ndarray:
        """x_i = h (i - n // 2), with the endpoints exactly -L and L: the
        nodes are exactly antisymmetric, x[n-1-i] = -x[i], so the generators
        of mirror-symmetric models come out centrosymmetric to roundoff."""
        x = self.h * (np.arange(self.n) - self.n // 2)
        x[0], x[-1] = -self.L, self.L
        return x

    @property
    def cell_sizes(self) -> np.ndarray:
        """Trapezoid quadrature weights: half cells at the two boundary nodes."""
        w = np.full(self.n, self.h)
        w[0] = w[-1] = 0.5 * self.h
        return w


def make_grid(L: float, n: int) -> Grid1D:
    return Grid1D(L=L, n=n)


@dataclass(frozen=True)
class Field:
    """A real density sampled on a grid."""

    grid: Grid1D
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n,):
            raise ValueError("values length must match grid")
        if not np.all(np.isfinite(v)):
            raise ValueError("values must be finite")
        object.__setattr__(self, "values", v)

    def __add__(self, other: "Field") -> "Field":
        _same_grid(self.grid, other.grid)
        return Field(self.grid, self.values + other.values)

    def __sub__(self, other: "Field") -> "Field":
        _same_grid(self.grid, other.grid)
        return Field(self.grid, self.values - other.values)

    def __mul__(self, c: float) -> "Field":
        return Field(self.grid, self.values * c)

    __rmul__ = __mul__


def _same_grid(g1: Grid1D, g2: Grid1D) -> None:
    if g1 != g2:
        raise ValueError("grid mismatch")


@dataclass(frozen=True)
class WeightSpec:
    """Weighted Lebesgue/Sobolev norm parameters: L^p with weight <x>^q,
    optionally summing derivative norms up to order ``s``."""

    p: int = 2
    q: float = 0.0
    s: int = 0

    def __post_init__(self) -> None:
        if self.p not in (1, 2):
            raise ValueError("p must be 1 or 2")
        if self.q < 0:
            raise ValueError("q must be >= 0")
        if self.s not in (0, 1, 2, 3):
            raise ValueError("s must be in {0,1,2,3}")

    def weight_values(self, x: np.ndarray) -> np.ndarray:
        return (1.0 + x * x) ** (0.5 * self.q)


def mass(f: Field) -> float:
    """Trapezoid quadrature of f over the grid."""
    return float(f.grid.cell_sizes @ f.values)


def derivative(values: np.ndarray, h: float) -> np.ndarray:
    """2nd-order centered first derivative, one-sided at the boundary."""
    d = np.empty_like(values)
    d[1:-1] = (values[2:] - values[:-2]) / (2.0 * h)
    d[0] = (-1.5 * values[0] + 2.0 * values[1] - 0.5 * values[2]) / h
    d[-1] = (1.5 * values[-1] - 2.0 * values[-2] + 0.5 * values[-3]) / h
    return d


def weighted_norm(f: Field, w: WeightSpec) -> float:
    """|| f <x>^q ||_{L^p}, plus derivative terms up to order s (l^p sum)."""
    return float(_column_norms(f.values[:, None], f.grid, w)[0])


def _column_norms(block: np.ndarray, grid: Grid1D, w: WeightSpec) -> np.ndarray:
    """weighted_norm of every column of a real n x P block."""
    quad = grid.cell_sizes
    m = w.weight_values(grid.nodes)[:, None]
    total = np.zeros(block.shape[1])
    deriv = block
    for k in range(w.s + 1):
        if k > 0:
            deriv = derivative(deriv, grid.h)
        total += quad @ np.abs(deriv * m) ** w.p
    return total ** (1.0 / w.p)


def probe_norm(image: np.ndarray, probes: np.ndarray, grid: Grid1D,
               source: WeightSpec, target: WeightSpec) -> float:
    """max over the columns f of the probe block of ||T f||_target / ||f||_source,
    given the image block T F; probes with zero source norm are skipped, and
    0.0 is returned when every probe is.  A complex image is measured by the
    larger of the norms of its real and imaginary parts."""
    num = _column_norms(image.real, grid, target)
    if np.iscomplexobj(image):
        num = np.maximum(num, _column_norms(image.imag, grid, target))
    den = _column_norms(probes, grid, source)
    keep = den > 0
    return float(np.max(num[keep] / den[keep], initial=0.0))


def gaussian_density(grid: Grid1D, variance: float = 1.0, center: float = 0.0) -> Field:
    x = grid.nodes
    v = np.exp(-((x - center) ** 2) / (2.0 * variance)) / np.sqrt(2.0 * np.pi * variance)
    return Field(grid, v)
