"""fplab: a numerical laboratory for confined local and nonlocal diffusion
generators in one dimension -- steady states, spectra, semigroup decay, and
functional-inequality verification."""

__version__ = "0.1.0"

from .grids import Field, Grid1D, WeightSpec, gaussian_density, make_grid, mass, weighted_norm
from .kernels import gaussian_reference_kernel, rescale, truncated_fractional_kernel
from .operators import (
    Classical,
    DiscreteClassical,
    DiscreteFractional,
    Fractional,
    OperatorMatrix,
    assemble,
)
from .semigroup import EvolveSpec, decay_rate, evolve, steady_state
from .spectra import eigen_spectrum, spectral_projector
from .splitting import ClassicalSplitting, FractionalSplitting, assemble_splitting

__all__ = [
    "Field", "Grid1D", "WeightSpec", "gaussian_density", "make_grid", "mass",
    "weighted_norm", "gaussian_reference_kernel", "rescale",
    "truncated_fractional_kernel", "Classical", "DiscreteClassical",
    "DiscreteFractional", "Fractional", "OperatorMatrix", "assemble",
    "EvolveSpec", "decay_rate", "evolve", "steady_state", "eigen_spectrum",
    "spectral_projector", "ClassicalSplitting", "FractionalSplitting",
    "assemble_splitting",
]
