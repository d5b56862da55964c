"""Numerical laboratory for a pinned-lattice phonon Boltzmann equation.

Periodic-grid discretization of a four-phonon collision operator with a
mollified energy delta, its linearization about thermal equilibria, spectral
and hydrodynamic diagnostics (gap, conductivity, Fourier law), mode-wise
semigroup bounds, and space-dependent evolution drivers.

The commonly used entry points are re-exported here; the submodules hold the
full API (``torus_grid``, ``dispersion``, ``collision``, ``linearized``,
``hydrodynamics``, ``evolution``, ``cli``).
"""

from .collision import (
    EQUILIBRIUM_FAMILY,
    CollisionOperator,
    DeltaKernel,
    FourierCollision,
    equilibrium,
)
from .dispersion import DispersionField, DispersionParams
from .evolution import (
    ModeFamily,
    ModeSemigroup,
    WeightedNormSpec,
    decay_diagnostics,
    dispersion_relation_sweep,
    evolve_linear,
    evolve_nonlinear,
    find_p0,
    hydro_limit_study,
    mode_matrix,
    semigroup_bound_sweep,
    spectrum_D,
)
from .hydrodynamics import (
    CollisionResponse,
    ConductivityMatrix,
    LinearModel,
    SlowBasis,
    SlowState,
    compute_kappa,
    currents,
    fourier_law_check,
    slaved_state,
)
from .linearized import (
    assemble_K,
    assemble_L,
    assemble_M,
    fd_linearization_check,
    spectrum_L,
)
from .torus_grid import TorusGrid, sup_norm

__version__ = "0.1.0"

__all__ = [
    "EQUILIBRIUM_FAMILY",
    "CollisionOperator",
    "CollisionResponse",
    "ConductivityMatrix",
    "DeltaKernel",
    "DispersionField",
    "DispersionParams",
    "FourierCollision",
    "LinearModel",
    "ModeFamily",
    "ModeSemigroup",
    "SlowBasis",
    "SlowState",
    "TorusGrid",
    "WeightedNormSpec",
    "assemble_K",
    "assemble_L",
    "assemble_M",
    "compute_kappa",
    "currents",
    "decay_diagnostics",
    "dispersion_relation_sweep",
    "equilibrium",
    "evolve_linear",
    "evolve_nonlinear",
    "fd_linearization_check",
    "find_p0",
    "fourier_law_check",
    "hydro_limit_study",
    "mode_matrix",
    "semigroup_bound_sweep",
    "slaved_state",
    "spectrum_D",
    "spectrum_L",
    "sup_norm",
    "__version__",
]
