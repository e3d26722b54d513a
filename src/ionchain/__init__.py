"""Long-range XY models in linear trapped-ion chains.

Subpackages cover chain geometry and phonon modes, XY couplings, sector
dynamics, full spin-phonon simulation, leakage analysis, transfer/search
protocols and dephasing noise, plus a CLI front end.
"""

__version__ = "0.1.0"

from .chain import (
    ChainSolution,
    TrapConfig,
    is_linear_stable,
    length_scale,
    max_stable_axial_frequency,
    reference_trap,
    solve_chain,
    solve_equilibrium,
    transverse_phonon_modes,
)
from .couplings import (
    CouplingModel,
    FitConvention,
    build_coupling_model,
    coupling_matrix,
    detuning_for_alpha,
    fit_alpha_beta,
    lamb_dicke,
    local_fields,
    min_detuning,
)

__all__ = [
    "ChainSolution",
    "TrapConfig",
    "CouplingModel",
    "FitConvention",
    "build_coupling_model",
    "coupling_matrix",
    "detuning_for_alpha",
    "fit_alpha_beta",
    "is_linear_stable",
    "lamb_dicke",
    "length_scale",
    "local_fields",
    "max_stable_axial_frequency",
    "min_detuning",
    "reference_trap",
    "solve_chain",
    "solve_equilibrium",
    "transverse_phonon_modes",
    "__version__",
]
