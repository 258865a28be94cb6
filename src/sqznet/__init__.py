"""Frequency-domain simulator for linearized quantum-optical networks.

Propagates quadrature fluctuation operators as linear combinations of
noise sources through beamsplitters, phase shifters, losses and a
below-threshold OPA cavity; computes homodyne noise spectra, per-source
budgets, and the beamsplitter condition that cancels classical laser
noise while preserving squeezing.
"""

from .analysis import (
    CancellationSolution,
    epsilon1_plus,
    solve_cancellation_numeric,
    squeezed_vacuum_variance,
    squeezing_bands,
    suppression_db,
)
from .core import (
    VACUUM,
    LinearField,
    NoiseVarianceModel,
    Quadrature,
    db_rel_shot,
    variance,
)
from .elements import (
    Beamsplitter,
    HomodyneParams,
    LossElement,
    Opa,
    OpaParams,
    PhaseShifter,
    homodyne_readout,
    opa_from_mirrors,
    opa_transfer,
    source,
)
from .network import (
    MachZehnderParams,
    NetworkDescription,
    NetworkError,
    Spectrum,
    build_mach_zehnder,
    evaluate,
    sweep,
)

__all__ = [
    "Beamsplitter",
    "CancellationSolution",
    "HomodyneParams",
    "LinearField",
    "LossElement",
    "MachZehnderParams",
    "NetworkDescription",
    "NetworkError",
    "NoiseVarianceModel",
    "Opa",
    "OpaParams",
    "PhaseShifter",
    "Quadrature",
    "Spectrum",
    "VACUUM",
    "build_mach_zehnder",
    "db_rel_shot",
    "epsilon1_plus",
    "evaluate",
    "homodyne_readout",
    "opa_from_mirrors",
    "opa_transfer",
    "solve_cancellation_numeric",
    "source",
    "squeezed_vacuum_variance",
    "squeezing_bands",
    "suppression_db",
    "sweep",
    "variance",
]

__version__ = "0.1.0"
