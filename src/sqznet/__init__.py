"""Frequency-domain simulator for linearized quantum-optical networks.

Propagates quadrature fluctuation operators as linear combinations of
noise sources through beamsplitters, phase shifters, losses and a
below-threshold OPA cavity; computes homodyne noise spectra, per-source
budgets, and the beamsplitter condition that cancels classical laser
noise while preserving squeezing.
"""

from .analysis import (
    CancellationSolution,
    NoiseBudget,
    dark_port_power,
    epsilon1_plus,
    loss_chain,
    noise_budget,
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
    sum_coefficient_power,
    variance,
)
from .elements import (
    BeamsplitterParams,
    HomodyneParams,
    LossParams,
    OpaParams,
    beamsplitter,
    homodyne_readout,
    loss,
    opa_from_mirrors,
    opa_transfer,
    phase_shift,
    source,
)
from .network import (
    Beamsplitter,
    LossElement,
    MachZehnderParams,
    NetworkDescription,
    NetworkError,
    Opa,
    PhaseShifter,
    SourceSpec,
    SpectrumPoint,
    build_mach_zehnder,
    evaluate,
    sweep,
)

__all__ = [
    "BeamsplitterParams",
    "Beamsplitter",
    "CancellationSolution",
    "HomodyneParams",
    "LinearField",
    "LossElement",
    "LossParams",
    "MachZehnderParams",
    "NetworkDescription",
    "NetworkError",
    "NoiseBudget",
    "NoiseVarianceModel",
    "Opa",
    "OpaParams",
    "PhaseShifter",
    "Quadrature",
    "SourceSpec",
    "SpectrumPoint",
    "VACUUM",
    "beamsplitter",
    "build_mach_zehnder",
    "dark_port_power",
    "db_rel_shot",
    "epsilon1_plus",
    "evaluate",
    "homodyne_readout",
    "loss",
    "loss_chain",
    "noise_budget",
    "opa_from_mirrors",
    "opa_transfer",
    "phase_shift",
    "solve_cancellation_numeric",
    "source",
    "squeezed_vacuum_variance",
    "squeezing_bands",
    "sum_coefficient_power",
    "suppression_db",
    "sweep",
    "variance",
]

__version__ = "0.1.0"
