"""Collective neutrino oscillation simulator and annealing pipeline.

Layers, bottom to top: many-body basis algebra, Hamiltonian builders, exact
evolution, entanglement witnesses, the clock-matrix QUBO encoding, a seeded
simulated annealer, the adaptive zoom driver with mass-basis domain
decomposition, and a configuration-driven CLI.
"""

from .annealer import AnnealResult, AnnealSchedule, anneal
from .aqae import AqaeConfig, AqaeResult, BlockedAqaeResult, converged, run_aqae, run_aqae_blocked
from .basis import (
    BasisTag,
    OccupationBlock,
    PmnsParams,
    StateVector,
    change_basis,
    flavor_state,
    mass_blocks,
    pmns_matrix,
    product_state,
)
from .clock import (
    ClockMatrix,
    DigitizationParams,
    Direction,
    QuboProblem,
    build_clock,
    build_qubo,
    real_embed,
)
from .config import ConfigError, ExperimentConfig, load_config
from .evolution import Evolver, evolve_series, propagator
from .hamiltonians import (
    HamiltonianMatrix,
    Species,
    Statistics,
    SystemSpec,
    anisotropic_angles,
    b_vector_preset,
    build_dirac_hamiltonian,
    build_hamiltonian,
    restrict_to_block,
)
from .witnesses import (
    WitnessReport,
    compute_witnesses,
    entanglement_entropy,
    negativity,
)

__version__ = "0.1.0"
