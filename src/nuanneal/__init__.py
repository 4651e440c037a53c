"""Collective neutrino oscillation simulator and annealing pipeline.

Layers, bottom to top: many-body basis algebra, Hamiltonian builders, exact
evolution, entanglement witnesses, the clock-matrix QUBO encoding, a seeded
simulated annealer, the adaptive zoom driver with mass-basis domain
decomposition, and a configuration-driven CLI.
"""

from .annealer import AnnealResult, AnnealSchedule, anneal, anneal_many
from .aqae import AqaeConfig, AqaeResult, BlockedAqaeResult, converged, run_aqae, run_aqae_blocked
from .basis import (
    BasisTag,
    OccupationBlock,
    PmnsParams,
    StateVector,
    change_basis,
    embed_single_mode,
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
    digitize_value,
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
    b_vector_from_masses,
    b_vector_preset,
    b_vector_two_flavor,
    build_dirac_hamiltonian,
    build_hamiltonian,
    build_majorana_hamiltonian,
    build_nu_antinu_hamiltonian,
    restrict_to_block,
)
from .witnesses import (
    WitnessReport,
    compute_witnesses,
    dominant_frequency,
    entanglement_entropy,
    negativity,
    reduced_density_single,
)

__version__ = "0.1.0"
