"""Collective neutrino oscillation simulator and annealing pipeline.

Layers, bottom to top: many-body basis algebra, Hamiltonian builders, exact
evolution, entanglement witnesses, the clock-matrix QUBO encoding, a seeded
simulated annealer, the adaptive zoom driver with mass-basis domain
decomposition, and a configuration-driven CLI.
"""

from . import annealer, aqae, basis, clock, config, evolution, hamiltonians, witnesses

__version__ = "0.1.0"
