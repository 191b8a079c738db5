"""edgelab: semiclassical Dirac dynamics along curved topological interfaces.

Simulates the two-dimensional Dirac equation with a domain-wall mass term by
a pseudospectral Crank-Nicolson scheme, constructs the Gaussian edge-state
wavepacket ansatz with its transport-hierarchy correctors, and provides
config-driven experiments that measure error scalings, the Berry phase of a
loop, curvature-limited coherence, and dispersive decay.
"""

__version__ = "0.1.0"

from .evolution import EvolutionConfig, Grid2D, SpinorField, apply_H, evolve  # noqa: F401
from .geometry import integrate_trajectory, project_to_interface  # noqa: F401
from .hierarchy import assemble_ansatz  # noqa: F401
from .profiles import make_profile  # noqa: F401
from .straight import StraightWall, ballistic_wave, edge_state  # noqa: F401
from .walls import evaluate_wall, make_wall, normalize_wall  # noqa: F401
