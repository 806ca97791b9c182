"""Hybrid High-Order solvers for distributed optimal control of Poisson."""

from .mesh import (Mesh, MeshError, MeshFormatError, MeshGenerationError,
                   make_cartesian, make_voronoi, read_mesh, write_mesh)
from .poly import CellBasis
from .hho_core import (HhoSpace, OptimalitySystem, SolverError, reduce_function,
                       solve_poisson)
from .control_unconstrained import (AdmissibleBox, ControlProblem, ExactTriple,
                                    OptimalitySolution, UnsupportedDegreeError,
                                    project_box, solve_uc1, solve_uc2,
                                    solve_uc31, solve_uc32)
from .control_constrained import (ConstrainedSolution, PgdConfig,
                                  PgdIterationError, solve_wc1, solve_wc2)
from .errors import (ConvergenceReport, ErrorRecord, NonFiniteError,
                     energy_error, eoc, l2_error_control,
                     l2_error_reconstruction)
from . import presets

__version__ = "0.1.0"
