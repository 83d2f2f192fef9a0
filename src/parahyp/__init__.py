"""Space-time solver for evolutionary problems with parabolic/hyperbolic
coefficient oscillation, plus the homogenisation convergence study.

The library solves (d/dt M0 + M1 + A) U = F on the periodic unit square
with M0 = diag(s0, I), M1 = diag(s1, 0) and the skew-adjoint coupling
A = [[0, div], [grad, 0]], discretised by H^1-conforming Q_p x H(div)-
conforming RT_{p-1} mixed elements in space and a discontinuous Galerkin
method with exponentially weighted Gauss-Radau quadrature in time.
"""

from .assembly import (BlockSystem, assemble_div_block, assemble_grad_block,
                       assemble_load, assemble_mass_v, assemble_weighted_mass_u,
                       build_block_system)
from .coefficients import (CoefficientField, ProblemData, SeparableSource,
                           admissibility_constants, checkerboard,
                           checkerboard_complement, constant, epsilon_N,
                           homogenised_average, homogenised_problem,
                           rough_problem, source_f)
from .errors import (ErrorReport, ErrorTable, compare_solutions, compare_to_exact,
                     e_q_discrete, e_q_from_slab_terms, e_sup_discrete,
                     e_sup_from_samples, eoc)
from .gelfand import (BlockGridFunction, FibreDecomposition, forward,
                      gelfand_transform, inverse, scale_T_N, unit_square_norm)
from .mesh import Mesh, build_mesh
from .quadrature import (QuadratureRule, exponential_moments, gauss_legendre_1d,
                         gauss_legendre_2d, weighted_gauss_radau)
from .slab import (DiscreteSolution, SlabBasis, load_solution, run, save_solution,
                   solve_slab)
from .spaces import (FieldPair, ScalarSpace, VectorSpace, eval_div, eval_scalar,
                     eval_scalar_grad, eval_vector, gauss_lobatto_points,
                     interpolate_scalar, project_vector)
from .study import (StudyConfig, export_snapshot, parse_config, run_study,
                    single_solve, solve_reference)

__version__ = "0.1.0"
