"""Divergence-form decomposition, Coulomb frames, and coarea counting
for sphere-valued fields on the unit disc."""

from .mesh import (DiscMesh, build_disc_mesh, element_gradient,
                   export_mesh, integrate)
from .sphere import (Cap, SphereQuadrature, SphereRegion, cap,
                     complement_region, full_sphere,
                     region_from_predicate, sphere_quadrature)
from .fields import (AreaResult, SphereField, area_functional,
                     dirichlet_energy, field_from_values, phi,
                     sample_field)
from .pde import (PoissonSolution, solve_gauge_neumann,
                  solve_poisson_dirichlet)
from .divform import (DivergenceForm, admissible_region, averaged_omega,
                      omega)
from .frames import (Frame, coulomb_continuation, frame_residuals,
                     gauge_rotate, recover_f)
from .preimage import (PreimageCensus, PreimageSolver, coarea_check,
                       holography_identity, regular_filter)
from .surfaces import closed_form_table, self_intersections, zeta_eps

__version__ = "0.1.0"
