"""Clifford algebras, algebraic spinors, and bundle-formulated quantum evolution.

Layers, bottom up:

- ga: blades, multivectors, wedge / interior / Clifford products over any
  nondegenerate symmetric real metric (exact or float scalars), in
  dimension n <= MAX_DIMENSION
- spinor: regular representation, primitive idempotents, minimal left
  ideals, gamma/sigma matrices, spinor covariant and Lie derivatives
- numerics: HBAR and the RK4 stepper that transport and fields share
- transport: evolution transport along paths, connection coefficients,
  derivation along paths, bundle Schrodinger solutions
- fields: lattice Dirac / Klein-Gordon operators, the momentum operator,
  bundle-wrapped gammas, stress tensor and spin-vector packaging
- cli: the `clifbundle` verification front end
"""

from ._version import __version__
from .ga import (
    MAX_DIMENSION,
    Metric,
    Multivector,
    Signature,
    basis_blades,
    clifford,
    even_odd_split,
    format_multivector,
    grade_project,
    interior,
    metric_dual,
    metric_raise,
    parse_multivector,
    scalar_product,
    wedge,
)
from .numerics import HBAR
from .spinor import (
    GammaSet,
    SigmaSet,
    find_primitive_idempotent,
    gamma_set_for_signature,
    minimal_ideal_dimension,
    minimal_left_ideal,
    regular_rep,
    sigma_generators,
    spinor_cov_deriv,
    spinor_lie_deriv,
    spinor_rep_matrices,
    spinor_representation,
    verify_iso_table,
)
from .transport import (
    HamiltonianSpec,
    Lifting,
    Path,
    Transport,
    Trivialization,
    connection_coeffs,
    evolve,
    matrix_bundle_hamiltonian,
    path_derivation,
    solve_bundle_schrodinger,
)
from .fields import (
    AffineConnection,
    EMPotential,
    FieldGammaSet,
    Grid,
    ScalarField,
    SpinorField,
    SpinVector,
    bundle_wrap,
    dalembert_identity,
    dirac_hamiltonian_evolve,
    dirac_slash,
    klein_gordon_evolve,
    klein_gordon_reduce,
    minkowski_gamma_set,
    momentum_op,
    spin_vector_package,
    stress_energy_spinvector,
    stress_tensor,
    wrapped_momentum,
)
