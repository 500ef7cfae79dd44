"""Exact-arithmetic cross-checks of identities between special values of
L-functions and sizes of equivariant algebraic K-groups, over finite
fields, Kummer covers of punctured affine lines, and abelian number
fields.  No floating point appears anywhere in a verification path."""

from .abelian import (
    BoundedComplex,
    FgAbelianGroup,
    IntMatrix,
    cohomology,
    cokernel,
    euler_number,
    smith_normal_form,
)
from .cyclotomic import CyclotomicNumber, cyclotomic_polynomial, quotient_by_principal
from .curves import (
    KummerCover,
    TruncatedLSeries,
    count_points,
    l_series_kummer,
    l_special_value_curve,
    rational_reconstruction,
    verify_l_identities,
    zeta_series,
)
from .dirichlet import (
    DirichletCharacter,
    dedekind_zeta_abelian,
    dirichlet_l_value,
    generalized_bernoulli,
    predict_k_ratio,
    verify_norm_identity_numberfield,
    verify_order_identity,
)
from .equivariant import (
    CyclicMackeyData,
    bredon_cohomology,
    cyclic_fixed_point_mackey,
    h0_fixed_point_oracle,
    moore_cochain_complex,
)
from .ffqlc import (
    CyclicCharacter,
    InducedRepFF,
    artin_l_value_ff,
    equivariant_k_finite_field,
    k_mackey_finite_field,
    moebius_zeta_product_ff,
    verify_main_theorem_ff,
)
from .report import VerificationReport

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
