"""Exact arithmetic for support tau-tilting theory over bound quiver
algebras: modules, Auslander-Reiten translates, two-term silting complexes,
mutation, and stability under the Nakayama functor."""

from .algebra import (
    Arrow,
    BoundQuiverAlgebra,
    Quiver,
    RadicalPower,
    Relation,
    build_algebra,
)
from .complexes import (
    TwoTermComplex,
    chain_maps_mod_homotopy,
    complexes_isomorphic,
    decompose_complex,
    hom_dim as complex_hom_dim,
    is_two_term_presilting,
    is_two_term_silting,
    is_two_term_tilting,
    minimalize,
    nu_complex,
    presentation_complex,
    projective_stalk,
    sum_complexes,
)
from .errors import (
    AlgebraMismatchError,
    FieldTooSmallError,
    MixedEndpointsError,
    MutationAmbiguousError,
    NonAdmissibleError,
    NotSelfinjectiveError,
    NotSiltingError,
    NotSupportTauTiltingError,
    ParseError,
    PrimeTooLargeError,
    RandomnessExhaustedError,
    TautiltError,
    TheoremViolationError,
    ZeroModuleError,
)
from .field import PrimeField
from .modules import (
    Rep,
    RepMap,
    are_isomorphic,
    decompose,
    direct_sum,
    dual,
    hom_basis,
    hom_dim,
    injective,
    is_indecomposable,
    projective,
    quotient_rep,
    radical_rows,
    regular,
    simple,
    sub_rep,
    syzygy,
    zero_module,
)
from .mutation import (
    EnumerationResult,
    enumerate_two_term_silting,
    mutate_silting,
    mutate_summand,
)
from .pairs import (
    ObstructionReport,
    PairEnumeration,
    STPair,
    complex_to_pair,
    enumerate_nu_stable,
    enumerate_support_tau_tilting,
    gorenstein_injdim_le1,
    is_nu_stable_pair,
    is_support_tau_minus_tilting,
    is_support_tau_tilting_pair,
    make_pair,
    pair_to_complex,
    two_cy_obstruction_report,
)
from .textio import (
    parse_algebra_file,
    parse_algebra_text,
    parse_element,
    parse_module_expr,
    module_expr_string,
)
from .translate import (
    is_selfinjective,
    nakayama_permutation,
    nu_element,
    nu_module,
    selfinjective_data,
    tau,
    tau_minus,
    transpose,
)

__all__ = [name for name in dir() if not name.startswith("_")]
