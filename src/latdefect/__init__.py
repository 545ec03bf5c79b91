"""Exact arithmetic for definite lattices, correction terms, and filling
obstructions of plumbed 3-manifolds."""

from types import ModuleType as _ModuleType

from .defects import (
    Defects,
    characteristic_class_reps,
    defects,
    max_char_square,
    min_char_norm,
)
from .dinvariant import (
    DInvariantReport,
    POINCARE_SPHERE_D,
    QuarterPair,
    d_invariant,
    evaluate_expression,
    label_quarter,
    seifert_class_values,
)
from .enumeration import (
    CosetProblem,
    EnumerationResult,
    enumerate_in_coset,
    shortest_in_coset,
)
from .errors import (
    BudgetExhaustedError,
    CongruenceViolationError,
    EXIT_BUDGET,
    EXIT_OK,
    EXIT_PRECONDITION,
    EXIT_SUITE,
    EXIT_USAGE,
    ExpressionParseError,
    FormatError,
    GlueFailureError,
    LabellingViolationError,
    NotBimodularError,
    NotCharacteristicError,
    NotDefiniteError,
    NotIntegerError,
    NotNegativeDefiniteError,
    NotPositiveDefiniteError,
    NotRationalHomologySphereError,
    NotSymmetricError,
    RadiusEmptyError,
    ResidueViolationError,
    SuiteFailureError,
    TooManyBadVerticesError,
    ToolkitError,
    UnsupportedDeterminantError,
    UnsupportedExpressionError,
    ZeroLegFramingError,
)
from .formats import (
    format_fraction,
    gram_from_json,
    gram_to_json,
    parse_fraction,
)
from .glue import (
    Overlattice,
    extend_covector,
    glue_overlattice,
    restrict_covector,
)
from .lattice import (
    CharClassSign,
    Covector,
    DiscriminantGroup,
    IntegralLattice,
    SpinCClass,
    a1_lattice,
    base_characteristic,
    char_class_sign,
    diagonal_bimodular_lattice,
    direct_sum,
    discriminant_group,
    dual_gram,
    e7_lattice,
    e8_lattice,
    identity_lattice,
    is_characteristic,
    is_diagonal,
    is_diagonal_bimodular,
    roots,
    spinc_classes,
    unit_vectors,
    validate_lattice,
)
from .obstruction import (
    FillingConclusion,
    STANDARD_PAIR,
    Verdict,
    report_verdict,
    surgery_cobordism_obstruction,
    surgery_difference,
)
from .plumbing import (
    ConnectedSum,
    ExpressionTerm,
    NcfExpansion,
    PlumbingTree,
    PoincareAtom,
    SeifertData,
    bad_vertex_indices,
    canonical_plumbing,
    gram,
    h1_order,
    neg_continued_fraction,
    negative_e8_tree,
    parse_expression,
    reverse_orientation,
)
from .reduction import lll_reduce_gram
from .verify import (
    SUITE_NAMES,
    SuiteReport,
    conjugate_lattice,
    random_unimodular,
    verify_suite,
)

__version__ = "0.1.0"

# every public name imported above; the submodules bound as attributes are not
__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
