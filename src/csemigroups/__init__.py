"""Exact arithmetic for C-semigroups, their ideals and derived semigroups."""

from .errors import (
    BudgetExceeded,
    ConeMismatch,
    DimensionMismatch,
    EmptyGaps,
    InvalidSemigroupFile,
    NonSimplicialCone,
    NotCSemigroup,
    NotDegreeCompatible,
    NotInSemigroup,
    NotOnRays,
    RayNotMet,
    SemigroupError,
    ZeroCone,
)
from .lattice import (
    EQ,
    GT,
    LT,
    Cone,
    MonomialOrder,
    Point,
)
from .semigroups import (
    DEFAULT_BUDGET,
    AperyContext,
    GapSemigroup,
    GenSemigroup,
    apery_context,
    frobenius,
    gaps,
    pseudo_frobenius,
)
from .ideals import (
    Ideal,
    IdealSemigroup,
    ideal_from_set,
    ideal_is_csemigroup,
    imsg_of_isemigroup,
    isemigroup_from_ideal,
    minimal_elements,
    verify_isemigroup,
)
from .enumeration import (
    FrobeniusFiber,
    TreeNode,
    big_o,
    children,
    enumerate_tree,
    tree_counts,
    with_frobenius,
    with_multiplicities,
)
from .med import (
    Decomposition,
    MedConstruction,
    MedReport,
    TriState,
    decompose,
    is_med_definition,
    is_med_pairwise,
    med_construct,
    med_type2_check,
    med_via_translates,
)
from .fastmember import FastContext, FastResult, fast_member, precompute

__version__ = "0.1.0"
