"""Exact word metrics, boundaries, and isoperimetric verification on Cayley
graphs of concrete finitely generated groups."""

from .errors import (
    BudgetExceeded,
    InternalContradiction,
    IsoplabError,
    ParseError,
    PreconditionViolated,
    Unattainable,
)
from .groups import (
    CyclicGroup,
    DihedralGroup,
    Element,
    FreeGroup,
    Group,
    HeisenbergGroup,
    SymmetricGroup,
    ZGroup,
    parse_group,
)
from .isoperimetry import (
    FiniteSubset,
    TransportEntry,
    TransportMapRecord,
    VerificationReport,
    boundary_comparison,
    displacement,
    displacement_bound_check,
    half_mass_witness,
    inner_boundary_left,
    inner_boundary_right,
    lemma31_check,
    outer_boundary,
    preimage_bound_check,
    smoothed_density,
    translate,
    transport_map,
    verify_csc,
    verify_theorem,
)
from .metric import (
    DEFAULT_BALL_CAP,
    BallTable,
    ball,
    distance,
    enumerate_group,
    geodesic_word,
    growth,
    minimal_d,
    phi,
    word_length,
)
from .rng import SplitMix64, mix64
from .search import (
    DEFAULT_SUBSET_CAP,
    ProfileRow,
    SetDescriptor,
    SharpnessSummary,
    exhaustive_profile,
    generate_set,
    generate_sets,
    gray_subset_steps,
    interval_subsets,
    parse_set_descriptor,
    parse_size_range,
    sharpness_of_subsets,
)
from .acceptance import (
    CriterionResult,
    acceptance_instances,
    run_acceptance,
)

__version__ = "0.1.0"
