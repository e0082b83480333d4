"""Exact homology of Lefschetz complexes viewed as finite topological spaces.

A Lefschetz complex is a finitely generated free chain complex with a
distinguished cell basis: cells graded by dimension plus incidence
coefficients.  The facet relation makes the cell set a poset, hence a
finite T0 space, so the complex has two homologies: the chain homology of
the cell basis and the singular homology of the space (computed here as
simplicial homology of the order complex).  This package computes both
with exact arithmetic, checks the comparison theorem tying them together
(augmentable + acyclic cell closures implies the homologies agree), and
searches generated complexes for counterexamples to its converse.
"""

from .complexes import Cell, LefschetzComplex, build_complex, is_augmentable
from .exact import (
    GF,
    QQ,
    ZZ,
    ExactMatrix,
    RingSpec,
    SmithForm,
    kernel_basis,
    rank_over,
    smith_normal_form,
)
from .formats import (
    GeneratorConfig,
    export_dot,
    import_cubical,
    import_simplicial,
    parse_cubical,
    parse_lef,
    parse_simplicial,
    random_complex,
    render_lef,
)
from .homology import (
    ExactSequenceReport,
    HomologyProfile,
    excision_check,
    lefschetz_homology,
    long_exact_sequence,
    point_profile,
    relative_homology,
)
from .simplicial import (
    SimplicialComplex,
    finite_space_homology,
    order_complex,
    relative_finite_space_homology,
    weak_point_core,
)
from .theorem import (
    ConverseCandidate,
    CorollaryReport,
    TheoremReport,
    check_corollary,
    check_theorem,
    local_condition,
    search_converse,
)
from .topology import (
    closure,
    enumerate_closed_sets,
    is_closed,
    is_locally_closed,
    mouth,
    open_hull,
    restrict,
)

__version__ = "0.1.0"

__all__ = [
    "Cell",
    "ConverseCandidate",
    "CorollaryReport",
    "ExactMatrix",
    "ExactSequenceReport",
    "GF",
    "GeneratorConfig",
    "HomologyProfile",
    "LefschetzComplex",
    "QQ",
    "RingSpec",
    "SimplicialComplex",
    "SmithForm",
    "TheoremReport",
    "ZZ",
    "build_complex",
    "check_corollary",
    "check_theorem",
    "closure",
    "enumerate_closed_sets",
    "excision_check",
    "export_dot",
    "finite_space_homology",
    "import_cubical",
    "import_simplicial",
    "is_augmentable",
    "is_closed",
    "is_locally_closed",
    "kernel_basis",
    "lefschetz_homology",
    "local_condition",
    "long_exact_sequence",
    "mouth",
    "open_hull",
    "order_complex",
    "parse_cubical",
    "parse_lef",
    "parse_simplicial",
    "point_profile",
    "random_complex",
    "rank_over",
    "relative_finite_space_homology",
    "relative_homology",
    "render_lef",
    "restrict",
    "search_converse",
    "smith_normal_form",
    "weak_point_core",
]
