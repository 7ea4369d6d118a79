"""hookcells: exact combinatorics of graded ideals in two variables.

Cell decompositions of the varieties of graded ideals with a fixed Hilbert
function, the hook code of partitions with its Betti-number consequences,
ramification and Wronskians of spaces of binary forms, Schubert calculus,
and the homology ring of the secant-bundle desingularizations, all over
exact rational arithmetic.
"""

from .binforms import (
    BinaryForm,
    FormSpace,
    PointP1,
    POINT_X,
    POINT_Y,
    RamData,
    change_basis,
    initial_space,
    point_valuation,
    ram_data,
    total_ramification_check,
    wronskian,
)
from .cells import (
    CellParams,
    GradedIdeal,
    MonomialIdeal,
    big_cell,
    build_ideal,
    dims,
    initial_ideal,
    pair_set_S,
    pair_set_W,
    qram_ideal,
    qram_monomial,
    small_grass_coords,
)
from .errors import (
    BoxMismatch,
    DegenerateBasis,
    DimensionMismatch,
    HookcellsError,
    InconsistentParams,
    InputFileError,
    InternalError,
    InvalidT,
    MalformedE,
    NonAdmissible,
    NotAnIdeal,
    NotFound,
    NotInBigCell,
    OutOfRange,
    ShapeMismatch,
    ZeroForm,
)
from .hookcode import (
    BoxSequence,
    HookCode,
    all_codes,
    betti_numbers,
    cell_count,
    code,
    complement,
    decode,
    gaussian_binomial,
    poincare,
    poincare_factors,
)
from .partitions import (
    HilbertFunction,
    Hook,
    Partition,
    TInvariants,
    count_hooks_diff,
    diagonal_lengths,
    dual,
    enumerate_with_diagonal_lengths,
    hilbert_functions_upto,
    hooks,
    partitions_of,
    t_invariants,
)
from .schubert import (
    SchubertClass,
    grass_degree,
    intersect_ramification,
    lr_coefficient,
    lr_multiply,
    pieri_multiply,
    qram_of_monomial_space,
)
from .secant import (
    AmbientClass,
    BundleClass,
    class_gt,
    hankel_matrix,
    hankel_rank,
    iota_pullback,
    iota_pushforward,
    ramification_count_example,
    scaled_coefficients,
    secant_pullback,
    t_multiply,
    wronskian_cover_degree,
)

__version__ = "0.1.0"
