"""abba: decide, certify, and construct (non-)similarity of AB and BA.

The central fact: for square a and b, the products a @ b and b @ a are
similar exactly when their rank sequences {rank((ab)^j)} agree, and the
sequences always share their limit.  This package decides that criterion
on an exact Gaussian-rational backend or a tolerance-governed float
backend, certifies positive verdicts with explicit invertible
intertwiners, and screens unitary similarity through trace words.
"""

from .catalog import (
    FAMILIES,
    Claim,
    Finding,
    Fixture,
    SearchSpec,
    admissible_sequence_pairs,
    catalog,
    get_fixture,
    minimal_counterexample_analysis,
    search_counterexample,
)
from .classes import (
    ClassReport,
    EPDecomposition,
    classify,
    column_inclusion_factor,
    ep_decomposition,
    hermitian_real_part,
    is_ep,
    is_hermitian,
    is_normal,
    is_psd,
    realpart_psd_same_rank,
)
from .errors import (
    BackendError,
    HypothesisViolation,
    IntertwinerNotFound,
    MatrixFormatError,
    ShapeError,
    ToleranceWarning,
)
from .linalg import (
    characteristic_polynomial,
    condition_estimate,
    determinant,
    invertible,
    nullspace_basis,
    orthonormal_range_basis,
    rank,
    solve_linear,
)
from .matio import dump_matrix, load_matrix, parse_matrix, save_matrix
from .matrix import EXACT, FLOAT, Matrix, block, hstack, kron, vstack
from .rankseq import (
    RankSequence,
    drops,
    enumerate_tail_sequences,
    is_valid_rank_sequence,
    rank_sequence,
    realize_rank_sequence,
)
from .scalars import DEFAULT_TOLERANCE, GaussianRational, TolerancePolicy
from .similarity import (
    SimilarityCertificate,
    SimilarityVerdict,
    certificate_for,
    construct_similarity_psd_ep,
    decide_product_similarity,
    doubling_conjugator,
    doubling_product_similarity,
    find_intertwiner,
    hermitian_parts,
    intertwiner_space,
    normal_doubling,
    unitary_intertwiner,
    verify_certificate,
)
from .unitary import (
    DEGREE_SIX_PROBE,
    TraceWord,
    WordTraceReport,
    decide_unitary_2x2,
    trace_word,
    word_trace_screen,
)

__version__ = "0.1.0"
