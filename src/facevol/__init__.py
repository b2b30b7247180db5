"""Exact-arithmetic certificates for simplex face volumes.

The package certifies, over the rationals with no rounding anywhere in the
certification path, that the squared codimension-2 face volumes of an
n-simplex have a full-rank Jacobian in the squared edge lengths (so the face
volumes are algebraically independent functions of the edge lengths), and
derives the complete spectrum of the face-edge incidence structure along the
way. Stated closed-form constants are audited against the certified values
and disagreements are reported, never assumed away.
"""

__version__ = "0.1.0"

from .claims import ClaimRecord
from .exceptions import IntegrityError
from .gelfand import (
    EigenvectorMatch,
    GelfandReport,
    check_commutative,
    eigenspace_dimensions,
    gelfand_report,
    match_eigenvectors,
)
from .geometry import (
    EdgeLengthAssignment,
    cayley_menger_matrix,
    squared_volume,
    unit_regular_squared_volume,
)
from .jacobian import (
    IndependenceCertificate,
    fd_crosscheck,
    independence_certificate,
    jacobian_squared_map,
    scaled_jacobian_at_regular,
)
from .linalg import (
    RationalMatrix,
    char_poly,
    det_adjugate,
    det_fraction_free,
    exact_sqrt,
    format_rational,
    parse_rational,
    rank,
)
from .report import (
    CheckResult,
    VerificationReport,
    parse_report,
    run_verification,
    serialize_report,
    serialize_reports,
    verify_single,
)
from .spectral import (
    DivisorQuotient,
    EigenvalueWitness,
    SingularValueEntry,
    SpectrumCertificate,
    build_gram,
    check_equitable,
    det_incidence,
    divisor_closed_form,
    divisor_divides,
    divisor_eigenpairs,
    divisor_matrix,
    eigenbasis,
    full_spectrum,
)
from .subsets import (
    build_incidence_matrix,
    intersection_classes,
    subsets_colex,
)

__all__ = [
    "ClaimRecord",
    "IntegrityError",
    "EigenvectorMatch",
    "GelfandReport",
    "check_commutative",
    "eigenspace_dimensions",
    "gelfand_report",
    "match_eigenvectors",
    "EdgeLengthAssignment",
    "cayley_menger_matrix",
    "squared_volume",
    "unit_regular_squared_volume",
    "IndependenceCertificate",
    "fd_crosscheck",
    "independence_certificate",
    "jacobian_squared_map",
    "scaled_jacobian_at_regular",
    "RationalMatrix",
    "char_poly",
    "det_adjugate",
    "det_fraction_free",
    "exact_sqrt",
    "format_rational",
    "parse_rational",
    "rank",
    "CheckResult",
    "VerificationReport",
    "parse_report",
    "run_verification",
    "serialize_report",
    "serialize_reports",
    "verify_single",
    "DivisorQuotient",
    "EigenvalueWitness",
    "SingularValueEntry",
    "SpectrumCertificate",
    "build_gram",
    "check_equitable",
    "det_incidence",
    "divisor_closed_form",
    "divisor_divides",
    "divisor_eigenpairs",
    "divisor_matrix",
    "eigenbasis",
    "full_spectrum",
    "build_incidence_matrix",
    "intersection_classes",
    "subsets_colex",
]
