"""Exact-arithmetic toolkit for Lie superalgebras whose even part is a
three-dimensional simple Lie algebra: constructions, axiom validation,
the sl(2) representation toolkit, the moduli space of odd brackets, and a
classification decision procedure with machine-checked certificates."""

from .classify import ClassificationResult, classify, is_simple_superalgebra
from .constructions import (
    BilinearFormPair,
    add_centre,
    assemble,
    build_char2_example,
    build_char3_example,
    build_double,
    build_osp,
    build_osp12,
    sl2_algebra,
)
from .fields import GF, QQ, Field, Scalar, int_image
from .linalg import (
    Matrix,
    Vector,
    kernel_basis,
    sparse_kernel_basis,
    using_compiled_kernel,
)
from .moduli import (
    OddBracketSpace,
    odd_bracket_space,
    solution_to_algebra,
    sweep_irrep_sums,
)
from .schema import parse_algebra, serialize_algebra
from .sl2 import (
    IrrepSpec,
    RepMatrices,
    Sl2Triple,
    annihilator,
    build_irrep,
    casimir,
    composition_series,
    decompose,
    find_sl2_triple,
    has_proper_submodule,
    jacobson_test,
    verify_triple,
)
from .superalgebra import (
    MorphismCertificate,
    SuperAlgebra,
    ValidationReport,
    check_morphism,
    is_ideal,
    is_simple_3dim,
    killing_form,
    p_span,
    supercentre,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "ClassificationResult",
    "classify",
    "is_simple_superalgebra",
    "BilinearFormPair",
    "add_centre",
    "assemble",
    "build_char2_example",
    "build_char3_example",
    "build_double",
    "build_osp",
    "build_osp12",
    "sl2_algebra",
    "GF",
    "QQ",
    "Field",
    "Scalar",
    "int_image",
    "Matrix",
    "Vector",
    "kernel_basis",
    "sparse_kernel_basis",
    "using_compiled_kernel",
    "OddBracketSpace",
    "odd_bracket_space",
    "solution_to_algebra",
    "sweep_irrep_sums",
    "parse_algebra",
    "serialize_algebra",
    "IrrepSpec",
    "RepMatrices",
    "Sl2Triple",
    "annihilator",
    "build_irrep",
    "casimir",
    "composition_series",
    "decompose",
    "find_sl2_triple",
    "has_proper_submodule",
    "jacobson_test",
    "verify_triple",
    "MorphismCertificate",
    "SuperAlgebra",
    "ValidationReport",
    "check_morphism",
    "is_ideal",
    "is_simple_3dim",
    "killing_form",
    "p_span",
    "supercentre",
    "validate",
]
