"""kreintwist: residual verification of twisted Clifford / Krein operator calculus.

Finite-dimensional constructions (gamma representations for arbitrary even
signatures, twist / grading / charge-conjugation operators, Krein products,
the D <-> KD operator morphism, chart-level connection identities and
almost-commutative product triples) together with a check-suite runner that
turns every algebraic identity into a measured residual.
"""

from .linalg import AntilinearOp, adjoint, kron, op_norm, residual_norm
from .clifford import (
    CliffordRep,
    Signature,
    SignTable,
    StructuralOps,
    all_signatures,
    build_gammas,
    build_structural,
    canonical_dirac_pair,
    represent,
    sign_table,
    verify_structural,
)
from .krein import (
    KreinSpace,
    SpinElement,
    TwistedTripleData,
    canonical_twisted_triple,
    fluctuate,
    gauge_transform,
    k_adjoint,
    k_product,
    sample_spin_plus,
    twisted_commutator,
    twisted_first_order_residual,
)
from .morphism import (
    MorphismPair,
    PseudoTripleData,
    apply_k_morphism,
    invert_k_morphism,
)
from .product import (
    FiniteTriple,
    ProductTripleData,
    assemble_product,
    build_finite_triple_ko6,
    signature_emergence,
)
from .geometry import MetricField, metric_family
from .report import Report, SuiteConfig, __version__
from .suites import run

__all__ = [
    "AntilinearOp",
    "adjoint",
    "kron",
    "op_norm",
    "residual_norm",
    "CliffordRep",
    "Signature",
    "SignTable",
    "StructuralOps",
    "all_signatures",
    "build_gammas",
    "build_structural",
    "canonical_dirac_pair",
    "represent",
    "sign_table",
    "verify_structural",
    "KreinSpace",
    "SpinElement",
    "TwistedTripleData",
    "canonical_twisted_triple",
    "fluctuate",
    "gauge_transform",
    "k_adjoint",
    "k_product",
    "sample_spin_plus",
    "twisted_commutator",
    "twisted_first_order_residual",
    "MorphismPair",
    "PseudoTripleData",
    "apply_k_morphism",
    "invert_k_morphism",
    "FiniteTriple",
    "ProductTripleData",
    "assemble_product",
    "build_finite_triple_ko6",
    "signature_emergence",
    "MetricField",
    "metric_family",
    "Report",
    "SuiteConfig",
    "run",
    "__version__",
]
