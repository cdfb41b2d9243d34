"""Computational toolkit for finite quandles.

Everything is table based: a quandle is a tuple of rows over 0..n-1, wrapped
in the small Quandle dataclass. A table from outside is checked once, by
validate(); the constructors build quandles by construction. The submodules
split along what they compute:

    core         constructors, validation, quotients, isomorphism
    permgroup    permutation groups, closures, derived and central series
    grouptables  finite group multiplication tables and Engel brackets
    congruence   congruence lattice, Inn and Trans, lambda, the two chains
    orbitseries  orbit trees, principal series, subquandle enumeration
    classify     degrees, predicates, the classification report, fact suite
    corpus       builtin registry and exhaustive small-order census
    qndfile      the .qnd text format
    cli          command line front end

The names most sessions start with are re-exported here.
"""

from .classify import (
    ClassificationReport,
    SuiteReport,
    is_connected,
    is_medial,
    is_n_locally_reductive,
    is_n_reductive,
    locally_reductive_degree,
    reductive_degree,
    verify_suite,
)
from .congruence import (
    Congruence,
    all_congruences,
    congruence_generated,
    inn,
    l_chain,
    lambda_congruence,
    o_chain,
    trans,
)
from .core import (
    Quandle,
    affine,
    conj,
    conj_subset,
    dihedral,
    direct_product,
    disjoint_union,
    induced_subquandle,
    is_isomorphic,
    quotient,
    subquandle_closure,
    trivial,
    validate,
)
from .corpus import (
    CorpusSpec,
    builtin_group,
    builtin_quandle,
    default_corpus,
    enumerate_quandles,
)
from .errors import (
    AxiomViolation,
    CapExceeded,
    NotACongruence,
    NotAGroup,
    NotAUnit,
    NotClosed,
    ParseError,
    QuandleError,
    UnknownName,
)
from .orbitseries import (
    OrbitTreeNode,
    SeriesDegrees,
    all_subquandles,
    degrees,
    is_ncs,
    orbit_tree,
    principal_series,
)

__all__ = [
    "AxiomViolation",
    "CapExceeded",
    "ClassificationReport",
    "Congruence",
    "CorpusSpec",
    "NotACongruence",
    "NotAGroup",
    "NotAUnit",
    "NotClosed",
    "OrbitTreeNode",
    "ParseError",
    "Quandle",
    "QuandleError",
    "SeriesDegrees",
    "SuiteReport",
    "UnknownName",
    "affine",
    "all_congruences",
    "all_subquandles",
    "builtin_group",
    "builtin_quandle",
    "congruence_generated",
    "conj",
    "conj_subset",
    "default_corpus",
    "degrees",
    "dihedral",
    "direct_product",
    "disjoint_union",
    "enumerate_quandles",
    "induced_subquandle",
    "inn",
    "is_connected",
    "is_isomorphic",
    "is_medial",
    "is_n_locally_reductive",
    "is_n_reductive",
    "is_ncs",
    "l_chain",
    "lambda_congruence",
    "locally_reductive_degree",
    "o_chain",
    "orbit_tree",
    "principal_series",
    "quotient",
    "reductive_degree",
    "subquandle_closure",
    "trans",
    "trivial",
    "validate",
]
