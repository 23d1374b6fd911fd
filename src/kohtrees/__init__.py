"""Exact tree expansions for Gaussian binomials, two-row rectangular
Kronecker coefficients and two-row plethysm coefficients.

The library builds on three layers: integer polynomials in q and
partitions (qpoly, partitions), expansion trees whose terms sum to a
Gaussian binomial or a principal Schur specialization (koh, goh), and
leaf markings that single out one coefficient of a product of
q-integers (marking).  The coefficients module combines them and
cross-checks every answer against an independent difference formula;
render writes trees of either family as text, JSON or DOT.
"""

from .qpoly import ONE, ZERO, QPoly, q_binomial, q_int
from .partitions import Partition, count_in_rectangle, enumerate_partitions
from .koh import (KohTree, count_koh_trees, enumerate_koh_trees,
                  koh_child_type, koh_rhs_closed, koh_term, leaves, sigma,
                  validate_koh_tree)
from .goh import (Configuration, GohTree, count_goh_trees,
                  enumerate_configurations, enumerate_goh_trees, goh_leaves,
                  goh_rhs_closed, goh_term, validate_configuration,
                  validate_goh_tree)
from .marking import count_markings, enumerate_markings, marking_target
from .coefficients import (CoefficientReport, METHOD_BOTH, METHOD_DIFFERENCE,
                           METHOD_MARKED, hook_content, kronecker_two_row,
                           plethysm_two_row, plethysm_two_row_general,
                           schur_specialization_oracle)
from .errors import (BudgetExceededError, CrossCheckFailedError,
                     NonExactDivisionError, PreconditionViolationError,
                     StructureViolationError)

__version__ = "0.1.0"

__all__ = [
    "ONE", "ZERO", "QPoly", "q_binomial", "q_int",
    "Partition", "count_in_rectangle", "enumerate_partitions",
    "KohTree", "count_koh_trees", "enumerate_koh_trees", "koh_child_type",
    "koh_rhs_closed", "koh_term", "leaves", "sigma", "validate_koh_tree",
    "Configuration", "GohTree", "count_goh_trees", "enumerate_configurations",
    "enumerate_goh_trees", "goh_leaves", "goh_rhs_closed", "goh_term",
    "validate_configuration", "validate_goh_tree",
    "count_markings", "enumerate_markings", "marking_target",
    "CoefficientReport", "METHOD_BOTH", "METHOD_DIFFERENCE", "METHOD_MARKED",
    "hook_content", "kronecker_two_row", "plethysm_two_row",
    "plethysm_two_row_general", "schur_specialization_oracle",
    "BudgetExceededError", "CrossCheckFailedError", "NonExactDivisionError",
    "PreconditionViolationError", "StructureViolationError",
    "__version__",
]
