"""Exact tree expansions for Gaussian binomials, two-row rectangular
Kronecker coefficients and two-row plethysm coefficients.

The library builds on three layers: integer polynomials in q and
partitions (qpoly, partitions), expansion trees whose terms sum to a
Gaussian binomial or a principal Schur specialization (koh, trees, goh),
and leaf markings that single out one coefficient of a product of
q-integers (marking, and the marked vectors of koh).  The coefficients
module combines them and cross-checks every answer against an
independent difference formula; general reduces a general inner shape
to the two-row plethysm; render writes trees of either family as text,
JSON or DOT.

The names below load on first use (PEP 562), so importing one module,
such as kohtrees.cli, does not compile the others.
"""

__version__ = "0.1.0"

# the module that defines each exported name
_HOMES = {
    **dict.fromkeys(("ONE", "ZERO", "QPoly", "q_binomial"), "qpoly"),
    **dict.fromkeys(("Partition", "count_in_rectangle", "enumerate_partitions"),
                    "partitions"),
    "KohTree": "trees",
    **dict.fromkeys(("count_koh_trees", "enumerate_koh_trees", "koh_rhs_closed",
                     "koh_term", "leaves"), "koh"),
    **dict.fromkeys(("Configuration", "GohTree", "enumerate_configurations",
                     "enumerate_goh_trees", "goh_leaves", "goh_rhs_closed",
                     "goh_term"), "goh"),
    "plethysm_two_row_general": "general",
    **dict.fromkeys(("count_markings", "enumerate_markings", "marking_target"),
                    "marking"),
    **dict.fromkeys(("CoefficientReport", "METHOD_BOTH", "METHOD_DIFFERENCE",
                     "METHOD_MARKED", "hook_content", "kronecker_two_row",
                     "plethysm_two_row", "schur_specialization_oracle"),
                    "coefficients"),
    **dict.fromkeys(("BudgetExceededError", "CrossCheckFailedError",
                     "NonExactDivisionError", "PreconditionViolationError",
                     "StructureViolationError"), "errors"),
}

__all__ = [*_HOMES, "__version__"]


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib
    return getattr(importlib.import_module(f"{__name__}.{home}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOMES})
