"""Run every module docstring example as a test."""

import doctest

from kohtrees import coefficients, general, goh, koh, marking, partitions, qpoly, trees


def test_module_doctests():
    failed = 0
    attempted = 0
    for module in (qpoly, partitions, koh, trees, goh, general, marking, coefficients):
        result = doctest.testmod(module)
        failed += result.failed
        attempted += result.attempted
    assert failed == 0
    assert attempted > 10
