"""The package docstring's quickstart is the public single-run example;
it stays executable."""

import doctest

import repro


def test_package_quickstart_doctest_passes():
    results = doctest.testmod(repro)
    assert results.failed == 0
    assert results.attempted == 5
