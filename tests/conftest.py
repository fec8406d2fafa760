"""Shared pytest setup for the test suite."""

import pytest

# The oracles in helpers.py check themselves with asserts; rewriting them as
# pytest does the test modules keeps those checks under python -O.
pytest.register_assert_rewrite("helpers")
