"""Tier-1 runs each check of the standard-library contract
(``tests/stdlib_contract.py``) as its own test."""
import pytest

import stdlib_contract


@pytest.mark.parametrize("check", stdlib_contract.CHECKS, ids=lambda check: check.__name__)
def test_stdlib_contract(check, tmp_path):
    check(tmp_path)
