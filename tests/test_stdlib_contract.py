"""Tier-1 runs each check of the standard-library contract
(``tests/stdlib_contract.py``) as its own test, and tests the script's
own imports and ``main``."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stdlib_contract


@pytest.mark.parametrize("check", stdlib_contract.CHECKS, ids=lambda check: check.__name__)
def test_stdlib_contract(check, tmp_path):
    check(tmp_path)


def test_script_imports_only_the_standard_library():
    """``python -S`` with no ``PYTHONPATH`` can import nothing else."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "-S", "-c", "import stdlib_contract"], capture_output=True,
                          cwd=Path(__file__).parent, env=env, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, b"")


def passes(tmp):
    assert tmp.is_dir()


def fails(tmp):
    raise stdlib_contract.ContractError("no exit within 1 s")


@pytest.mark.parametrize(
    "checks, code, printed",
    [
        ([passes, fails], 1, "ok   passes\nFAIL fails: no exit within 1 s\n1 of 2 checks passed\n"),
        ([passes, passes], 0, "ok   passes\nok   passes\n2 of 2 checks passed\n"),
    ],
    ids=["one-fails", "all-pass"],
)
def test_main_names_each_failed_check(monkeypatch, capsys, checks, code, printed):
    monkeypatch.setattr(stdlib_contract, "CHECKS", checks)
    assert stdlib_contract.main() == code
    assert capsys.readouterr() == (printed, "")
