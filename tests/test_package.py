"""The package namespace: every exported name resolves, and the oracle's
names are loaded, with numpy, on first access only."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import pcring
from pcring import oracle

ORACLE_NAMES = ["StructureTable", "build_table", "certify_radical", "matches_pair_ring",
                "radical_matches_spectral"]


def test_every_exported_name_resolves():
    for name in pcring.__all__:
        assert getattr(pcring, name) is not None, name


def test_the_names_the_package_does_not_import_are_the_oracles():
    assert [name for name in pcring.__all__ if name not in vars(pcring)] == ORACLE_NAMES


@pytest.mark.parametrize("name", ORACLE_NAMES)
def test_oracle_names_are_the_oracles_objects(name):
    assert getattr(pcring, name) is getattr(oracle, name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        pcring.not_a_name  # noqa: B018


def test_oracle_names_load_numpy_on_first_access():
    code = ("import sys, pcring; pcring.CycloNum; print('numpy' in sys.modules); "
            "pcring.build_table; print('numpy' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(Path(pcring.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         encoding="utf-8", timeout=120, check=True).stdout
    assert out.split() == ["False", "True"]
