"""``symcube reproduce <target> --check`` against the bundled expected
outputs in ``data/expected``."""

import pytest

from symcube.cli import main

FAST = ["fano", "small-unique", "hadamard16", "menon-family", "example52", "pg21"]


@pytest.mark.parametrize("target", FAST)
def test_reproduce_matches_expected(target, capsys):
    assert main(["reproduce", target, "--check"]) == 0
    assert "matches bundled expected output" in capsys.readouterr().err


@pytest.mark.extended
@pytest.mark.parametrize("target", ["diffcubes27", "table1", "prop51"])
def test_reproduce_matches_expected_extended(target):
    assert main(["reproduce", target, "--check"]) == 0
