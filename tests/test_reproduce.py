"""``symcube reproduce <target> --check`` against the bundled expected
outputs in ``data/expected``."""

import pytest

from symcube.cli import main
from symcube.datafiles import data_dir
from symcube.reproduce import TABLE1_PINNED_IDS, TARGETS

FAST = ["fano", "small-unique", "hadamard16", "menon-family", "example52", "pg21"]


@pytest.mark.parametrize("target", FAST)
def test_reproduce_matches_expected(target, capsys):
    assert main(["reproduce", target, "--check"]) == 0
    assert "matches bundled expected output" in capsys.readouterr().err


@pytest.mark.extended
@pytest.mark.parametrize("target", ["diffcubes27", "table1", "table1-all", "prop51"])
def test_reproduce_matches_expected_extended(target):
    assert main(["reproduce", target, "--check"]) == 0


def _golden(target: str) -> list[str]:
    return (data_dir() / "expected" / f"{target}.txt").read_text().splitlines()


def test_every_target_has_one_golden():
    assert sorted(TARGETS) == sorted(p.stem for p in (data_dir() / "expected").glob("*.txt"))


def test_table1_golden_is_rows_of_table1_all():
    pinned, full = _golden("table1"), _golden("table1-all")
    assert pinned[0] == "target: table1 (pinned rows)"
    assert full[0] == "target: table1 (all rows)"
    assert pinned[1] == full[1] == "id structure nds ndc dev tds ngc"
    assert [row.split()[0] for row in full[2:]] == [str(gid) for gid in range(1, 15)]
    assert pinned[2:] == [full[1 + gid] for gid in TABLE1_PINNED_IDS]


def test_table1_all_golden_adds_up_to_prop51():
    rows = [row.split() for row in _golden("table1-all")[2:]]
    counts = dict(line.rsplit(": ", 1) for line in _golden("prop51")[1:])
    ndc, ngc = sum(int(r[3]) for r in rows), sum(int(r[6]) for r in rows)
    assert (ndc, ngc) == (27, 946)
    assert int(counts["difference cubes"]) == ndc
    assert int(counts["group cubes that are not difference cubes"]) == ngc
    assert int(counts["total inequivalent group cubes"]) == ndc + ngc
