import pytest

from symcube import fileio
from symcube.cli import main
from symcube.cubes import difference_cube
from symcube.equivalence import to_transversal
from symcube.errors import InvalidInputError
from symcube.groups import DifferenceSet, make_cyclic

LOADERS = {
    "group": fileio.load_group,
    "difference set": lambda p: fileio.load_difference_set(p, make_cyclic(7)),
    "design": fileio.load_design,
    "cube": fileio.load_cube,
    "transversal": fileio.load_transversal,
    "certificate": fileio.load_certificate,
    "orbit input": fileio.load_orbit_input,
}


@pytest.mark.parametrize("kind", sorted(LOADERS))
@pytest.mark.parametrize("content", ["", "\n  \n"])
def test_loaders_reject_empty_files(tmp_path, kind, content):
    path = tmp_path / "empty.txt"
    path.write_text(content)
    with pytest.raises(InvalidInputError, match="empty"):
        LOADERS[kind](path)


@pytest.mark.parametrize(
    "kind, content",
    [
        ("difference set", "ds 7 3 1\n"),
        ("certificate", "mode=colored\n"),
        ("orbit input", "orbitcube\n"),
        ("cube", "cube n=3\n"),
        ("cube", "cube n=3 v=7 k=3 lambda\n"),
        ("transversal", "td n=3 v=2\n"),
        ("transversal", "td n=3 v=x blocks=4\n"),
    ],
)
def test_loaders_reject_truncated_files(tmp_path, kind, content):
    path = tmp_path / "short.txt"
    path.write_text(content)
    with pytest.raises(InvalidInputError):
        LOADERS[kind](path)


def test_cli_empty_design_exits_2_without_traceback(tmp_path, capsys):
    path = tmp_path / "empty.design"
    path.write_text("")
    assert main(["design", "verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert "empty design file" in captured.err
    assert "Traceback" not in captured.err + captured.out


def test_cli_has_no_seed_or_jobs_option(capsys):
    assert main(["--seed", "1", "reproduce", "fano"]) == 2
    assert main(["--jobs", "2", "reproduce", "fano"]) == 2


def test_cube_and_transversal_roundtrip(tmp_path):
    z7 = make_cyclic(7)
    c = difference_cube(z7, DifferenceSet(z7, (1, 2, 4), (7, 3, 1)), 3)
    fileio.save_cube(c, tmp_path / "c.cube")
    assert fileio.load_cube(tmp_path / "c.cube") == c
    t = to_transversal(c)
    fileio.save_transversal(t, tmp_path / "c.td")
    back = fileio.load_transversal(tmp_path / "c.td")
    assert (back.n, back.v, back.k) == (t.n, t.v, t.k)
    assert sorted(map(sorted, back.blocks)) == sorted(map(sorted, t.blocks))
