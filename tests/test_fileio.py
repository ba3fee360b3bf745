import random
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from symcube import fileio
from symcube.cli import main, resolve_group
from symcube.catalog import switched_16_designs
from symcube.cubes import Cube, ParatopyElement, apply_paratopy, difference_cube
from symcube.datafiles import data_dir
from symcube.equivalence import from_transversal, to_transversal
from symcube.errors import InvalidInputError, ResourceLimitError
from symcube.groups import MAX_GROUP_ORDER, DifferenceSet, make_cyclic

from named_cubes import random_paratopy

LOADERS = {
    "group": fileio.load_group,
    "difference set": lambda p: fileio.load_difference_set(p, make_cyclic(7)),
    "design": fileio.load_design,
    "cube": fileio.load_cube,
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
        ("orbit input", "orbitcube\n"),
        ("cube", "cube n=3\n"),
        ("cube", "cube n=3 v=7 k=3 lambda\n"),
        ("cube", "cube n=0 v=0 k=0 lambda=0\n1\n"),
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
    assert main(["reproduce", "table1", "--extended"]) == 2


@pytest.mark.parametrize("spec", ["product:metacyclic:3,7,2,cyclic:2", "product:cyclic:2"])
def test_cli_product_spec_needs_two_parts(capsys, spec):
    assert main(["group", "make", spec]) == 2
    err = capsys.readouterr().err
    assert repr(spec) in err and "product:<a>,<b>" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv,named,form",
    [
        (["group", "make", "metacyclic:3,7"], "'metacyclic:3,7'", "metacyclic:<m>,<c>,<r>"),
        (["group", "make", "metacyclic:3,7,x"], "'metacyclic:3,7,x'", "metacyclic:<m>,<c>,<r>"),
        (["group", "make", "cyclic:x"], "'cyclic:x'", "cyclic:<v>"),
        (["search", "ds-designs", "cyclic:7", "7,3"], "'7,3'", "<v>,<k>,<lambda>"),
        (["search", "ds-designs", "cyclic:7", "7,x,1"], "'7,x,1'", "<v>,<k>,<lambda>"),
    ],
)
def test_cli_comma_lists_are_checked(capsys, argv, named, form):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert named in err and form in err
    assert "unpack" not in err and "invalid literal" not in err


@pytest.mark.parametrize(
    "blocks,points,message",
    [
        ("9", "1", "block index 9 is out of range 0..6"),
        ("0", "7", "point index 7 is out of range 0..6"),
        ("-1", "1", "block index -1 is out of range"),
        ("0,0", "1", "block indices must be distinct"),
        ("0", "2,2", "point indices must be distinct"),
        ("x", "1", "--blocks: expected comma-separated block indices"),
        ("0", "1,", "--points: expected comma-separated point indices"),
    ],
)
def test_cli_design_switch_checks_indices(tmp_path, capsys, blocks, points, message):
    path = data_dir() / "designs" / "fano_a1.design"
    out = tmp_path / "out.design"
    argv = ["design", "switch", str(path), "--blocks", blocks, "--points", points, "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err and "invalid literal" not in err
    assert not out.exists()


def test_cli_product_spec(capsys):
    assert main(["group", "make", "product:cyclic:2,cyclic:8"]) == 0
    assert "order 16 abelian True" in capsys.readouterr().out


@pytest.mark.parametrize("spec", ["cyclic:100000", "product:cyclic:64,cyclic:64"])
def test_cli_group_above_the_order_bound_exits_2_at_once(capsys, spec):
    start = time.perf_counter()
    assert main(["group", "make", spec]) == 2
    assert time.perf_counter() - start < 0.5
    err = capsys.readouterr().err
    assert f"exceeds the limit of {MAX_GROUP_ORDER}" in err
    assert "Traceback" not in err


def test_group_file_above_the_order_bound_is_rejected_before_its_table(tmp_path, capsys):
    path = tmp_path / "big.group"
    path.write_text(f"group Z order {MAX_GROUP_ORDER + 1}\ntable\n0\n")
    with pytest.raises(ResourceLimitError, match=f"exceeds the limit of {MAX_GROUP_ORDER}"):
        fileio.load_group(path)
    assert main(["group", "validate", str(path)]) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_cli_paratopy_witness_of_2_cubes(tmp_path, capsys):
    d1 = switched_16_designs()[0]
    c1 = Cube(d1.bits, d1.params)
    c2 = apply_paratopy(c1, ParatopyElement(random_paratopy(random.Random(5), 2, 16).perms, (1, 0)))
    fileio.save_cube(c1, tmp_path / "a.cube")
    fileio.save_cube(c2, tmp_path / "b.cube")
    assert fileio.load_cube(tmp_path / "b.cube") == c2
    assert main(["equiv", "paratopic", str(tmp_path / "a.cube"), str(tmp_path / "b.cube"), "--witness"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "equivalent"
    assert [line.split()[0] for line in out[1:]] == ["axis_perm", "perm0", "perm1"]
    axes, *perms = (tuple(int(x) for x in line.split()[1:]) for line in out[1:])
    assert apply_paratopy(c1, ParatopyElement(tuple(perms), axes)) == c2


def test_cube_and_transversal_roundtrip(tmp_path):
    z7 = make_cyclic(7)
    c = difference_cube(z7, DifferenceSet(z7, (1, 2, 4), (7, 3, 1)), 3)
    fileio.save_cube(c, tmp_path / "c.cube")
    back = fileio.load_cube(tmp_path / "c.cube")
    assert back == c
    assert from_transversal(to_transversal(back)) == c


def test_group_table_must_match_header_order(tmp_path, capsys):
    path = tmp_path / "short.group"
    path.write_text("group G order 4\ntable\n0 1\n1 0\n")
    with pytest.raises(InvalidInputError, match="header says order 4"):
        fileio.load_group(path)
    assert main(["group", "validate", str(path)]) == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("line", ["permgens", "permgens x", "permgens 2 3"])
def test_permgens_line_needs_one_degree(tmp_path, capsys, line):
    path = tmp_path / "nodegree.group"
    path.write_text(f"group G order 2\n{line}\n(1,2)\n")
    with pytest.raises(InvalidInputError, match="permgens <degree>"):
        fileio.load_group(path)
    assert main(["group", "validate", str(path)]) == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("v", [0, 1])
def test_cli_orbit_cube_rejects_order_below_two(tmp_path, capsys, v):
    path = tmp_path / "small.orbit"
    path.write_text(f"orbitcube v={v}\n" + ("block 1 2 3\n" if v else ""))
    assert main(["search", "orbit-cube", str(path)]) == 2
    captured = capsys.readouterr()
    assert f"order v={v} must be at least 2" in captured.err
    assert "Traceback" not in captured.err + captured.out


@pytest.mark.parametrize(
    "content, message",
    [
        ("group G order 2\nlabels a,b,c\npermgens 2\n(1,2)\n", "label count"),
        ("group G order x\ntable\n0\n", "invalid literal"),
        ("group G order 2\ntable\n0 1\n1 y\n", "invalid literal"),
        ("group G order 2\npermgens 2\n(1,3)\n", "out of range"),
        ("group G order 2\npermgens 3\n(1,2,3)\n", "header says 2"),
    ],
)
def test_malformed_group_is_an_input_error(tmp_path, capsys, content, message):
    path = tmp_path / "bad.group"
    path.write_text(content)
    with pytest.raises(InvalidInputError, match=message):
        fileio.load_group(path)
    assert main(["group", "validate", str(path)]) == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "kind, content, message",
    [
        ("group", "group G order 2\npermgens 3000000\n()\n", "header says 2"),
        ("orbit input", "orbitcube v=1000000\ngen ()\n", "exceeds"),
    ],
)
def test_declared_degree_allocates_nothing(tmp_path, kind, content, message):
    path = tmp_path / "huge.txt"
    path.write_text(content)
    tracemalloc.start()
    start = time.perf_counter()
    with pytest.raises(InvalidInputError, match=message):
        LOADERS[kind](path)
    elapsed = time.perf_counter() - start
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert elapsed < 0.1
    assert peak < 4 << 20


@pytest.mark.parametrize("spec", ["metacyclic:3,7,2", "z9z3", "metacyclic:2,8,3", "metacyclic:4,4,3"])
def test_permgens_file_keeps_each_label_on_its_element(tmp_path, capsys, spec):
    """A load numbers the elements of a permgens file in its own order; the
    map that keeps each label must still be an isomorphism."""
    path = tmp_path / "g.group"
    assert main(["group", "make", spec, "--permgens", "--out", str(path)]) == 0
    g, h = resolve_group(spec), fileio.load_group(path)
    phi = np.array([h.labels.index(label) for label in g.labels])
    assert sorted(phi.tolist()) == list(range(g.order))
    assert (h.table[phi[:, None], phi[None, :]] == phi[g.table]).all()


NOT_A_CUBE = "cube n=3 v=2 k=1 lambda=0\n11\n00\n\n01\n10\n"


@pytest.mark.parametrize(
    "command",
    [
        ["equiv", "paratopic", "{0}", "{0}"],
        ["equiv", "isotopic", "{0}", "{0}"],
        ["equiv", "autotopy", "{0}"],
        ["equiv", "autoparatopy", "{0}"],
        ["cube", "invariant", "{0}"],
    ],
    ids=lambda c: " ".join(c[:2]),
)
def test_cube_commands_reject_a_file_whose_slices_are_not_designs(tmp_path, capsys, command):
    path = tmp_path / "bad.cube"
    path.write_text(NOT_A_CUBE)
    assert main([word.format(path) for word in command]) == 2
    captured = capsys.readouterr()
    assert "error: a slice violates the design equation" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""
    # verification alone still loads the file and reports it invalid
    assert main(["cube", "verify", str(path)]) == 1
    assert capsys.readouterr().out == "invalid\n"


def test_trailing_fixed_points_do_not_change_the_group(tmp_path):
    small, large = tmp_path / "small.group", tmp_path / "large.group"
    small.write_text("group G order 6\npermgens 3\n(1,2,3)\n(1,2)\n")
    large.write_text("group G order 6\npermgens 9\n(1,2,3)\n(1,2)\n()\n")
    assert fileio.load_group(small) == fileio.load_group(large)


# a header of one of the formats with small or malformed fields, then lines
# of the formats' own words: these reach past the header checks far more
# often than arbitrary text does
_FIELD = st.one_of(st.integers(-1, 8).map(str), st.sampled_from(["x", "", "1.5", "v=3"]))
_HEADER = st.sampled_from(
    [
        "group G order {}",
        "group G order {}\nlabels a,b{}",
        "ds {} {} {}",
        "design {} {} {}",
        "cube n={} v={} k={} lambda={}",
        "orbitcube v={}",
    ]
).flatmap(lambda t: st.lists(_FIELD, min_size=4, max_size=4).map(lambda f: t.format(*f)))
_WORD = st.one_of(
    st.sampled_from("table permgens gen block () (1,2) (1,2,3) (1,4)(2,5) , x".split()),
    st.integers(-1, 9).map(str),
    st.text(alphabet="012", min_size=1, max_size=8),
)
_BODY = st.lists(st.lists(_WORD, min_size=1, max_size=5).map(" ".join), max_size=9)
_TEXT = st.one_of(
    st.text(max_size=120),
    st.tuples(_HEADER, _BODY).map(lambda hb: "\n".join([hb[0], *hb[1]])),
)


@pytest.mark.parametrize("kind", sorted(LOADERS))
@settings(
    max_examples=80,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(text=_TEXT)
def test_loaders_fail_only_with_input_errors(tmp_path, kind, text):
    path = tmp_path / "fuzz.txt"
    path.write_text(text, encoding="utf-8")
    try:
        LOADERS[kind](path)
    except InvalidInputError:
        pass
