"""Text file formats for groups, difference sets, designs, cubes and
orbit-cube inputs.

Cycle notation and orbit-cube points are 1-based in files; everything is
0-based in memory.
"""

from __future__ import annotations

import functools
import re
from pathlib import Path
from typing import Sequence

import numpy as np

from .cubes import MAX_CELLS, Cube
from .designs import DesignParams, IncidenceMatrix
from .errors import InvalidInputError
from .groups import (
    DifferenceSet,
    FiniteGroup,
    _check_group_order,
    _permutation_closure,
    make_from_permutation_generators,
)
from .perms import format_cycles, parse_cycles
from .search import OrbitCubeInput

__all__ = [
    "load_group",
    "save_group",
    "load_difference_set",
    "load_design",
    "save_design",
    "load_cube",
    "save_cube",
    "load_orbit_input",
    "save_orbit_input",
]


def _input_errors(load):
    """Report what the parsers reject with a plain ValueError (a malformed
    integer or cycle) as an input error naming the file."""

    @functools.wraps(load)
    def wrapped(path, *args):
        try:
            return load(path, *args)
        except InvalidInputError:
            raise
        except ValueError as exc:
            raise InvalidInputError(f"{path}: {exc}") from None

    return wrapped


def _lines(path: str | Path, kind: str) -> list[str]:
    """The file's lines; a file with no content is an input error."""
    lines = Path(path).read_text().splitlines()
    if not any(ln.strip() for ln in lines):
        raise InvalidInputError(f"{path}: empty {kind} file")
    return lines


def _header_ints(path: str | Path, header: str, names: Sequence[str]) -> list[int]:
    """The integer ``name=value`` fields of a header line, in ``names`` order."""
    fields = dict(part.partition("=")[::2] for part in header.split()[1:])
    try:
        return [int(fields[name]) for name in names]
    except (KeyError, ValueError):
        raise InvalidInputError(f"{path}: bad header {header!r}") from None


def _permutation_generators(path, texts: list[str], degree: int) -> list[tuple[int, ...]]:
    """Generators in cycle notation on the symbols 1..degree, each built only
    up to the largest symbol used: trailing fixed points do not change the
    group they generate, and a declared degree costs no memory."""
    symbols = [int(s) for t in texts for s in re.findall(r"-?\d+", t)]
    for s in symbols:
        if not 1 <= s <= degree:
            raise InvalidInputError(f"{path}: symbol {s} out of range 1..{degree}")
    used = max(symbols, default=0)
    return [parse_cycles(t, used) for t in texts]


@_input_errors
def load_group(path: str | Path) -> FiniteGroup:
    lines = _lines(path, "group")
    head = lines[0].split()
    if len(head) != 4 or head[0] != "group" or head[2] != "order":
        raise InvalidInputError(f"{path}: bad header {lines[0]!r}")
    name = head[1]
    v = int(head[3])
    _check_group_order(v)  # before the table, whose checks take O(v^3) steps
    pos = 1
    labels = None
    if pos < len(lines) and lines[pos].startswith("labels "):
        labels = lines[pos][len("labels ") :].split(",")
        if len(labels) != v:
            raise InvalidInputError(f"{path}: label count must equal group order")
        pos += 1
    if pos >= len(lines):
        raise InvalidInputError(f"{path}: missing body")
    if lines[pos] == "table":
        rows = []
        for ln in lines[pos + 1 : pos + 1 + v]:
            rows.append([int(x) for x in ln.split()])
        if len(rows) != v:
            raise InvalidInputError(f"{path}: table has {len(rows)} rows, header says order {v}")
        return FiniteGroup(rows, labels=labels, name=name)
    if lines[pos].startswith("permgens"):
        fields = lines[pos].split()
        if len(fields) != 2 or fields[0] != "permgens" or not fields[1].isdigit():
            raise InvalidInputError(f"{path}: expected 'permgens <degree>', got {lines[pos]!r}")
        texts = [ln for ln in lines[pos + 1 :] if ln.strip()]
        g = make_from_permutation_generators(
            _permutation_generators(path, texts, int(fields[1])), name=name
        )
        if g.order != v:
            raise InvalidInputError(
                f"{path}: generators produce order {g.order}, header says {v}"
            )
        if labels is not None:
            g.labels = tuple(labels)
        return g
    raise InvalidInputError(f"{path}: expected 'table' or 'permgens'")


def save_group(g: FiniteGroup, path: str | Path, as_table: bool = True) -> None:
    name = g.name or f"G{g.order}"
    labels = g.labels
    if as_table:
        body = ["table"] + [" ".join(map(str, row)) for row in g.table.tolist()]
    else:
        gens = [tuple(g.table[a].tolist()) for a in g.generating_sequence()]
        body = [f"permgens {g.order}"] + [format_cycles(p) for p in gens]
        if labels is not None:
            # a load numbers the elements as the closure of these left
            # translations lists them, and the translation by g_w sends 0 to w
            labels = [labels[p[0]] for p in _permutation_closure(gens, g.order)[0]]
    lines = [f"group {name} order {g.order}"]
    if labels is not None:
        lines.append("labels " + ",".join(labels))
    Path(path).write_text("\n".join(lines + body) + "\n")


@_input_errors
def load_difference_set(path: str | Path, group: FiniteGroup) -> DifferenceSet:
    lines = [ln for ln in _lines(path, "difference set") if ln.strip()]
    head = lines[0].split()
    if head[0] != "ds" or len(head) != 4 or len(lines) < 2:
        raise InvalidInputError(f"{path}: bad header {lines[0]!r}")
    v, k, lam = (int(x) for x in head[1:])
    elements = tuple(int(x) for x in lines[1].split())
    return DifferenceSet(group, elements, (v, k, lam))


@_input_errors
def load_design(path: str | Path) -> IncidenceMatrix:
    lines = [ln for ln in _lines(path, "design") if ln.strip()]
    head = lines[0].split()
    if head[0] != "design" or len(head) != 4:
        raise InvalidInputError(f"{path}: bad header {lines[0]!r}")
    v, k, lam = (int(x) for x in head[1:])
    rows = [[int(ch) for ch in ln] for ln in lines[1 : 1 + v]]
    if len(rows) != v or any(len(r) != v for r in rows):
        raise InvalidInputError(f"{path}: expected {v} rows of {v} characters")
    return IncidenceMatrix(np.array(rows, dtype=np.uint8), DesignParams(v, k, lam))


def save_design(a: IncidenceMatrix, path: str | Path) -> None:
    if a.params is None:
        raise InvalidInputError("design file needs tagged parameters")
    p = a.params
    body = "\n".join("".join(str(int(x)) for x in row) for row in a.bits)
    Path(path).write_text(f"design {p.v} {p.k} {p.lam}\n" + body + "\n")


def save_cube(c: Cube, path: str | Path) -> None:
    p = c.params
    head = f"cube n={c.n} v={c.v} k={p.k} lambda={p.lam}"
    flat = c.bits.reshape((-1, c.v, c.v))
    chunks = []
    for block in flat:
        chunks.append("\n".join("".join(str(int(x)) for x in row) for row in block))
    Path(path).write_text(head + "\n" + "\n\n".join(chunks) + "\n")


@_input_errors
def load_cube(path: str | Path) -> Cube:
    lines = _lines(path, "cube")
    if not lines[0].startswith("cube "):
        raise InvalidInputError(f"{path}: bad header {lines[0]!r}")
    n, v, k, lam = _header_ints(path, lines[0], ("n", "v", "k", "lambda"))
    if n < 2 or v < 1:
        raise InvalidInputError(f"{path}: a cube needs n >= 2 and v >= 1")
    rows = [ln for ln in lines[1:] if ln.strip()]
    expected = v ** (n - 2) * v
    if len(rows) != expected:
        raise InvalidInputError(f"{path}: expected {expected} matrix rows, got {len(rows)}")
    arr = np.array([[int(ch) for ch in ln] for ln in rows], dtype=np.uint8)
    return Cube(arr.reshape((v,) * n), DesignParams(v, k, lam))


@_input_errors
def load_orbit_input(path: str | Path) -> OrbitCubeInput:
    lines = [ln for ln in _lines(path, "orbit input") if ln.strip()]
    head = lines[0].split()
    if len(head) != 2 or head[0] != "orbitcube" or not head[1].startswith("v="):
        raise InvalidInputError(f"{path}: bad header {lines[0]!r}")
    v = int(head[1][2:])
    if v**3 > MAX_CELLS:
        raise InvalidInputError(f"{path}: a 3-cube of order v={v} exceeds {MAX_CELLS} cells")
    gens = []
    blocks = []
    for ln in lines[1:]:
        if ln.startswith("gen "):
            gens.append(parse_cycles(ln[4:], 3 * v))
        elif ln.startswith("block "):
            parts = tuple(int(x) - 1 for x in ln.split()[1:])
            if len(parts) != 3:
                raise InvalidInputError(f"{path}: blocks must have 3 points: {ln!r}")
            blocks.append(parts)
        else:
            raise InvalidInputError(f"{path}: unrecognized line {ln!r}")
    return OrbitCubeInput(v=v, generators=tuple(gens), base_blocks=tuple(blocks))


def save_orbit_input(inp: OrbitCubeInput, path: str | Path) -> None:
    lines = [f"orbitcube v={inp.v}"]
    for g in inp.generators:
        lines.append("gen " + format_cycles(g))
    for b in inp.base_blocks:
        lines.append("block " + " ".join(str(x + 1) for x in b))
    Path(path).write_text("\n".join(lines) + "\n")
