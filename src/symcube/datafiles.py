"""Access to the bundled data directory (override with SYMCUBE_DATA)."""

from __future__ import annotations

import os
from pathlib import Path

from .fileio import load_group
from .groups import FiniteGroup, make_metacyclic

__all__ = ["data_dir", "load_group_16", "all_groups_16", "frobenius_21", "nonabelian_27"]


def data_dir() -> Path:
    override = os.environ.get("SYMCUBE_DATA")
    if override:
        return Path(override)
    return Path(__file__).parent / "data"


def load_group_16(gid: int) -> FiniteGroup:
    if not 1 <= gid <= 14:
        raise ValueError("order-16 group IDs run from 1 to 14")
    return load_group(data_dir() / "groups16" / f"id{gid:02d}.group")


def all_groups_16() -> list[FiniteGroup]:
    return [load_group_16(gid) for gid in range(1, 15)]


def frobenius_21() -> FiniteGroup:
    """F21 with the presentation relation b a = a b^2."""
    g = make_metacyclic(3, 7, 2)
    g.name = "F21"
    return g


def nonabelian_27() -> FiniteGroup:
    """The order-27 group Z9 x| Z3 carrying two inequivalent (27,13,6)
    difference sets."""
    g = make_metacyclic(3, 9, 4)
    g.name = "Z9:Z3"
    return g
