"""The data-generation tools regenerate the bundled files byte for byte, and
the benchmark tool alternates the two checkouts it compares."""

import importlib.util
import json
from pathlib import Path

from symcube.datafiles import data_dir

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load_tool(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_gen_groups16_regenerates_bundled_groups(tmp_path, monkeypatch):
    tool = _load_tool("gen_groups16")
    monkeypatch.setattr(tool, "OUT_DIR", tmp_path)
    tool.main()
    bundled = sorted((data_dir() / "groups16").glob("id*.group"))
    assert len(bundled) == 14
    assert sorted(p.name for p in tmp_path.iterdir()) == [p.name for p in bundled]
    for path in bundled:
        assert (tmp_path / path.name).read_bytes() == path.read_bytes()


def test_gen_bundled_data_regenerates_bundled_files(tmp_path, monkeypatch):
    tool = _load_tool("gen_bundled_data")
    monkeypatch.setattr(tool, "DATA", tmp_path)
    tool.main()
    for name in ("designs/fano_a1.design", "designs/f21_nondev.design", "orbit/ngc_example.orbit"):
        assert (tmp_path / name).read_bytes() == (data_dir() / name).read_bytes()


def test_bench_alternates_the_checkouts(tmp_path, monkeypatch):
    tool = _load_tool("bench_reproduce")
    change, parent = tmp_path / "change", tmp_path / "parent"
    change.mkdir()
    parent.mkdir()
    monkeypatch.setattr(tool, "ROOT", change)
    monkeypatch.setattr(tool, "FAST", ["fano"])
    runs = []

    def stub(name, argv, root):
        runs.append((name, root))
        wall = 1.0 + len(runs) if root == change else 10.0 + len(runs)
        return {"name": name, "exit": 0, "wall_s": wall, "peak_rss_mb": 30.0, "last_line": ""}

    monkeypatch.setattr(tool, "measure", stub)
    assert tool.main(["test", "--parent", str(parent)]) == 0
    # per measurement and sample, the side that goes first alternates
    order = [change, parent, parent, change, change, parent]
    names = ["reproduce fano", "reproduce table1", "tier-1"]
    assert runs == [(name, root) for name in names for root in order]
    report = json.loads((change / "BENCH_test.json").read_text())
    assert [r["name"] for r in report["runs"]] == names
    first = report["runs"][0]
    assert first["wall_samples_s"] == [2.0, 5.0, 6.0] and first["wall_s"] == 5.0
    assert first["parent"]["wall_samples_s"] == [12.0, 13.0, 16.0]
    assert first["parent"]["wall_s"] == 13.0 and first["parent"]["exit"] == 0
    assert "parent_commit" in report


def test_bench_without_a_parent_measures_one_checkout(tmp_path, monkeypatch):
    tool = _load_tool("bench_reproduce")
    monkeypatch.setattr(tool, "ROOT", tmp_path)
    monkeypatch.setattr(tool, "FAST", [])
    roots = []

    def stub(name, argv, root):
        roots.append(root)
        return {"name": name, "exit": 0, "wall_s": 1.0, "peak_rss_mb": 30.0, "last_line": ""}

    monkeypatch.setattr(tool, "measure", stub)
    assert tool.main(["solo"]) == 0
    assert roots == [tmp_path] * 2 * tool.SAMPLES  # table1 and tier-1
    report = json.loads((tmp_path / "BENCH_solo.json").read_text())
    assert all("parent" not in r for r in report["runs"]) and "parent_commit" not in report
