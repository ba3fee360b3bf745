"""The data-generation tools regenerate the bundled files byte for byte."""

import importlib.util
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
