"""Golden ``cli serve --json`` outputs across every serving topology.

Each case runs ``serve --json --measure-only`` in-process on a small,
seeded workload and compares the output with ``data/cli_serve_golden.json``:

* the full set of JSON key paths (list elements collapse to ``[]``);
* every value except the wall-clock ones: ``compose_*_s``,
  ``revalue_s``, the ``total_ms`` / ``failed_ms`` latency summaries and
  the ``attribution`` tables (all of which include compose wall time).

What remains is counters and simulated-device time, which are
deterministic, so the comparison is exact.  The matrix covers single
node, ``--batch`` and ``--shards`` topologies with plain, fault-injecting
and format-drifting devices, plus the GNN graph workload on one node and
on two shards.
"""

from __future__ import annotations

import io
import json
import re
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.core import LiteForm, generate_training_data
from repro.core.persistence import save_liteform
from repro.matrices import SuiteSparseLikeCollection

GOLDEN = Path(__file__).parent / "data" / "cli_serve_golden.json"

_ZIPF = ["--requests", "40", "--matrices", "6", "--max-rows", "2000", "--J-values", "32,64"]
_GNN = ["--workload", "gnn", "--layers", "2", "--epochs", "2", "--feature-dim", "16"]
_TOPOLOGIES = {
    "single": [],
    "batch4": ["--batch", "4"],
    "shards2": ["--shards", "2", "--replication", "2"],
}
_DEVICES = {
    "plain": [],
    "faults": ["--faults", "0.1", "--devices", "2"],
    "drift": ["--drift-after", "20", "--adaptive"],
}
CASES = {
    f"{t}-{d}": _ZIPF + targs + dargs
    for t, targs in _TOPOLOGIES.items()
    for d, dargs in _DEVICES.items()
}
CASES["gnn-single"] = _GNN
CASES["gnn-shards2"] = _GNN + ["--shards", "2"]

_WALL = re.compile(r"^(compose_\w*_s|revalue_s|total_ms|failed_ms|attribution)$")


def key_paths(obj, prefix: str = "") -> set[str]:
    """Every key path of a JSON value; list elements collapse to ``[]``.
    Wall-clock fields count as keys but are not descended into (which
    shards reach the attribution tail depends on wall time)."""
    if isinstance(obj, dict):
        out = set()
        for k, v in obj.items():
            path = f"{prefix}.{k}" if prefix else k
            out |= {path} if _WALL.match(k) else {path} | key_paths(v, path)
        return out
    if isinstance(obj, list):
        return set().union(*(key_paths(v, f"{prefix}[]") for v in obj)) if obj else set()
    return set()


def pinned_values(obj, prefix: str = "") -> dict:
    """``{path: value}`` for every leaf outside the wall-clock fields."""
    if isinstance(obj, dict):
        out = {}
        for k, v in obj.items():
            if not _WALL.match(k):
                out.update(pinned_values(v, f"{prefix}.{k}" if prefix else k))
        return out
    if isinstance(obj, list):
        out = {}
        for i, v in enumerate(obj):
            out.update(pinned_values(v, f"{prefix}[{i}]"))
        return out
    return {prefix: obj}


def run_case(args: list[str], models: Path) -> dict:
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli_main(["serve", "--json", "--measure-only", "--models", str(models), *args])
    assert rc == 0
    out = json.loads(buf.getvalue())
    return {"keys": sorted(key_paths(out)), "values": pinned_values(out)}


@pytest.fixture(scope="module")
def models(tmp_path_factory) -> Path:
    coll = SuiteSparseLikeCollection(size=6, max_rows=2000, seed=3)
    lf = LiteForm().fit(generate_training_data(coll, J_values=(32,)))
    path = tmp_path_factory.mktemp("golden") / "m.pkl"
    save_liteform(lf, path)
    return path


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_serve_json_matches_golden(case, models, golden):
    got = run_case(CASES[case], models)
    want = golden[case]
    assert got["keys"] == want["keys"]
    assert got["values"] == want["values"]
