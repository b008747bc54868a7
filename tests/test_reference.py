"""Reference artifacts: the numeric fields of the CLI's runs, held across commits.

``tests/reference/`` holds one file per held artifact of ``runs.RUNS``, named
by the artifact, and by the run too where the run is not named after its command
(``converge_window_coupling.csv``): its first line is the command that made
it, then a table of its numbers at 17 significant digits, one ``field,value``
row per number of a JSON file, or a CSV file's rows (every k-th, by
``_STRIDE``, of the long ones), each led by its row number.  The test reruns
each command in process and compares every field within a bound, not bit for
bit, since numpy's transcendental functions may differ in the last bits
between versions and CPUs:

* rounding residuals (``_RESIDUALS``) within 1e-12 absolute;
* points (a CSV row's ``re`` and ``im``) within 1e-10 as cylinder points of the run's
  radius (``_RADIUS``, else 10);
* every other number within 1e-12 relative, or ``_WIDE``'s wider bound.

A change that moves a value beyond its bound rewrites the files with

    PYTHONPATH=src python tests/test_reference.py

and names each moved field, with its deviation, in CHANGES.md.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from pathlib import Path

import pytest

from chl.cli import main
from chl.conformal import CylinderParams, cylinder_dist
from runs import RUNS, command

REFERENCE = Path(__file__).parent / "reference"

# CSV rows kept by run and artifact: every k-th; an odd k over cluster.csv's 16 points a
# particle keeps points of every index
_STRIDE = {("render", "cluster.csv"): 16, ("render_tall", "cluster.csv"): 37,
           ("render_n1", "cluster.csv"): 7, ("render_forward", "cluster.csv"): 37,
           ("simulate_axis", "trajectory.csv"): 7}

# fields that measure rounding error, near 0, so only an absolute bound means anything;
# fixed_z_slope fits values equal to 1e-4, so an ulp in them moves it by about 1e-11 relative
_RESIDUALS = {"max_abs_error", "max_cylinder_distance", "max_rel_error", "small_lambda_abs",
              "offset", "fixed_z_slope"}
# a coupling mean moves by up to 4.5e-15 between CPUs (README): 1e-12 of a mean of 5e-3
_WIDE = {"means": 1e-11, "mean_square_distance": 1e-11}
# the cylinder of a run's points, where it is not N = 10
_RADIUS = {"render_tall": 0.1, "render_n1": 1.0}


def _flat(value, path: str = ""):
    """(field, number) of every number in a JSON value; a check's list entry is named by it."""
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _flat(value[key], f"{path}/{key}" if path else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _flat(item, f"{path}[{item.get('check', i) if isinstance(item, dict) else i}]")
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield path, float(value)


def _table(path: Path, stride: int = 1) -> tuple[list[str], list[list]]:
    """The numbers of the artifact at ``path`` as a header and rows: ``field,value`` of a JSON
    file, or every ``stride``-th row of a CSV file, each led by its row number."""
    if path.suffix == ".json":
        return ["field", "value"], [list(item) for item in _flat(json.loads(path.read_text()))]
    header, *rows = path.read_text().splitlines()
    return ["row"] + header.split(","), [[k] + [float(v) for v in row.split(",")]
                                         for k, row in enumerate(rows) if k % stride == 0]


def _fields(header: list[str], rows: list[list]) -> dict[str, float]:
    """Every number of a table, by field: a JSON field, or ``row k/column``."""
    if header[0] == "field":
        return {field: float(v) for field, v in rows}
    return {f"row {int(r[0])}/{name}": float(v) for r in rows for name, v in zip(header[1:], r[1:])}


def _reference_file(name: str, artifact: str) -> Path:
    stem = artifact.split(".")[0]
    return REFERENCE / ((stem if name == RUNS[name][0][0] else f"{name}_{stem}") + ".csv")


def _read_reference(name: str, artifact: str) -> dict[str, float]:
    _, header, *lines = _reference_file(name, artifact).read_text().splitlines()
    return _fields(header.split(","), [ln.split(",") for ln in lines])


def _deviations(artifact: str, want: dict, got: dict, points: CylinderParams) -> list[str]:
    """One line per field of ``want`` that ``got`` lacks or that moved beyond its bound; a
    point is compared on the cylinder ``points``."""
    if missing := sorted(want.keys() ^ got.keys()):
        return [f"{artifact}: fields added or missing: {missing[:5]}"]
    bad = []
    for field, ref in want.items():
        stem, _, leaf = field.rpartition("/")
        leaf = re.sub(r"\[.*\]$", "", leaf)
        if leaf == "im" and f"{stem}/re" in want:
            continue  # compared with its re
        now = got[field]
        if leaf == "re" and f"{stem}/im" in want:
            ref, now = complex(ref, want[f"{stem}/im"]), complex(now, got[f"{stem}/im"])
            dev, bound, kind = float(cylinder_dist(points, now, ref)), 1e-10, "cylinder distance"
        elif leaf in _RESIDUALS:
            dev, bound, kind = abs(now - ref), 1e-12, "absolute"
        else:
            bound = _WIDE.get(leaf, 1e-12)
            dev, kind = abs(now - ref) / max(abs(ref), 1e-300), "relative"
        if not dev <= bound:
            bad.append(f"{artifact} {field}: {kind} deviation {dev:.3g} > {bound:g} "
                       f"({now!r} against {ref!r})")
    return bad


def _run(name: str, out: Path) -> Path:
    """Run ``name`` in process into ``out/name``, after the ``events`` run if it reads that log."""
    if "{events}" in RUNS[name][0]:
        _run("events", out)
    argv = command(name, out)
    assert main(argv) == 0, f"chl {' '.join(argv)} failed"
    return out / name


@pytest.mark.parametrize("name", sorted(name for name, (_, held) in RUNS.items() if held))
def test_artifacts_match_reference(name, tmp_path, monkeypatch):
    monkeypatch.delenv("CHL_SEED", raising=False)
    out, points = _run(name, tmp_path), CylinderParams(_RADIUS.get(name, 10.0), 1.0)
    bad = [line for artifact in RUNS[name][1] for line in _deviations(
        artifact, _read_reference(name, artifact),
        _fields(*_table(out / artifact, _STRIDE.get((name, artifact), 1))), points)]
    assert not bad, "\n".join(bad)


def test_reference_set_is_small():
    assert sum(p.stat().st_size for p in REFERENCE.iterdir()) < 64_000


def test_reference_set_is_the_held_artifacts():
    # no orphan file, and no held artifact without its file or sharing one
    held = [_reference_file(name, artifact).name
            for name, (_, artifacts) in RUNS.items() for artifact in artifacts]
    assert len(set(held)) == len(held)
    assert sorted(p.name for p in REFERENCE.iterdir()) == sorted(held)


def _write_references() -> None:
    """Rerun every command of ``RUNS`` and rewrite its reference files."""
    REFERENCE.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, (argv, artifacts) in RUNS.items():
            out = _run(name, Path(tmp))
            for artifact in artifacts:
                header, rows = _table(out / artifact, _STRIDE.get((name, artifact), 1))
                lines = [f"# chl {' '.join(argv)}: {artifact}", ",".join(header)]
                lines += [",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row)
                          for row in rows]
                _reference_file(name, artifact).write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    os.environ.pop("CHL_SEED", None)
    _write_references()
