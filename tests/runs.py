"""The CLI's reference runs: one table that CI's reruns and the reference test read.

``RUNS`` maps a run's name to its ``chl`` command line, without ``--out``,
and to the artifacts of it that ``tests/reference/`` holds (none for a run
only CI reruns).  An argument ``{events}`` is the ``events.jsonl`` that
``render --input`` reads: the ``events`` run's own log unless given.  Run
from the root of a checkout, with that checkout's src on PYTHONPATH,

    PYTHONPATH=src python tests/runs.py OUT [EVENTS]

runs every command, in order, as ``python -m chl.cli ... --out OUT/<name>``,
and ``{events}`` reads EVENTS, by default ``OUT/events/events.jsonl``;
passes that are compared with ``diff -r`` share one, since ``config.json``
echoes the path.  A command that exits non-zero or writes anything to stderr
(a warning, or finalization noise such as "Exception ignored in ...", which
exits 0) stops the runner with exit 1, naming it; its stderr is echoed.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

# name: (command line, artifacts held); the converge runs take the default seed
RUNS = {
    "events": (["simulate", "--n", "10", "--lambda", "1", "--t", "3", "--seed", "7"], []),
    "simulate": (["simulate", "--n", "10", "--t", "3", "--seed", "7", "--probe", "0+1i",
                  "--trajectory"], ["trajectory.csv"]),
    # real probes: the axis path of the slit map
    "simulate_axis": (["simulate", "--n", "10", "--t", "3", "--seed", "7", "--probe", "0.5+0i",
                       "--probe", "3", "--trajectory"], ["trajectory.csv"]),
    "verify": (["verify"], ["report.json", "rate_farfield_expansion.csv",
                            "rate_quad_squared_shift.csv", "rate_second_deriv_decay.csv"]),
    # the quadrature reports at tol 1e-12
    **{check: (["verify", "--only", check, "--tol", "1e-12"], ["report.json"])
       for check in ("quad_mean_shift", "quad_squared_shift", "quad_squared_deriv")},
    # the second-derivative reports, at the default tol 1e-10 and at 1e-12
    "second_deriv_decay": (["verify", "--only", "second_deriv_decay"], ["report.json"]),
    "second_deriv_decay_12": (["verify", "--only", "second_deriv_decay", "--tol", "1e-12"],
                              ["report.json"]),
    "coupling_decay": (["verify", "--only", "coupling_decay"], ["report.json"]),
    "converge": (["converge", "--n-list", "4,8", "--replicas", "64"],
                 ["converge.json", "coupling.csv"]),
    "converge_128": (["converge", "--n-list", "4,8,16,32,64,128", "--replicas", "200"],
                     ["converge.json", "coupling.csv"]),
    # the masked column steps: the SHL's window columns, and a boundary probe's points,
    # which enter disk coordinates at different maps
    "converge_window": (["converge", "--n-list", "4,8,16", "--replicas", "200", "--window", "2"],
                        ["converge.json", "coupling.csv"]),
    "converge_boundary": (["converge", "--n-list", "4,8,16", "--replicas", "200",
                           "--probe", "0.5+0i"], ["converge.json", "coupling.csv"]),
    "converge_5000": (["converge", "--n-list", "4,8,16,32", "--replicas", "5000", "--t", "0.5"],
                      ["converge.json", "coupling.csv"]),
    "render": (["render", "--n", "10", "--lambda", "1", "--t", "3", "--seed", "1234"],
               ["cluster.csv"]),
    "render_n1": (["render", "--n", "1", "--lambda", "1", "--t", "3", "--seed", "5"],
                  ["cluster.csv"]),
    "render_forward": (["render", "--input", "{events}", "--forward"], ["cluster.csv"]),
    # a tall cluster on a thin cylinder: heights near 110, where the render guard bites
    "render_tall": (["render", "--n", "0.1", "--lambda", "1", "--t", "200", "--seed", "1"],
                    ["cluster.csv"]),
}


def command(name: str, out: Path, events: Path | None = None) -> list[str]:
    """The arguments of run ``name`` writing to ``out/name``; ``{events}`` reads ``events``,
    by default the ``events`` run's log under ``out``."""
    events = events or out / "events" / "events.jsonl"
    return [a.replace("{events}", str(events)) for a in RUNS[name][0]] + ["--out", str(out / name)]


def main(args: list[str]) -> int:
    if not 1 <= len(args) <= 2:
        print("usage: python tests/runs.py OUT [EVENTS]", file=sys.stderr)
        return 2
    out, events = Path(args[0]), (Path(args[1]) if len(args) == 2 else None)
    for name in RUNS:
        argv = command(name, out, events)
        done = subprocess.run([sys.executable, "-m", "chl.cli", *argv], stderr=subprocess.PIPE)
        sys.stderr.buffer.write(done.stderr)
        sys.stderr.flush()
        if done.returncode or done.stderr:
            print(f"runs.py: 'chl {' '.join(argv)}' exited with {done.returncode} and wrote "
                  f"{len(done.stderr)} bytes to stderr", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
