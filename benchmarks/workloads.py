"""The four workloads: inputs made from the seed, the child spec, output checks.

Each workload fixes its problem size, so the work of one repetition (in the
workload's own unit) does not depend on what the code does.  ``check``
returns the problems found in one repetition's artifacts; an empty list
means the output is correct.  Reference values come from the program's own
scalar kernel composed directly here, so a later batched kernel that
changes last bits still passes while a wrong answer does not.
"""

from __future__ import annotations

import csv
import json
import math
import random
from pathlib import Path

import chl

# Agreement required between the program's output and direct scalar composition.
ABS_TOL = 1e-10
# Relative agreement of a certified mean shift with drift(params, 1.0).
MEAN_SHIFT_RTOL = 1e-8
_MAX_PANELS = 10_000

VERIFY_CHECKS = (
    "quad_mean_shift",
    "quad_squared_shift",
    "quad_squared_deriv",
    "slit_convergence_rate",
    "farfield_expansion",
    "shift_commutation",
    "disk_conjugation",
    "martingale_zero_mean",
    "forward_backward_equidistribution",
    "second_deriv_decay",
)


class Workload:
    """Base: a CLI command run in a child interpreter, checked from its artifacts."""

    name = ""
    why = ""
    unit = ""

    def __init__(self, seed: int, tiny: bool, work_dir: Path) -> None:
        self.seed = seed
        self.tiny = tiny
        self.work_dir = work_dir

    def argv(self, out: Path, threads: int) -> list[str]:
        raise NotImplementedError

    def spec(self, out: Path, threads: int) -> dict:
        return {"kind": "cli", "argv": self.argv(out, threads)}

    def check(self, out: Path) -> list[str]:
        raise NotImplementedError


class VerifySuite(Workload):
    name = "verify-suite"
    why = ("chl verify, the command users run to certify; the only workload that runs the "
           "process evaluators; half its time is one MC check (checks pin their own seeds)")
    unit = "checks"

    def __init__(self, seed, tiny, work_dir):
        super().__init__(seed, tiny, work_dir)
        self.checks = ("quad_mean_shift", "disk_conjugation") if tiny else VERIFY_CHECKS
        self.work = len(self.checks)

    def argv(self, out, threads):
        only = [arg for name in self.checks for arg in ("--only", name)] if self.tiny else []
        return ["verify", "--threads", str(threads), "--seed", str(self.seed),
                "--out", str(out), *only]

    def check(self, out):
        report = json.loads((out / "report.json").read_text())
        names = tuple(c["check"] for c in report["checks"])
        problems = [] if names == self.checks else [f"ran checks {names}, expected {self.checks}"]
        problems += [f"check {c['check']} FAILED" for c in report["checks"] if not c["pass"]]
        return problems


class ConvergeCoupling(Workload):
    name = "converge-coupling"
    why = ("chl converge at 2000 replicas: MC pool and event sampling heavy, one point "
           "pushed through a sequential chain of cyl_slit and halfplane_slit maps per replica")
    unit = "replicas"

    def __init__(self, seed, tiny, work_dir):
        super().__init__(seed, tiny, work_dir)
        self.n_list = [4.0, 8.0] if tiny else [4.0, 8.0, 16.0, 32.0]
        self.replicas = 64 if tiny else 2000
        self.horizon = 0.5
        self.work = self.replicas

    def argv(self, out, threads):
        return ["converge", "--n-list", ",".join(f"{n:g}" for n in self.n_list),
                "--replicas", str(self.replicas), "--t", str(self.horizon),
                "--threads", str(threads), "--seed", str(self.seed), "--out", str(out)]

    def check(self, out):
        with open(out / "coupling.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        got = [float(r["mean_square_distance"]) for r in rows]
        want = self._reference_means()
        if len(got) != len(want):
            return [f"coupling.csv has {len(got)} radii, expected {len(want)}"]
        return [f"N={n:g}: mean {g!r} differs from direct composition {w!r}"
                for n, g, w in zip(self.n_list, got, want) if not abs(g - w) <= ABS_TOL]

    def _reference_means(self) -> list[float]:
        """Mean sup-distance per radius over all replicas, composed map by map here."""
        lam, z = 1.0, 1j
        master_params = chl.CylinderParams(self.n_list[-1], lam)
        sums = [0.0] * len(self.n_list)
        for r in range(self.replicas):
            master = chl.sample_events(master_params, self.horizon, chl.mix_seed(self.seed, r))
            for j, n in enumerate(self.n_list):
                sub = chl.restrict_log(master, math.pi * n)
                w_chl = w_shl = complex(z)
                sup = 0.0
                for e in sub.events:
                    w_chl = chl.cyl_slit(sub.params, e.x, w_chl)
                    w_shl = chl.halfplane_slit(lam, e.x, w_shl)
                    sup = max(sup, abs(w_chl - w_shl) ** 2)
                sums[j] += sup
        return [s / self.replicas for s in sums]


class RenderCluster(Workload):
    name = "render-cluster"
    why = ("chl render of about 377 events: the O(n^2) cluster trace, nearly all of it "
           "cyl_slit applying one map to many points; no MC and no quadrature")
    unit = "point-maps"

    samples = 16
    checked_particles = 16

    def __init__(self, seed, tiny, work_dir):
        super().__init__(seed, tiny, work_dir)
        self.params = chl.CylinderParams(10.0, 1.0)
        self.horizon = 0.5 if tiny else 6.0
        # Poisson(2 pi N t) events: keep the count near its mean so that the
        # O(n^2) cost, and with it wall time, does not swing with the seed.
        mean = self.params.period * self.horizon
        rng = random.Random(f"{self.name}:{seed}")
        while True:
            self.render_seed = rng.randrange(2**63)
            self.log = chl.sample_events(self.params, self.horizon, self.render_seed)
            if tiny or abs(len(self.log) - mean) <= 2.0:
                break
        n = len(self.log)
        self.work = self.samples * n * (n - 1) / 2

    def argv(self, out, threads):
        return ["render", "--n", "10", "--lambda", "1", "--t", str(self.horizon),
                "--seed", str(self.render_seed), "--out", str(out)]

    def check(self, out):
        events = self.log.events
        points: dict[int, list[complex]] = {}
        with open(out / "cluster.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                points.setdefault(int(row["event_index"]), []).append(
                    complex(float(row["re"]), float(row["im"])))
        if sorted(points) != list(range(len(events))):
            return [f"cluster.csv has {len(points)} particles, expected {len(events)}"]
        if not (out / "cluster.svg").is_file():
            return ["cluster.svg missing"]
        rng = random.Random(f"check:{self.seed}")
        picks = rng.sample(range(len(events)), min(self.checked_particles, len(events)))
        problems = []
        for k in sorted(picks):
            want = self._particle(k)
            got = points[k]
            worst = max(chl.cylinder_dist(self.params, a, b) for a, b in zip(got, want))
            if len(got) != len(want) or not worst <= ABS_TOL:
                problems.append(f"particle {k}: {worst!r} from direct composition")
        return problems

    def _particle(self, k: int) -> list[complex]:
        """Particle k's slit segment pushed through the maps of the later events."""
        p, events = self.params, self.log.events
        steps = self.samples - 1
        pts = [complex(events[k].x, p.lam * j / steps) for j in range(self.samples)]
        for e in events[k + 1:]:
            pts = [chl.cyl_slit(p, e.x, w) for w in pts]
        return pts


class QuadSweep(Workload):
    name = "quad-sweep"
    why = ("library quadratures at tol 1e-12 over a seeded grid of N and z (one z, many x); "
           "measures quadrature, which is about 6% of verify-suite; no sampling, MC or render")
    unit = "integrals"

    tol = 1e-12
    radii = (2.0, 4.0, 8.0, 16.0, 32.0)

    def __init__(self, seed, tiny, work_dir):
        super().__init__(seed, tiny, work_dir)
        per_band = 1 if tiny else 18
        rng = random.Random(f"{self.name}:{seed}")
        items = []
        for n in self.radii:
            half = math.pi * n
            for band in ("boundary", "interior", "high"):
                for _ in range(per_band):
                    x = half * (2.0 * rng.random() - 1.0)
                    fns = ["quad_mean_shift", "quad_squared_shift"]
                    if band == "boundary":
                        y = 0.0
                    elif band == "interior":
                        y = 0.05 + (n - 0.05) * rng.random()
                        fns.append("quad_squared_deriv")
                    else:
                        # Above about 8N (at N = 32) the integrand's rounding
                        # noise, |z| * eps per point over a 2 pi N period,
                        # exceeds tol=1e-12 and the quadrature caps; the band
                        # stays below that floor so it times certified work.
                        y = n * (1.0 + 3.0 * rng.random())
                    items.append({"N": n, "lam": 1.0, "z": [x, y], "fns": fns})
        self.grid_path = work_dir / "quad_grid.json"
        self.grid_path.write_text(json.dumps({"tol": self.tol, "items": items}))
        self.work = sum(len(it["fns"]) for it in items)

    def spec(self, out, threads):
        return {"kind": "quad", "grid": str(self.grid_path), "out": str(out)}

    def check(self, out):
        rows = json.loads((out / "quad.json").read_text())["results"]
        if len(rows) != self.work:
            return [f"{len(rows)} quadratures written, expected {self.work}"]
        problems = []
        for row in rows:
            where = f"{row['fn']} N={row['N']:g} z={complex(*row['z'])}"
            if not row["converged"] or row["panels"] >= _MAX_PANELS:
                problems.append(f"{where}: not certified ({row['panels']} panels)")
            if row["fn"] == "quad_mean_shift":
                target = chl.drift(chl.CylinderParams(row["N"], 1.0), 1.0)
                rel = abs(complex(*row["value"]) - target) / abs(target)
                if not rel <= MEAN_SHIFT_RTOL:
                    problems.append(f"{where}: mean shift {rel:.3g} relative from drift")
        return problems


WORKLOADS = {w.name: w for w in (VerifySuite, ConvergeCoupling, RenderCluster, QuadSweep)}
