"""Seeded inputs, jobs and independent oracles for the four workloads.

A workload is a fixed list of jobs built from a seed.  Each job is one call
into the program, either ``contactcurves.cli.main(argv)`` with stdout and
stderr captured in memory or, for ``families``, the library calls that
``cmd_analyze`` makes.  Each job carries the exit code it must return, an
oracle that checks its output against values computed here without the
program's analysis code, and a count of the work it completes (grid
samples, scan cells or descent steps times vertices).

Known defects stay in the job lists with their correct expectations; they
are named in ``KNOWN_DEFECTS`` and fail their oracle until the program is
fixed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

import numpy as np

# Job keys (the same for every seed) whose oracle fails at the time the
# benchmark was written, with the defect each one shows.
KNOWN_DEFECTS = {
    "analyze:three-circle:256": (
        "analyze exits 2 'jet order exhausted' on the r=7 three-circle curve"
    ),
    "flow:geodesic.txt:0,1": (
        "flow reads geodesic.txt as a closed loop: step-0 energy 83443, "
        "residual 202909 instead of about 0"
    ),
}

# Tolerances of the oracles.
RHO_TOL = 1e-8          # analyze: case formula vs closed-form invariants
ROUTE_GAP_TOL = 1e-6    # families: direct vs closed-form residual route
SCAN_RHO_TOL = 1e-12    # scan: rho recomputed from the README formulas
TWIN_TOL = 1e-12        # generated curve file vs its families twin

FLOW_GRID = 64          # polyline vertices of every flow job
# values of c the seed draws from; c = 1 is left out, it makes every curve case I
C_VALUES = (-3.0, -2.0, -0.5, 2.0, 4.0)


@dataclass
class Outcome:
    """What one job returned: exit code, captured streams, library result."""

    exit_code: int | None
    stdout: str
    stderr: str
    value: object = None


@dataclass
class Job:
    key: str
    kind: str
    run: Callable[[], Outcome]
    expected_exit: int
    check: Callable[[Outcome], str | None]   # None when the output is right
    work: Callable[[Outcome], int]
    render: Callable[[Outcome], bytes]       # bytes compared for drift


def import_program():
    """Import contactcurves afresh and return its modules.

    Every contactcurves module is dropped from sys.modules first, so each
    call pays the package's own import cost again (numpy stays loaded).
    """
    for name in [m for m in sys.modules
                 if m == "contactcurves" or m.startswith("contactcurves.")]:
        del sys.modules[name]
    import contactcurves
    from contactcurves import (analysis, cli, curves, discrete, expressions,
                               families, jets, model, reporting)
    return SimpleNamespace(
        package=contactcurves, analysis=analysis, cli=cli, curves=curves,
        discrete=discrete, expressions=expressions, families=families,
        jets=jets, model=model, reporting=reporting,
    )


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _num(x):
    return f"({float(x)!r})"


# ---------------------------------------------------------------------------
# CLI jobs


def _cli_runner(P, argv):
    def run():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = P.cli.main(argv)
            except SystemExit as exc:       # argparse rejects the arguments
                code = exc.code
        return Outcome(code, out.getvalue(), err.getvalue())
    return run


def _stdout_bytes(outcome):
    return outcome.stdout.encode()


def _cli_job(P, key, kind, argv, expected_exit, check, work):
    return Job(key, kind, _cli_runner(P, argv), expected_exit, check, work,
               _stdout_bytes)


# ---------------------------------------------------------------------------
# curve files with closed-form z


@dataclass(frozen=True)
class Rotor:
    """One rotating component a * e^{i(w t + phase)} of a families curve."""

    amp: float
    freq: float
    phase: float

    def z_terms(self):
        """Expression terms of integral_0^t y x' ds for this component.

        With x = -(2a/w) cos(w s + p) and y = (2a/w) sin(w s + p),
        y x' = (2a^2/w)(1 - cos(2 w s + 2 p)); a zero frequency gives
        x = 2a sin(p) s, y = 2a cos(p) s and y x' = 2 a^2 sin(2p) s.
        """
        a, w, p = self.amp, self.freq, self.phase
        if a == 0.0:
            return []
        if w == 0.0:
            return [f"{_num(a * a * math.sin(2 * p))}*t^2"]
        A = 2 * a * a / w
        B = A / (2 * w)
        return [f"{_num(A)}*t", f"-{_num(B)}*sin({_num(2 * w)}*t+{_num(2 * p)})",
                _num(B * math.sin(2 * p))]


def _closed_form_z(rotors, scale=1.0):
    terms = [t for r in rotors for t in r.z_terms()]
    if not terms:
        return "0"
    z = "+".join(terms)
    return z if scale == 1.0 else f"{_num(scale)}*({z})"


def _profile_texts(spec):
    n = spec.n
    return [c.text for c in spec.coords[:2 * n]]


def _write_curve(path, n, coords, header=None):
    lines = ["# generated by perfbench from a seeded families curve",
             header if header is not None else f"n={n}"]
    path.write_text("\n".join(lines + list(coords)) + "\n")


def _check_twin(P, path, twin):
    """Raise unless the file's coordinates match the library twin's."""
    spec = P.cli.load_curve_file(path)
    ts = np.linspace(-1.0, 2.0 * np.pi, 41)
    got, want = spec.point(ts), twin.point(ts)
    gap = float(np.max(np.abs(got - want)))
    if not gap <= TWIN_TOL * max(1.0, float(np.max(np.abs(want)))):
        raise RuntimeError(
            f"generated curve file {path.name} differs from its families "
            f"twin by {gap:.3e}"
        )


def _two_exp_rotors(theta, mu, nu, phase1, phase2):
    return [Rotor(math.cos(theta), mu, phase1), Rotor(math.sin(theta), nu, phase2)]


# ---------------------------------------------------------------------------
# analyze-mix


def _analyze_check(expect):
    """Oracle for an analyze report: r, class, case and rho."""
    def check(outcome):
        rep = json.loads(outcome.stdout)
        got = (rep["frenet"]["r"], rep["class"], rep["case"])
        want = (expect["r"], expect["class"], expect["case"])
        if got != want:
            return f"(r, class, case) = {got}, expected {want}"
        if rep["rho"] is None or abs(rep["rho"] - expect["rho"]) > RHO_TOL * max(1.0, abs(expect["rho"])):
            return f"rho = {rep['rho']}, expected {expect['rho']!r}"
        return None
    return check


def _high_order_check(r, m):
    def check(outcome):
        rep = json.loads(outcome.stdout)
        got = (rep["frenet"]["r"], rep["frenet"]["m"])
        return None if got == (r, m) else f"(r, m) = {got}, expected {(r, m)}"
    return check


def _exit2_check(phrase):
    def check(outcome):
        if outcome.stdout:
            return "exit-2 job wrote a report to stdout"
        if phrase not in outcome.stderr:
            return f"stderr {outcome.stderr.strip()!r} does not name {phrase!r}"
        return None
    return check


def _verify_check(outcome):
    lines = outcome.stdout.splitlines()
    if len(lines) != 10:
        return f"expected 9 checks and a summary, got {len(lines)} lines"
    bad = [ln for ln in lines[:-1] if not ln.startswith("PASS ")]
    if bad or not lines[-1].startswith("verify-example: PASS"):
        return f"not every line passes: {(bad or lines[-1:])[0]!r}"
    return None


def _weights(rng):
    """A seeded weight pair (delta1, delta2), rounded so argv is short."""
    return (round(float(rng.uniform(-10.0, 0.0)), 6),
            round(float(rng.uniform(0.5, 2.0)), 6))


def _grid_work(grid):
    return lambda outcome: grid if outcome.exit_code == 0 else 0


def analyze_mix_jobs(P, rng, workdir, root):
    """analyze and verify-example jobs on generated expression curve files.

    Grid 256 for eleven jobs and 4096 for four; three inputs must exit 2.
    """
    fam = P.families
    c = float(rng.choice(C_VALUES))
    sq = (c + 3.0) / 4.0

    curves = {}   # name -> (path, expectation)

    def add(name, twin, rotors, expect):
        path = workdir / f"{name}.txt"
        coords = _profile_texts(twin) + [_closed_form_z(rotors)]
        _write_curve(path, twin.n, coords)
        _check_twin(P, path, twin)
        curves[name] = (path, expect)

    k1 = float(rng.uniform(0.5, 3.0))
    p1, p2 = (float(v) for v in rng.uniform(0.0, 2 * np.pi, 2))
    inv = fam.two_exp_invariants(np.pi / 4, k1, -k1)
    add("circle", fam.circle(k1, phase1=p1, phase2=p2),
        _two_exp_rotors(np.pi / 4, k1, -k1, p1, p2),
        {"r": inv.r, "class": "circle", "case": "II", "rho": sq - inv.k1 ** 2})

    mu = float(rng.uniform(0.5, 3.0)) * float(rng.choice([-1.0, 1.0]))
    ph = float(rng.uniform(0.0, 2 * np.pi))
    inv = fam.two_exp_invariants(0.0, mu, 0.0)
    add("helix", fam.helix(mu, phase=ph), _two_exp_rotors(0.0, mu, 0.0, ph, 0.0),
        {"r": inv.r, "class": "helix", "case": "III",
         "rho": c - 1.0 - inv.k1 ** 2})

    for name in ("r4a", "r4b"):
        idx = int(rng.integers(0, len(fam.R4_PARAMS)))
        theta, mu, nu = fam.R4_PARAMS[idx]
        if rng.random() < 0.5:
            mu, nu = -mu, -nu
        p1, p2 = (float(v) for v in rng.uniform(0.0, 2 * np.pi, 2))
        inv = fam.two_exp_invariants(theta, mu, nu)
        alpha0 = math.atan2(inv.g_phiT_E4, inv.f)
        rho = (sq + 3.0 * (c - 1.0) / 4.0 * math.cos(alpha0) ** 2
               - inv.k1 ** 2 - inv.k2 ** 2)
        add(name, fam.two_exponential(theta, mu, nu, phase1=p1, phase2=p2),
            _two_exp_rotors(theta, mu, nu, p1, p2),
            {"r": inv.r, "class": "general", "case": "IV", "rho": rho})

    # n = 3, frequencies (L, -L, 0) balanced so f = 0: a case-II helix
    h1, h2 = (float(v) for v in rng.uniform(0.5, 2.5, 2))
    phases = tuple(float(v) for v in rng.uniform(0.0, 2 * np.pi, 3))
    lam = math.hypot(h1, h2)
    s = (h1 / lam) ** 2
    amps = (math.sqrt(s / 2), math.sqrt(s / 2), math.sqrt(1 - s))
    add("orthogonal-helix", fam.orthogonal_helix(h1, h2, phases=phases),
        [Rotor(a, w, p) for a, w, p in zip(amps, (lam, -lam, 0.0), phases)],
        {"r": 3, "class": "helix", "case": "II", "rho": sq - h1 ** 2 - h2 ** 2})

    amps3 = [1.0 / math.sqrt(3.0)] * 3
    add("three-circle", fam.multi_exponential(amps3, [1.0, 2.0, 3.0]),
        [Rotor(a, w, 0.0) for a, w in zip(amps3, (1.0, 2.0, 3.0))], None)

    # inputs that must exit 2
    # a circle's z is constant, so the not-Legendre input drops a helix's z
    k1 = float(rng.uniform(0.5, 3.0))
    rot = _two_exp_rotors(np.pi / 4, k1, -k1, 0.0, 0.0)
    prof = _profile_texts(fam.circle(k1))
    bad = {
        "not-legendre": ([*_profile_texts(fam.helix(k1)), "0"], None,
                         "not Legendre"),
        "not-unit-speed": ([f"0.5*({e})" for e in prof]
                           + [_closed_form_z(rot, 0.25)], None, "not unit speed"),
        "bad-header": ([*prof, _closed_form_z(rot)], "dim=2",
                       "first line must be 'n=<int>'"),
    }
    jobs = []
    for name, (coords, header, phrase) in bad.items():
        path = workdir / f"{name}.txt"
        _write_curve(path, 2, coords, header)
        jobs.append(_cli_job(P, f"analyze:{name}:256", "analyze",
                             ["analyze", "--curve", str(path), "--grid", "256"],
                             2, _exit2_check(phrase), _grid_work(256)))

    def analyze(name, grid):
        path, expect = curves[name]
        d1, d2 = _weights(rng)
        argv = ["analyze", "--curve", str(path), f"--c={c!r}",
                f"--delta1={d1!r}", f"--delta2={d2!r}", "--grid", str(grid)]
        if expect is None:      # the three-circle curve: r = 7, m = 4
            check = _high_order_check(7, 4)
        else:
            check = _analyze_check(expect)
        return _cli_job(P, f"analyze:{name}:{grid}", "analyze", argv, 0, check,
                        _grid_work(grid))

    for name in curves:
        jobs.append(analyze(name, 256))
    for name in ("circle", "r4a", "orthogonal-helix"):
        jobs.append(analyze(name, 4096))

    # the README example: case II, rho = -4 at the default c = -3
    example = str(root / "demos" / "curves" / "example.txt")
    jobs.append(_cli_job(
        P, "analyze:example.txt:256", "analyze",
        ["analyze", "--curve", example, "--delta1=-8", "--delta2", "2"], 0,
        _analyze_check({"r": 2, "class": "circle", "case": "II", "rho": -4.0}),
        _grid_work(256)))
    for grid in (256, 4096):
        jobs.append(_cli_job(P, f"verify-example:{grid}", "verify-example",
                             ["verify-example", "--grid", str(grid)], 0,
                             _verify_check, _grid_work(grid)))
    return jobs


# ---------------------------------------------------------------------------
# families


def _render_families(outcome):
    """Canonical bytes of a families result: the numbers analyze reports."""
    v = outcome.value
    fields = [v["frenet"].r, v["cls"].klass, v["cls"].case,
              v["sol"].rho, v["res"].max_norm, *v["res"].equations,
              *[float(np.mean(k)) for k in v["frenet"].curvatures]]
    return " ".join(format(x, ".17g") if isinstance(x, float) else str(x)
                    for x in fields).encode()


def families_jobs(P, rng, grid=256):
    """cmd_analyze's library call sequence on make_legendre curves."""
    fam, curves, analysis = P.families, P.curves, P.analysis
    tol = 1e-6
    c = float(rng.choice(C_VALUES))

    def job(key, spec, ts, r_expected):
        delta = _weights(rng)

        def run():
            curves.arclength_check(spec, ts)
            frenet = curves.frenet_apparatus(spec, ts, tol=tol, unit_tol=10 * tol)
            scalars = curves.frame_scalars(frenet)
            cls = analysis.classify(frenet, scalars, c, tol=tol)
            res = analysis.residual_direct(spec, ts, c, delta)
            analysis.theorem31_check(frenet, scalars, c, delta, tol=tol)
            sol = analysis.solve_delta(frenet, scalars, c, tol=tol)
            if frenet.r in (2, 3):
                analysis.independence_check(spec, frenet)
            return Outcome(0, "", "", {"frenet": frenet, "scalars": scalars,
                                       "cls": cls, "res": res, "sol": sol})

        def check(outcome):
            v = outcome.value
            if v["frenet"].r != r_expected:
                return f"r = {v['frenet'].r}, expected {r_expected}"
            closed = analysis.residual_closed_form(v["frenet"], v["scalars"], c, delta)
            gap = float(np.max(np.abs(closed.vector - v["res"].vector)))
            v["route_gap"] = gap
            if not gap <= ROUTE_GAP_TOL:
                return f"residual routes differ by {gap:.3e}"
            return None

        return Job(key, "families", run, 0, check, lambda o: ts.size,
                   _render_families)

    jobs = []
    for tag, r in (("r1", 1), ("r2", 2), ("r3", 3), ("r4a", 4), ("r4b", 4)):
        spec, info = fam.random_legendre_curve(rng, r)
        jobs.append(job(f"families:{tag}", spec, curves.sample_grid(spec, grid),
                        info["r"]))
    h1, h2 = (float(v) for v in rng.uniform(0.5, 2.5, 2))
    phases = tuple(float(v) for v in rng.uniform(0.0, 2 * np.pi, 3))
    spec = fam.orthogonal_helix(h1, h2, phases=phases)
    jobs.append(job("families:orthogonal-helix", spec,
                    curves.sample_grid(spec, grid), 3))
    # rational_turn is open and unit speed on all of R: an explicit grid
    spec = fam.rational_turn()
    a, b = float(rng.uniform(-4.0, -2.0)), float(rng.uniform(2.0, 4.0))
    jobs.append(job("families:rational-turn", spec, np.linspace(a, b, grid), 3))
    return jobs


# ---------------------------------------------------------------------------
# scan-sweep

SCAN_HEADER = "case,c,k1,k2,alpha0,rho,constraint,feasible,verdict"


def _scan_expected(case, cs, k1s, k2s, alphas):
    """Rows of the README case formulas on the scan grid, as numpy arrays."""
    if case == "I":
        cs = np.array([1.0])
    if case == "III":
        k2s = np.array([1.0])
    if case != "IV":
        alphas = np.array([0.0])
    C, K1, K2, A = (g.ravel() for g in np.meshgrid(cs, k1s, k2s, alphas,
                                                  indexing="ij"))
    S = K1 ** 2 + K2 ** 2
    if case == "I":
        rho = 1.0 - S
    elif case == "II":
        rho = (C + 3.0) / 4.0 - S
    elif case == "III":
        rho = C - 1.0 - K1 ** 2
    else:
        rho = (C + 3.0) / 4.0 + 3.0 * (C - 1.0) / 4.0 * np.cos(A) ** 2 - S
    constraint = 3.0 * (C - 1.0) * np.sin(2.0 * A)
    return C, K1, K2, rho, constraint


def _scan_check(case, cs, k1s, k2s, alphas):
    def check(outcome):
        lines = outcome.stdout.splitlines()
        if not lines or lines[0] != SCAN_HEADER:
            return "missing scan CSV header"
        rows = list(csv.reader(lines[1:]))
        C, K1, K2, rho, constraint = _scan_expected(case, cs, k1s, k2s, alphas)
        if len(rows) != C.size:
            return f"{len(rows)} rows, expected {C.size}"
        cols = list(zip(*rows))
        if any(v != case for v in cols[0]):
            return "case column differs"
        for name, col, want in (("c", 1, C), ("k1", 2, K1), ("k2", 3, K2)):
            if not np.array_equal(np.array(cols[col], dtype=float), want):
                return f"{name} column differs from the scan grid"
        geo = K1 == 0.0
        got_rho = np.array([float(v) if v else np.nan for v in cols[5]])
        if np.any(np.isnan(got_rho) != geo):
            return "rho must be empty exactly where k1 = 0"
        err = np.abs(got_rho[~geo] - rho[~geo])
        if err.size and not np.max(err) <= SCAN_RHO_TOL:
            return f"rho differs from the case formula by {np.max(err):.3e}"
        if case == "IV":
            feas = np.array([v == "true" for v in cols[7]])
            if np.any(feas[~geo] != (constraint[~geo] < 0.0)):
                return "case IV feasibility disagrees with 3(c-1) sin(2 alpha0) < 0"
        return None
    return check


def scan_sweep_jobs(P, rng):
    """Scans over all four cases plus one ~16 000-cell case-IV sweep.

    The small sweeps have cell counts chosen so that each costs about the
    same; the seed moves the ranges, never the counts.
    """
    def rng_range(lo, hi, count):
        a = round(float(rng.uniform(lo, lo + 0.5)), 6)
        b = round(float(rng.uniform(hi - 0.5, hi)), 6)
        return f"{a!r}:{b!r}:{count}", np.linspace(a, b, count)

    specs = [
        ("IV-large", "IV", (-3.0, 5.0, 20), (0.0, 2.5, 20), (0.0, 2.5, 20), (0.0, 3.0, 2)),
        ("I-a", "I", None, (0.0, 2.0, 40), (0.0, 2.0, 40), None),
        ("I-b", "I", None, (0.5, 1.5, 40), (0.0, 1.0, 40), None),
        ("II-a", "II", (-4.0, 3.0, 10), (0.0, 2.0, 12), (0.0, 2.0, 12), None),
        ("II-b", "II", (-3.0, 6.0, 12), (0.5, 2.5, 12), (0.0, 1.0, 10), None),
        ("III-a", "III", (-3.0, 5.0, 40), (0.0, 2.0, 40), None, None),
        ("III-b", "III", (-1.0, 3.0, 40), (0.5, 2.5, 40), None, None),
        ("IV-a", "IV", (-3.0, 5.0, 8), (0.0, 2.0, 8), (0.0, 1.0, 4), (0.0, 3.0, 4)),
        ("IV-b", "IV", (-2.0, 6.0, 8), (0.5, 2.5, 8), (0.0, 1.0, 4), (-1.5, 1.5, 4)),
    ]
    jobs = []
    for key, case, c_r, k1_r, k2_r, a_r in specs:
        argv = ["scan", "--case", case]
        grids = {}
        for flag, r in (("c", c_r), ("k1", k1_r), ("k2", k2_r), ("alpha0", a_r)):
            if r is None:       # a value the case itself fixes
                grids[flag] = np.zeros(1)
                continue
            text, values = rng_range(*r)
            argv.append(f"--{flag}-range={text}")
            grids[flag] = values
        check = _scan_check(case, grids["c"], grids["k1"], grids["k2"], grids["alpha0"])
        jobs.append(_cli_job(P, f"scan:{key}", "scan", argv, 0, check,
                             lambda o: max(0, o.stdout.count("\n") - 1)))
    return jobs


# ---------------------------------------------------------------------------
# flow


def _flow_rows(outcome):
    lines = [ln for ln in outcome.stdout.splitlines() if not ln.startswith("#")]
    return [[float(v) for v in ln.split(",")] for ln in lines[1:]]


def _flow_check(steps, critical=False):
    """Finite, non-increasing energy with steps+1 rows.

    A critical curve (the straight-line geodesic at weights (0, 1)) starts
    with energy and residual about 0 and may stop early with a diagnostic,
    since it has no descent direction.
    """
    def check(outcome):
        rows = _flow_rows(outcome)
        energy = [r[1] for r in rows]
        if not all(math.isfinite(e) for e in energy):
            return "non-finite energy"
        if any(b > a for a, b in zip(energy, energy[1:])):
            return "energy increases along the descent"
        if critical:
            if abs(energy[0]) > 1e-6 or rows[0][3] > 1e-6:
                return (f"step-0 energy {energy[0]!r} and residual "
                        f"{rows[0][3]!r}, expected about 0")
            if "# stopped:" in outcome.stdout and len(rows) <= steps + 1:
                return None
        if len(rows) != steps + 1:
            return f"{len(rows)} rows, expected {steps + 1}"
        return None
    return check


def flow_jobs(P, rng, root, grid=FLOW_GRID, steps=3):
    """flow on the built-in example and the shipped curve files."""
    curves_dir = root / "demos" / "curves"
    c = float(rng.choice(C_VALUES))
    weight_pairs = {"0,1": (0.0, 1.0), "seeded": _weights(rng)}

    def work(outcome):
        return max(0, len(_flow_rows(outcome)) - 1) * grid

    def job(label, curve, wkey, check):
        d1, d2 = weight_pairs[wkey]
        argv = ["flow", "--grid", str(grid), "--steps", str(steps),
                "--rate", "0.02", f"--c={c!r}", f"--delta1={d1!r}",
                f"--delta2={d2!r}"]
        if curve is not None:
            argv += ["--curve", str(curve)]
        return _cli_job(P, f"flow:{label}:{wkey}", "flow", argv, 0, check, work)

    jobs = []
    for wkey in weight_pairs:
        jobs.append(job("built-in", None, wkey, _flow_check(steps)))
        jobs.append(job("example.txt", curves_dir / "example.txt", wkey,
                        _flow_check(steps)))
    jobs.append(job("geodesic.txt", curves_dir / "geodesic.txt", "0,1",
                    _flow_check(steps, critical=True)))
    return jobs


def build_jobs(P, workload, seed, workdir, root):
    rng = np.random.default_rng(seed)
    if workload == "analyze-mix":
        return analyze_mix_jobs(P, rng, workdir, root)
    if workload == "families":
        return families_jobs(P, rng)
    if workload == "scan-sweep":
        return scan_sweep_jobs(P, rng)
    if workload == "flow":
        return flow_jobs(P, rng, root)
    raise ValueError(f"unknown workload {workload!r}")
