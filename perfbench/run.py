"""The contactcurves benchmark: one workload, timed or traced.

Usage, from the repository root:

    python3 perfbench/run.py --workload analyze-mix --seed 1 --seconds 25 --trace 0

The program under test is imported from ``src/`` as it stands; nothing is
installed.  A single client drives one job at a time, closed loop, in this
process.  The job list is built from ``--seed`` and run in whole passes
(shuffled per pass by the seed) until ``--seconds`` have been measured and
the tail percentile has at least ten samples beyond it.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` is the separate
traced run: it alternates untraced and traced passes over the same jobs and
reports per-layer calls, self times, counts and ratios, the tracing
overhead, and how many outputs of the reference seed differ from the bytes
stored in ``perfbench/golden.json``.

Every job is checked by an oracle before it is timed, and every timed
repetition must reproduce the checked bytes.  The last line of stdout is a
JSON object with keys correct, attempted, failed and metrics.  ``failed``
counts jobs that fail other than as a listed known defect; the report lines
before it give fail_frac with the known defects included.
"""

from __future__ import annotations

import argparse
import gzip
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK = Path(".perfbench_work")      # generated inputs, removed at exit
OUT = Path(".perfbench_out")        # result records and spans, kept
GOLDEN = HERE / "golden.json"
GOLDEN_SEED = 0
SETUP_REPEATS = 9

# The tail is the highest percentile with at least ten samples beyond it at
# the job count a --seconds 25 run reaches; the run extends until it has them.
TAIL_PERCENTILE = {"analyze-mix": 97.0, "families": 85.0,
                   "scan-sweep": 95.0, "flow": 85.0}
THROUGHPUT_WORK = {"analyze-mix": "grid samples", "families": "grid samples",
                   "scan-sweep": "scan cells", "flow": "steps x vertices"}


def _nproc():
    return len(os.sched_getaffinity(0))


def _cap_blas_threads():
    """Cap BLAS/OpenMP threads at nproc before numpy loads; return the caps."""
    nproc = _nproc()
    caps = {}
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            want = int(os.environ.get(var, nproc))
        except ValueError:
            want = nproc
        caps[var] = max(1, min(want, nproc))
        os.environ[var] = str(caps[var])
    return caps


def _environment(caps):
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {
        "nproc": _nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_threads": caps,
        "machine": platform.machine(),
    }


def _percentile(values, q):
    import numpy as np
    return float(np.percentile(np.asarray(values), q))


# ---------------------------------------------------------------------------
# running jobs


def _execute(job):
    """Run one job; return (seconds, outcome or None, error text or None)."""
    start = time.perf_counter()
    try:
        outcome = job.run()
        error = None
    except Exception as exc:          # a crash is a failed job, not a stop
        outcome, error = None, f"crashed: {type(exc).__name__}: {exc}"
    return time.perf_counter() - start, outcome, error


def _verdict(job, outcome, error):
    """None when the job's output passes its oracle, else the reason."""
    if error is not None:
        return error
    if outcome.exit_code != job.expected_exit:
        detail = outcome.stderr.strip().splitlines()[-1:] or [""]
        return f"exit code {outcome.exit_code}, expected {job.expected_exit} {detail[0]}"
    try:
        return job.check(outcome)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"oracle could not read the output: {type(exc).__name__}: {exc}"


class Checked:
    """Oracle verdicts of a first pass, and the bytes later passes must repeat."""

    def __init__(self, workloads, jobs, workdir):
        self.wl = workloads
        self.workdir = str(workdir)
        self.reason = {}
        self.digest = {}
        self.route_gaps = []    # set by the families oracle
        for job in jobs:
            _, outcome, error = _execute(job)
            self.reason[job.key] = _verdict(job, outcome, error)
            self.digest[job.key] = self.render(job, outcome)
            if outcome is not None and isinstance(outcome.value, dict) \
                    and "route_gap" in outcome.value:
                self.route_gaps.append(outcome.value["route_gap"])

    def render(self, job, outcome):
        if outcome is None:
            return None
        data = job.render(outcome).replace(self.workdir.encode(), b"<inputs>")
        return self.wl.digest(data)

    def failed(self, job, outcome, error):
        """Does this repetition fail: its first run failed or it differs now."""
        return (self.reason[job.key] is not None or error is not None
                or outcome.exit_code != job.expected_exit
                or self.render(job, outcome) != self.digest[job.key])


def _run_pass(jobs, checked, tracer=None):
    """One pass over jobs; per job (key, seconds, failed, work, outcome)."""
    rows = []
    for index, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = index
        seconds, outcome, error = _execute(job)
        failed = checked.failed(job, outcome, error)
        work = job.work(outcome) if outcome is not None else 0
        rows.append((job.key, seconds, failed, work, outcome))
    return rows


# ---------------------------------------------------------------------------
# set-up


def _setup(wl, workload, seed, workdir):
    """Import the program and build the seeded job list; timed by the caller."""
    P = wl.import_program()
    jobs = wl.build_jobs(P, workload, seed, workdir, Path("."))
    return P, jobs


def _timed_setups(wl, workload, seed, workdir):
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        P, jobs = _setup(wl, workload, seed, workdir)
        times.append(time.perf_counter() - start)
    return P, jobs, times


# ---------------------------------------------------------------------------
# reports


def _print_table(title, rows):
    print(title)
    width = max(len(r[0]) for r in rows)
    for name, *rest in rows:
        print(f"  {name:<{width}}  " + "  ".join(str(x) for x in rest))


def _timed_run(wl, args, jobs, checked, setup_times):
    rnd = random.Random(args.seed)
    q = TAIL_PERCENTILE[args.workload]
    min_samples = math.ceil(1000.0 / (100.0 - q) - 1e-9)   # ten beyond p<q>
    latencies = []
    work = fails = unexpected = passes = 0
    measured = 0.0
    while measured < args.seconds or len(latencies) < min_samples:
        order = jobs[:]
        rnd.shuffle(order)
        for key, seconds, failed, done, _ in _run_pass(order, checked):
            latencies.append(seconds)
            measured += seconds
            work += done
            if failed:
                fails += 1
                unexpected += key not in wl.KNOWN_DEFECTS
        passes += 1

    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    beyond = sum(1 for x in latencies if x > _percentile(latencies, q))
    metrics = {
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "job_p50_s": (_percentile(latencies, 50.0), "s", len(latencies)),
        "job_tail_s": (_percentile(latencies, q), "s", len(latencies)),
        "throughput": (work / measured, "1/s", passes),
        "rss_peak_mib": (rss_mib, "MiB", 1),
    }
    fail_frac = fails / len(latencies)
    _print_table(
        f"workload {args.workload}, seed {args.seed}: {passes} passes of "
        f"{len(jobs)} jobs, {measured:.3f} s measured, closed loop, 1 client",
        [(name, repr(v), unit, f"n={n}") for name, (v, unit, n) in metrics.items()]
        + [("fail_frac", repr(fail_frac), "ratio", f"n={len(latencies)}")],
    )
    print(f"  job_tail_s is p{q:g} ({beyond} samples beyond it); throughput "
          f"counts {THROUGHPUT_WORK[args.workload]} per second of job time")
    record = {
        "metrics": {k: {"value": v, "unit": u, "samples": n}
                    for k, (v, u, n) in metrics.items()},
        "fail_frac": {"value": fail_frac, "unit": "ratio", "samples": len(latencies)},
        "tail_percentile": q,
        "passes": passes,
        "latencies_s": latencies,
    }
    return record, len(latencies), unexpected


def _traced_run(wl, tr, args, P, jobs, checked):
    """Alternate untraced and traced passes; per-layer metrics from spans."""
    untraced, traced, totals = [], [], []
    first_spans = None
    first_rows = None
    attempted = unexpected = 0
    measured = 0.0
    while measured < args.seconds or len(traced) < 2:
        rows = _run_pass(jobs, checked)
        untraced.append(sum(r[1] for r in rows))
        tracer = tr.Tracer(P)
        tracer.install()
        try:
            trows = _run_pass(jobs, checked, tracer)
        finally:
            tracer.uninstall()
        traced.append(sum(r[1] for r in trows))
        totals.append(tr.layer_totals(tracer.spans))
        if first_spans is None:
            first_spans, first_rows = tracer.spans, trows
        measured += untraced[-1] + traced[-1]
        for key, _, failed, _, _ in rows + trows:
            attempted += 1
            unexpected += failed and key not in wl.KNOWN_DEFECTS

    counts_stable = all(
        {n: t["calls"] for n, t in tot.items()} == {n: t["calls"] for n, t in totals[0].items()}
        for tot in totals)
    metrics = {}
    for name in tr.SPAN_NAMES:
        row = totals[0][name]
        for field, value in row.items():
            if field == "self_s":
                value = statistics.median(t[name]["self_s"] for t in totals)
            metrics[f"{name}.{field}"] = value
    metrics.update(_ratios(wl, tr, jobs, first_spans, first_rows))
    metrics["analysis.route_gap_max"] = max(checked.route_gaps, default=0.0)
    metrics["trace.overhead_frac"] = (
        statistics.median(traced) / statistics.median(untraced) - 1.0)
    metrics["reporting.outputs_changed"] = _outputs_changed(wl, args.workload)

    _print_table(
        f"traced run, workload {args.workload}, seed {args.seed}: {len(traced)} "
        f"traced and {len(untraced)} untraced passes of {len(jobs)} jobs; "
        f"call counts {'repeat' if counts_stable else 'DIFFER'} between passes",
        [(k, repr(v)) for k, v in metrics.items()],
    )
    return metrics, first_spans, attempted, unexpected, counts_stable


def _ratios(wl, tr, jobs, spans, rows):
    """Per-job and per-step ratios over the jobs where they are defined."""
    ok_analyze = [i for i, job in enumerate(jobs)
                  if job.kind == "analyze" and rows[i][4] is not None
                  and rows[i][4].exit_code == 0]
    out = {}
    for metric, name in (("analysis.frenet_per_job", "curves.frenet_apparatus"),
                         ("analysis.closed_form_per_job", "analysis.residual_closed_form"),
                         ("analysis.classify_per_job", "analysis.classify"),
                         ("curves.coordinate_jets_per_job", "curves.coordinate_jets")):
        per_job = tr.calls_by_job(spans, name)
        total = sum(per_job.get(i, 0) for i in ok_analyze)
        out[metric] = total / len(ok_analyze) if ok_analyze else 0.0
    flow = [i for i, job in enumerate(jobs) if job.kind == "flow"]
    steps = sum(rows[i][3] // wl.FLOW_GRID for i in flow)   # work: steps x vertices
    energy = tr.calls_by_job(spans, "discrete.discrete_energy")
    search = tr.calls_by_job(spans, "discrete.discrete_energy", parent="discrete.descend")
    out["discrete.energy_per_step"] = (
        sum(energy.get(i, 0) for i in flow) / steps if steps else 0.0)
    out["discrete.linesearch_evals_per_step"] = (
        sum(search.get(i, 0) for i in flow) / steps if steps else 0.0)
    return out


def _outputs_changed(wl, workload):
    """Jobs of the reference seed whose output bytes differ from golden.json."""
    stored = json.loads(GOLDEN.read_text())["digests"].get(workload, {})
    digests = _reference_digests(wl, workload)
    return sum(1 for key, d in digests.items() if stored.get(key) != d)


def _reference_digests(wl, workload):
    workdir = WORK / f"golden-{workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        _, jobs = _setup(wl, workload, GOLDEN_SEED, workdir)
        checked = Checked(wl, jobs, workdir)
        return dict(checked.digest)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def _write_spans(path, spans, jobs):
    with gzip.open(path, "wt") as fh:
        json.dump({
            "fields": ["name", "start", "end", "parent", "job", "child_s", "extra"],
            "jobs": [job.key for job in jobs],
            "spans": spans,
        }, fh)


# ---------------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(TAIL_PERCENTILE))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true",
                        help="store the reference seed's output digests for "
                             "the workload in perfbench/golden.json and exit")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "contactcurves" / "__init__.py").is_file():
        print(f"error: no program to measure: {src}/contactcurves is missing",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    caps = _cap_blas_threads()
    sys.path.insert(0, str(src))
    import tracer as tr
    import workloads as wl

    env = _environment(caps)
    print(json.dumps({"env": env}))
    if args.record_golden:
        data = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {"digests": {}}
        data["seed"] = GOLDEN_SEED
        data["digests"][args.workload] = _reference_digests(wl, args.workload)
        GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
        return 0

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        P, jobs, setup_times = _timed_setups(wl, args.workload, args.seed, workdir)
        checked = Checked(wl, jobs, workdir)
        failing = {k: r for k, r in checked.reason.items() if r is not None}
        for key, reason in failing.items():
            label = "known defect" if key in wl.KNOWN_DEFECTS else "FAILED"
            print(f"  {label} {key}: {reason}")
        for key in checked.reason.keys() & wl.KNOWN_DEFECTS.keys() - failing.keys():
            print(f"  fixed known defect {key}: {wl.KNOWN_DEFECTS[key]}")
        if args.trace:
            metrics, spans, attempted, unexpected, stable = _traced_run(
                wl, tr, args, P, jobs, checked)
            _write_spans(stem.with_suffix(".spans.json.gz"), spans, jobs)
            result_metrics = {k: {"value": v, "unit": tr.unit(k)}
                              for k, v in metrics.items()}
            record = {"metrics": result_metrics, "counts_repeat": stable}
        else:
            record, attempted, unexpected = _timed_run(
                wl, args, jobs, checked, setup_times)
            result_metrics = {k: {"value": v["value"], "unit": v["unit"]}
                              for k, v in record["metrics"].items()}
        record.update(env=env, workload=args.workload, seed=args.seed,
                      oracle_failures=failing)
        stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()        # only when no other run is using it
        except OSError:
            pass

    declared = _declared_metrics(args.trace)
    if set(declared) != set(result_metrics):
        print(f"error: metrics {sorted(set(declared) ^ set(result_metrics))} "
              f"differ from those BENCHMARK.json declares", file=sys.stderr)
        return 1
    print(json.dumps({"correct": unexpected == 0, "attempted": attempted,
                      "failed": unexpected,
                      "metrics": {k: result_metrics[k] for k in declared}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
