"""Layered benchmark for tracetwist.

Usage::

    python3 perfbench/run.py --workload orbit-exact --seed 2024 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

One process runs one workload on one thread.  It times several cold starts
of ``import tracetwist`` plus input generation (``setup_s``), runs one
untimed warm-up pass over the workload's task list (relation-search warms
up on smaller searches), then as many whole timed passes as come closest to
``--seconds`` (at least one); ``wall_s`` is their median.
With ``--trace 1`` the warm-up and one extra final pass run traced, and the
per-layer metrics come from the final pass.  Every pass checks its outputs;
the last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Spans and per-pass details go to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("orbit-exact", "explore-float", "relation-search", "cyclo-exact")
DEFAULT_SEED = 2024
SETUP_PROBES = 7
IMPORT_PROBES = 5

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _probe_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _probe(workload: str, seed: int, importtime: bool) -> subprocess.CompletedProcess:
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []),
           str(HERE / "setup_probe.py"), workload, str(seed)]
    done = subprocess.run(cmd, cwd=ROOT, env=_probe_env(), capture_output=True,
                          text=True, timeout=120)
    if done.returncode != 0:
        _fail(f"setup probe failed:\n{done.stderr}")
    return done


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time of fresh interpreters importing and generating inputs."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        _probe(workload, seed, importtime=False)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def measure_imports(workload: str, seed: int) -> dict[str, float]:
    """Median cumulative import time (s) of tracetwist.trigdioph and tracetwist.cli."""
    found: dict[str, list[float]] = {"tracetwist.trigdioph": [], "tracetwist.cli": []}
    line = re.compile(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$")
    for _ in range(IMPORT_PROBES):
        for text in _probe(workload, seed, importtime=True).stderr.splitlines():
            match = line.match(text)
            if match and match.group(2) in found:
                found[match.group(2)].append(int(match.group(1)) / 1e6)
    return {name: statistics.median(v) if v else 0.0 for name, v in found.items()}


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for row in packed.read_text().splitlines():
            if row.endswith(" " + ref[5:]):
                return row.split()[0]
    return None


def environment() -> dict:
    import mpmath

    cpu = platform.machine()
    try:
        for row in Path("/proc/cpuinfo").read_text().splitlines():
            if row.startswith("model name"):
                cpu = row.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    sources = hashlib.sha256()
    for path in sorted((SRC / "tracetwist").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "git_commit": _git_commit(),
        "src_sha256": sources.hexdigest(),
    }


def _run_pass(workloads, tasks, inputs, label, tracer=None):
    gc.collect()
    rec = workloads.Pass(label, tracer)
    rec.run(tasks, inputs)
    return rec


def _seconds(ns: int) -> float:
    return ns / 1e9


def per_layer(tracer, workload: str, final, untraced_wall: float, imports: dict):
    """Per-layer metrics of the final traced pass, and reasons for absent ones."""
    metrics: dict[str, float] = {}
    absent: dict[str, str] = {}
    missing = set(tracer.missing)

    def need(metric: str, *spans: str) -> None:
        gone = [s for s in spans if s in missing]
        if gone:
            absent[metric] = f"{', '.join(gone)} not found in the package"

    def put(metric: str, value: float, exercised: bool = True) -> None:
        metrics[metric] = value
        if not exercised and metric not in absent:
            absent[metric] = f"not exercised by workload {workload}"

    sel = tracer.select
    calls, total, _, _ = sel("twists.apply_generator")
    put("twists.apply.calls", calls, calls > 0)
    put("twists.apply.ns_per_call", total / calls if calls else 0.0, calls > 0)
    bits = final.counts.get("twists.peak_height_bits", 0)
    put("twists.peak_height_bits", bits, bits > 0)

    enum = sel("orbits.enumerate_orbit")
    applied = sel("twists.apply_generator", parent="orbits.enumerate_orbit")[0]
    put("orbits.enumerate.s", _seconds(enum[1]), enum[0] > 0)
    put("orbits.enumerate.keep_ratio", enum[3] / applied if applied else 0.0, applied > 0)
    scan = sel("orbits.density_scan")
    put("orbits.scan.s", _seconds(scan[1]), scan[0] > 0)
    put("orbits.scan.self_s", _seconds(scan[2]), scan[0] > 0)
    need("orbits.box_index.s", "orbits._BoxIndex.add", "orbits._BoxIndex.any_within")
    box = [a + b for a, b in zip(sel("orbits._BoxIndex.add"), sel("orbits._BoxIndex.any_within"))]
    put("orbits.box_index.s", _seconds(box[1]), box[0] > 0)
    n_eps = sel("orbits.N_of_epsilon")
    put("orbits.n_of_eps.s", _seconds(n_eps[1]), n_eps[0] > 0)
    put("orbits.n_of_eps.value", n_eps[3], n_eps[0] > 0)
    dens = sel("orbits.epsilon_density_on_level")
    put("orbits.eps_density.s", _seconds(dens[1]), dens[0] > 0)

    lev = sel("surface.level_set")
    put("surface.level_set.calls", lev[0], lev[0] > 0)
    put("surface.level_set.ns_per_call", lev[1] / lev[0] if lev[0] else 0.0, lev[0] > 0)
    sample = sel("surface.surface_sample")
    put("surface.sample.s", _seconds(sample[1]), sample[0] > 0)
    kap = sel("surface.kappa")[0]
    put("surface.kappa.calls", kap, kap > 0)

    pm1 = sel("trigdioph.bounded_search", task="cli_cj_search")
    default = sel("trigdioph.bounded_search", task="search_default")
    put("trigdioph.search_pm1.s", _seconds(pm1[1]), pm1[0] > 0)
    put("trigdioph.search_default.s", _seconds(default[1]), default[0] > 0)
    search = "trigdioph.bounded_search"
    screen = sel("trigdioph._nearest_rational", parent=search)
    confirm = sel("trigdioph._confirm_rational", parent=search)
    exact = sel("trigdioph.is_rational_relation", parent=search)
    minimal = sel("trigdioph._has_rational_proper_subset", parent=search)
    searched = pm1[0] + default[0] > 0
    for metric, spans, value in (
        ("trigdioph.funnel.enumerated", ("trigdioph._nearest_rational",), screen[0]),
        ("trigdioph.funnel.float_pass", ("trigdioph._confirm_rational",), confirm[0]),
        ("trigdioph.funnel.mp_pass", ("trigdioph._confirm_rational",), confirm[3]),
        ("trigdioph.funnel.exact_pass", ("trigdioph.is_rational_relation",), exact[3]),
        ("trigdioph.funnel.minimal", ("trigdioph._has_rational_proper_subset",), minimal[3]),
        ("trigdioph.funnel.results", (search,), pm1[3] + default[3]),
        ("trigdioph.funnel.screen_s", ("trigdioph._nearest_rational",), _seconds(screen[1])),
        ("trigdioph.funnel.screen_pass_ratio",
         ("trigdioph._nearest_rational", "trigdioph._confirm_rational"),
         confirm[0] / screen[0] if screen[0] else 0.0),
    ):
        need(metric, *spans)
        put(metric, value, searched)

    eqcos_ms = sorted(d / 1e6 for d in tracer.durations_ns("trigdioph.eqcos_residual"))
    if len(eqcos_ms) >= 2:
        cuts = statistics.quantiles(eqcos_ms, n=100)
        put("trigdioph.eqcos.p50_ms", cuts[49])
        put("trigdioph.eqcos.p99_ms", cuts[98])
    else:
        put("trigdioph.eqcos.p50_ms", 0.0, False)
        put("trigdioph.eqcos.p99_ms", 0.0, False)
    mul = sel("trigdioph.CycloElement.__mul__")[0]
    promote = sel("trigdioph.CycloElement.promote")[0]
    cyclo_ns = sum(sel(f"trigdioph.CycloElement.{m}")[2]
                   for m in ("__add__", "__sub__", "__mul__", "promote", "scale"))
    put("trigdioph.cyclo.mul_calls", mul, mul > 0)
    put("trigdioph.cyclo.promote_calls", promote, promote > 0)
    put("trigdioph.cyclo.s", _seconds(cyclo_ns), cyclo_ns > 0)
    put("trigdioph.import_s", imports["tracetwist.trigdioph"])

    put("cli.import_s", imports["tracetwist.cli"])
    for metric, task in (("cli.orbit.s", "cli_orbit"), ("cli.scan.s", "cli_scan"),
                         ("cli.cj_search.s", "cli_cj_search"),
                         ("cli.cj_verify.s", "cli_cj_verify"), ("cli.example5.s", "cli_example5")):
        main = sel("cli.main", task=task)
        put(metric, _seconds(main[1]), main[0] > 0)
    put("cli.stdout_bytes", final.stdout_bytes)

    for layer, ns in tracer.layer_self_ns().items():
        put(f"{layer}.self_s", _seconds(ns), ns > 0)
    put("trace.overhead_s", final.call_s - untraced_wall)
    return metrics, absent


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    sys.path.insert(0, str(SRC))
    import tracetwist
    import tracetwist.cli  # noqa: F401

    if not Path(tracetwist.__file__).resolve().is_relative_to(SRC.resolve()):
        _fail(f"imported tracetwist from {tracetwist.__file__}, not from {SRC}")
    import workloads
    from spans import Tracer

    env = environment()
    imports = measure_imports(name, seed) if traced else {}
    setup_s = None if traced else measure_setup(name, seed)
    inputs = workloads.build_inputs(name, seed)

    # A traced run warms up with the full task list, traced, so that the
    # call counts of two traced passes can be compared.
    tasks = workloads.TASKS[name]
    warm_tasks = tasks if traced else workloads.WARMUP.get(name, tasks)
    tracer = Tracer() if traced else None
    if tracer:
        tracer.install()
    warm = _run_pass(workloads, warm_tasks, inputs, "warmup", tracer)
    warm_calls = tracer.call_counts() if tracer else None
    if tracer:
        tracer.restore()
        tracer.reset()
    timed = []
    # Whole passes, as many as come closest to the requested seconds.
    while not timed or sum(p.call_s for p in timed) * (1 + 0.5 / len(timed)) < seconds:
        timed.append(_run_pass(workloads, tasks, inputs, f"timed{len(timed)}"))
    wall_s = statistics.median(p.call_s for p in timed)
    passes = [warm, *timed]

    final = None
    if tracer:
        tracer.install()
        final = _run_pass(workloads, tasks, inputs, "traced", tracer)
        tracer.restore()
        passes.append(final)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    failures = [f"{p.label}: {f}" for p in passes for f in p.failures]
    full = passes if warm_tasks is tasks else passes[1:]
    for p in full[1:]:
        if p.counts != full[0].counts:
            diff = sorted(k for k in set(p.counts) | set(full[0].counts)
                          if p.counts.get(k) != full[0].counts.get(k))
            attempted += 1
            failed += 1
            failures.append(f"{p.label}: counts differ from the {full[0].label} pass: {diff}")
    if tracer:
        attempted += 1
        if tracer.call_counts() != warm_calls:
            failed += 1
            failures.append("traced: call counts differ from the traced warm-up pass")

    if traced:
        metrics, absent = per_layer(tracer, name, final, wall_s, imports)
        units = {m["name"]: m["unit"] for m in load_benchmark()["per_layer"]}
    else:
        metrics = {
            "wall_s": wall_s,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        absent = {}
        units = E2E_UNITS

    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
        "env": env, "timed_passes": [p.call_s for p in timed],
        "task_s": {p.label: p.task_s for p in passes},
        "counts": timed[0].counts, "digests": timed[0].digests,
        "error_rate": failed / attempted, "failures": failures, "absent": absent,
        "metrics": metrics,
    }
    workloads.OUT_DIR.mkdir(exist_ok=True)
    out = workloads.OUT_DIR / f"{name}-seed{seed}-trace{int(traced)}.json"
    if tracer:
        report["spans"] = tracer.spans
        report["stats"] = {"|".join(k): v for k, v in sorted(tracer.stats.items())}
    out.write_text(json.dumps(report, indent=1), encoding="utf-8")
    report.pop("spans", None)
    report.pop("stats", None)
    return {
        "report": report,
        "result": {
            "correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        },
    }


def _print_table(rows: list[tuple[str, dict]]) -> None:
    for workload, result in rows:
        rate = result["failed"] / result["attempted"]
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} error_rate={rate:.3g}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:40s} {entry['value']:>16.6g} {entry['unit']}")


def run_all(args) -> dict:
    """Run every workload in its own process and merge their results."""
    rows = []
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if done.returncode != 0:
            _fail(f"workload {name} failed:\n{done.stderr}")
        lines = done.stdout.strip().splitlines()
        print(lines[-2])  # the workload's environment and absent-metric line
        rows.append((name, json.loads(lines[-1])))
    _print_table(rows)
    return {
        "correct": all(r["correct"] for _, r in rows),
        "attempted": sum(r["attempted"] for _, r in rows),
        "failed": sum(r["failed"] for _, r in rows),
        "metrics": {f"{name}.{metric}": entry
                    for name, r in rows for metric, entry in r["metrics"].items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=load_benchmark()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "tracetwist" / "__init__.py").is_file():
        _fail(f"no tracetwist sources under {SRC}")
    if args.workload == "all":
        result = run_all(args)
    else:
        done = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        report, result = done["report"], done["result"]
        for failure in report["failures"][:20]:
            print(f"FAIL {failure}")
        _print_table([(args.workload, result)])
        print(json.dumps({"workload": args.workload, "env": report["env"],
                          "error_rate": report["error_rate"],
                          "timed_passes": report["timed_passes"], "absent": report["absent"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
