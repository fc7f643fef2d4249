"""The four benchmark workloads: seeded inputs, task lists and output checks.

Inputs are built once per process by :func:`build_inputs` from the
workload seed, with the benchmark's own copies of the test-suite
generators.  A pass runs every task of the workload once.  Tasks call into
the package through module attributes (``orbits.enumerate_orbit``, not a
name bound at import) so that a traced pass sees the calls, and they time
only those calls; the checks on the outputs run outside the timed regions.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import time
import traceback
from fractions import Fraction
from pathlib import Path

import tracetwist
from tracetwist import cli, orbits, surface, trigdioph, twists
from tracetwist.angles import AngleFraction
from tracetwist.surface import Axis, BoundaryTraces, TracePoint

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"

# Unbound originals for the checks, so traced passes do not count them.
_kappa = tracetwist.kappa
_level_set = tracetwist.level_set
_classify = tracetwist.classify

F = Fraction
MINIMAL_B = BoundaryTraces(F(1, 2), F(1, 2), F(1, 2), F(1, 3))
# An exact rational point on the MINIMAL_B surface (kappa = 0).
MINIMAL_SURFACE_POINT = TracePoint(F(5, 3), F(5, 3), F(-11, 18))
EXCEPTIONAL_B = BoundaryTraces(1, 1, F(7, 4), F(-7, 4))
CONDUCTORS = (24, 60, 84, 120)
EQCOS_CASES = 2000
ZERO_SHARE = 4  # every fourth eqcos case is built to have residual exactly 0
MATCH_SCALES = (F(1), F(-1), F(1, 2), F(-1, 2), F(2), F(-2), F(3), F(-2, 3))
FAMILY2_T = (F(1, 15), F(1, 12), F(1, 9), F(2, 15))

README_CLASSIFY = ["classify", "--traces", "1,1,7/4,-7/4"]
README_SCAN = ["scan", "--traces", "1/2,1/2,1/2,1/3", "--point", "0,1/2,-1.55",
               "--eps", "0.1", "--budget", "100000"]
README_FILTRATION = ["filtration", "--n", "4"]
README_CJ_SEARCH = ["cj", "--search", "--max-q", "15", "--coeffs", "1,-1"]
README_CJ_VERIFY = ["cj", "--verify-list"]
README_EXAMPLE5 = ["example5"]


# -- seeded generators (copies of the test-suite helpers) ---------------------

def rand_fraction(rng: random.Random, bound: int, max_den: int = 30) -> Fraction:
    """A random fraction strictly inside (-bound, bound)."""
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(-bound * den + 1, bound * den - 1), den)


def rand_boundary(rng: random.Random, max_den: int = 20) -> BoundaryTraces:
    return BoundaryTraces(*(rand_fraction(rng, 2, max_den) for _ in range(4)))


def rand_point(rng: random.Random, max_den: int = 30) -> TracePoint:
    return TracePoint(*(rand_fraction(rng, 3, max_den) for _ in range(3)))


def _stream(seed: int, label: str) -> random.Random:
    return random.Random(f"{seed}:{label}")


def _crit1_cases(seed: int):
    # Criterion 1's layout: 100 boundaries, 100 points each; seed 2024 gives
    # exactly the acceptance test's inputs.
    rng = random.Random(seed)
    cases = []
    for _ in range(100):
        B = rand_boundary(rng, max_den=20)
        cases.append((B, [rand_point(rng, max_den=30) for _ in range(100)]))
    return cases


def _ellipse_start(rng: random.Random, B: BoundaryTraces) -> TracePoint:
    """A float point on a random non-degenerate x-slice of B's compact part."""
    Bf = B.to_float()
    lo, hi = (float(v) for v in _classify(B)[1])
    level = lo + (hi - lo) * rng.uniform(0.2, 0.8)
    return _level_set(Bf, Axis.X, level).point_at_angle(rng.uniform(0, 2 * math.pi))


def _crit8_instances(seed: int) -> list[BoundaryTraces]:
    rng = _stream(seed, "crit8")
    instances = [BoundaryTraces(0, 0, 0, 0), MINIMAL_B, EXCEPTIONAL_B]
    while len(instances) < 10:
        B = rand_boundary(rng)
        if _classify(B)[1] is not None:
            instances.append(B)
    return instances


def _angle(rng: random.Random, half: int) -> AngleFraction:
    return AngleFraction(rng.randrange(2 * half), half)


def _relation_conductor(thetas) -> int:
    theta_x, theta_y, theta_z, theta_xy = thetas
    return math.lcm(*(2 * a.q for a in (theta_xy, theta_z + theta_y, theta_z - theta_y, theta_x)))


def _eqcos_cases(seed: int):
    """(boundary, thetas, expect_zero) triples whose relation conductor is in CONDUCTORS.

    Zero cases take theta_xy = pi - theta_x and theta_z = pi/2 on a
    boundary with sigma_x = ab + cd = 0, so the residual vanishes exactly
    and eqcos_residual also runs its trace-identity cross-check.  Angles
    are redrawn until the four angles of the relation need exactly the
    drawn conductor.
    """
    rng = _stream(seed, "eqcos")
    cases = []
    for i in range(EQCOS_CASES):
        conductor = rng.choice(CONDUCTORS)
        half = conductor // 2
        zero = i % ZERO_SHARE == 0
        while True:
            theta_x, theta_y = _angle(rng, half), _angle(rng, half)
            if zero:
                thetas = (theta_x, theta_y, AngleFraction(1, 2), AngleFraction(1) - theta_x)
            else:
                thetas = (theta_x, theta_y, _angle(rng, half), _angle(rng, half))
            if _relation_conductor(thetas) == conductor:
                break
        if zero:
            while True:
                a, b, c = (rand_fraction(rng, 2, 12) for _ in range(3))
                if c and abs(a * b / c) < 2:
                    break
            B = BoundaryTraces(a, b, c, -a * b / c)
        else:
            B = rand_boundary(rng, max_den=12)
        cases.append((B, thetas, zero))
    return cases


def _match_cases(seed: int):
    """Scaled, reordered and reflected copies of the Conway-Jones list.

    Each case is (relation, family, scale, t); reflecting an angle theta to
    2*pi - theta leaves its cosine unchanged, so the classification must
    come out as the family, the scale and (for family 2) the parameter.
    """
    rng = _stream(seed, "match")
    cases = []
    for t in FAMILY2_T:
        for family, rel in enumerate(trigdioph.conway_jones_list(t), start=1):
            scale = rng.choice(MATCH_SCALES)
            terms = [
                trigdioph.CJTerm(
                    term.coeff * scale,
                    -term.angle if rng.random() < 0.5 else term.angle,
                )
                for term in rel.terms
            ]
            rng.shuffle(terms)
            cases.append((trigdioph.CJRelation(tuple(terms), rel.rhs * scale),
                          family, scale, t if family == 2 else None))
    return cases


def build_inputs(workload: str, seed: int) -> dict:
    """Everything a workload's passes feed to the package."""
    if workload == "orbit-exact":
        return {"crit1": _crit1_cases(seed),
                "kappa_sample": _stream(seed, "sample").sample(range(10_000), 1000)}
    if workload == "explore-float":
        return {
            "scan_starts": [
                surface.lift_to_surface(MINIMAL_B.to_float(), x, y)[i]
                for x, y, i in ((0.0, 0.5, 0), (-1.0, 0.25, 0), (1.2, -0.3, 1))
            ],
            "float_start": _ellipse_start(_stream(seed, "float-orbit"), MINIMAL_B),
            "crit8": _crit8_instances(seed),
            "kappa_sample": _stream(seed, "sample").sample(range(100_000), 1000),
        }
    if workload == "relation-search":
        return {}
    if workload == "cyclo-exact":
        return {"eqcos": _eqcos_cases(seed), "match": _match_cases(seed)}
    raise ValueError(f"unknown workload {workload!r}")


# -- pass recorder --------------------------------------------------------------

class Pass:
    """Timing, checks, counts and digests of one pass over a task list."""

    def __init__(self, label: str, tracer=None):
        self.golden = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))
        self.label = label
        self.tracer = tracer
        self.task = ""
        self.call_s = 0.0
        self.task_s: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.counts: dict[str, object] = {}
        self.digests: dict[str, str] = {}
        self.stdout_bytes = 0

    def call(self, fn, *args, **kwargs):
        """Run one call into the package inside the timed (and traced) region."""
        root = (self.tracer.root(self.task, f"{self.label}/{self.task}")
                if self.tracer else contextlib.nullcontext())
        with root:
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.call_s += elapsed
                self.task_s[self.task] = self.task_s.get(self.task, 0.0) + elapsed

    def check(self, ok: bool, what: str, ops: int = 1, failed: int | None = None) -> None:
        """Count `ops` checked operations, `failed` of them (all if not ok)."""
        bad = (0 if ok else ops) if failed is None else failed
        self.attempted += ops
        self.failed += bad
        if bad:
            self.failures.append(f"{self.task}: {what}")

    def count(self, name: str, value) -> None:
        self.counts[name] = value

    def digest(self, name: str, text: str) -> None:
        value = hashlib.sha256(text.encode("utf-8")).hexdigest()
        self.digests[name] = value
        self.check(self.golden.get(name) == value, f"sha256 of {name} differs from the golden digest")

    def cli(self, name: str, argv: list[str]) -> str:
        """Run ``cli.main`` with captured output; check exit code and stdout digest."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.call(cli.main, argv)
        text = out.getvalue()
        self.stdout_bytes += len(text.encode("utf-8"))
        self.check(code == 0, f"exit code {code}: {err.getvalue().strip()}")
        self.digest(f"cli:{name}", text)
        return text

    def run(self, tasks, inputs) -> None:
        for task in tasks:
            self.task = task.__name__
            try:
                task(inputs, self)
            except Exception as exc:  # a task that raises is one failed operation
                where = traceback.extract_tb(exc.__traceback__)[-1]
                self.check(False, f"raised {type(exc).__name__}: {exc} "
                                  f"at {Path(where.filename).name}:{where.lineno}")
        self.count("cli.stdout_bytes", self.stdout_bytes)


# -- orbit-exact ----------------------------------------------------------------

def _height_bits(points) -> int:
    return max(max(c.numerator.bit_length(), c.denominator.bit_length())
               for p in points for c in p.as_tuple())


def orbit_10k(inp, rec: Pass) -> None:
    result = rec.call(orbits.enumerate_orbit, MINIMAL_B, MINIMAL_SURFACE_POINT, 10_000)
    points = sorted(result.points, key=TracePoint.as_tuple)
    rec.check(result.status == "truncated" and result.cardinality == 10_000,
              f"status {result.status}, {result.cardinality} points")
    bad = sum(_kappa(MINIMAL_B, points[i]) != 0 for i in inp["kappa_sample"])
    rec.check(bad == 0, f"{bad} sampled orbit points off kappa = 0",
              ops=len(inp["kappa_sample"]), failed=bad)
    rec.digest("orbit_10k", "\n".join(",".join(map(str, p.as_tuple())) for p in points))
    rec.count("orbit_10k.size", result.cardinality)
    rec.count("twists.peak_height_bits", _height_bits(points))


def _kappa_sweep(cases) -> tuple[int, int]:
    checks = failures = 0
    for B, points in cases:
        for p in points:
            value = surface.kappa(B, p)
            for g in twists.GENERATORS:
                if surface.kappa(B, twists.apply_generator(B, p, g)) != value:
                    failures += 1
                checks += 1
    return checks, failures


def crit1_sweep(inp, rec: Pass) -> None:
    checks, failures = rec.call(_kappa_sweep, inp["crit1"])
    rec.check(checks == 60_000, f"{checks} generator applications, expected 60000")
    rec.check(failures == 0, f"kappa changed in {failures} applications",
              ops=checks, failed=failures)
    rec.count("crit1.checks", checks)


def cli_classify(inp, rec: Pass) -> None:
    rec.cli("classify", README_CLASSIFY)


def cli_orbit(inp, rec: Pass) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / "orbit.csv"
    argv = ["orbit", "--traces", "1,1,7/4,-7/4", "--point=-1,0,0",
            "--budget", "10000", "--out", str(path)]
    rec.cli("orbit", argv)
    rec.digest("cli:orbit.csv", path.read_text(encoding="utf-8"))


# -- explore-float --------------------------------------------------------------

def dense_scans(inp, rec: Pass) -> None:
    sizes = []
    for p0 in inp["scan_starts"]:
        report = rec.call(orbits.density_scan, MINIMAL_B, p0, eps=0.1, budget=100_000, seed=0)
        rec.check(report.covered_fraction == 1.0,
                  f"dense instance covered only {report.covered_fraction}")
        sizes.append(report.orbit_size)
    rec.count("scan.orbit_sizes", sizes)


def exceptional_scan(inp, rec: Pass) -> None:
    family_B, special = rec.call(orbits.exceptional_family, F(1), F(7, 4))
    result = rec.call(orbits.enumerate_orbit, family_B, TracePoint(-1, 0, 0), 100_000)
    rec.check(result.is_finite and result.points == special,
              f"exceptional orbit {result.status} with {result.cardinality} points")
    report = rec.call(orbits.density_scan, family_B, TracePoint(-1.0, 0.0, 0.0),
                      eps=0.01, budget=100_000)
    rec.check(report.orbit_size == 2 and not report.truncated and report.covered_fraction < 0.2,
              f"exceptional scan {report}")
    rec.count("exceptional.orbit_size", report.orbit_size)


def float_orbit(inp, rec: Pass) -> None:
    B = MINIMAL_B.to_float()
    result = rec.call(orbits.enumerate_orbit, B, inp["float_start"], 100_000)
    rec.check(result.status == "truncated" and result.cardinality == 100_000,
              f"status {result.status}, {result.cardinality} points")
    points = list(result.points)
    bad = sum(abs(_kappa(B, points[i])) > 1e-8 for i in inp["kappa_sample"])
    rec.check(bad == 0, f"{bad} sampled float orbit points off the surface",
              ops=len(inp["kappa_sample"]), failed=bad)
    rec.count("float_orbit.size", result.cardinality)


def _dense_levels_above(B, N: int, count: int):
    """Levels 2cos(pi p/q) with q > N inside the attainable x-range."""
    lo, hi = (float(v) for v in _classify(B)[1])
    margin = 0.02 * (hi - lo)
    out = []
    q = N
    while len(out) < count and q < N + 400:
        q += 1
        for p in range(1, q):
            if math.gcd(p, q) != 1:
                continue
            level = 2 * math.cos(math.pi * p / q)
            if lo + margin < level < hi - margin:
                out.append((p, q, level))
                break
    return out


def _slice_orbit(Bf, level: float, q: int):
    cur = surface.level_set(Bf, Axis.X, level).point_at_angle(0.3)
    orbit = [cur]
    g = twists.TwistGenerator(Axis.X)
    for _ in range(q - 1):
        cur = twists.apply_generator(Bf, cur, g)
        orbit.append(cur)
    return orbit


def crit8_density(inp, rec: Pass) -> None:
    checked = total_n = 0
    for B in inp["crit8"]:
        Bf = B.to_float()
        for eps in (0.5, 0.1):
            N = rec.call(orbits.N_of_epsilon, B, eps)
            total_n += N
            for _, q, level in _dense_levels_above(B, N, 2):
                orbit = rec.call(_slice_orbit, Bf, level, q)
                dense = rec.call(orbits.epsilon_density_on_level, B, orbit, Axis.X, level, eps)
                rec.check(dense, f"period-{q} orbit not {eps}-dense on level {level}")
                checked += 1
    rec.check(checked >= 20, f"only {checked} (instance, eps, q) cases")
    rec.count("orbits.n_of_eps.value", total_n)
    rec.count("crit8.cases", checked)


def cli_scan(inp, rec: Pass) -> None:
    rec.cli("scan", README_SCAN)


def cli_filtration(inp, rec: Pass) -> None:
    rec.cli("filtration", README_FILTRATION)


# -- relation-search ------------------------------------------------------------

def _search_rows(found) -> str:
    return json.dumps([
        [rel.describe(), str(rel.rhs), cls.kind, cls.family,
         None if cls.scale is None else str(cls.scale), None if cls.t is None else str(cls.t)]
        for rel, cls in found
    ])


def cli_cj_search(inp, rec: Pass) -> None:
    rows = json.loads(rec.cli("cj_search", README_CJ_SEARCH))
    families = {row["family"] for row in rows}
    t_values = {row["t"] for row in rows if row["family"] == 2}
    rec.check(len(rows) == 10 and all(row["kind"] == "family" for row in rows),
              f"{len(rows)} relations, not all classified")
    rec.check(families == {1, 2, 3, 4, 5, 6, 10}, f"families {sorted(families)}")
    rec.check(t_values == {"1/15", "1/12", "1/9", "2/15"}, f"family-2 t values {t_values}")
    rec.count("search_pm1.results", len(rows))


def search_default(inp, rec: Pass) -> None:
    found = rec.call(trigdioph.bounded_search, 8, 4)
    families = {cls.family for _, cls in found}
    rec.check(all(cls.kind == "family" for _, cls in found), "unclassified search result")
    rec.check(families == {1, 3, 4}, f"families {sorted(families, key=str)}")
    rec.digest("search_default", _search_rows(found))
    rec.count("search_default.results", len(found))


def warm_search(inp, rec: Pass) -> None:
    """Warm-up for relation-search: both search entry points at small sizes.

    A full relation-search pass takes about 20 s, and no cold-start cost
    shows against a second pass, so an untimed full pass would only spend
    the run's time budget.
    """
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = rec.call(cli.main, ["cj", "--search", "--max-q", "6", "--coeffs", "1,-1"])
    found = rec.call(trigdioph.bounded_search, 5, 4)
    rows = json.loads(out.getvalue())
    rec.check(code == 0 and all(row["kind"] == "family" for row in rows)
              and all(cls.kind == "family" for _, cls in found),
              "warm-up search returned an unclassified relation")


# -- cyclo-exact ----------------------------------------------------------------

def _eqcos_all(cases):
    return [trigdioph.eqcos_residual(B, thetas) for B, thetas, _ in cases]


def _float_residual(B, thetas) -> float:
    tx, ty, tz, txy = (t.radians() for t in thetas)
    return (math.cos(txy) + math.cos(tz + ty) + math.cos(tz - ty) + math.cos(tx)
            - float(B.sigma_x) / 2)


def _float_value(value) -> float:
    if isinstance(value, Fraction):
        return float(value)
    step = 2 * math.pi / value.conductor
    return sum(float(c) * math.cos(step * j) for j, c in enumerate(value.coords) if c)


def eqcos(inp, rec: Pass) -> None:
    cases = inp["eqcos"]
    results = rec.call(_eqcos_all, cases)
    bad = zeros = 0
    for (B, thetas, expect_zero), value in zip(cases, results):
        if expect_zero:
            ok = isinstance(value, Fraction) and value == 0
        else:
            ok = abs(_float_value(value) - _float_residual(B, thetas)) < 1e-9
        bad += not ok
        zeros += isinstance(value, Fraction) and value == 0
    rec.check(bad == 0, f"{bad} eqcos residuals wrong", ops=len(cases), failed=bad)
    rec.count("eqcos.zero_residuals", zeros)


def _match_all(cases):
    return [trigdioph.match_family(rel) for rel, _, _, _ in cases]


def match_families(inp, rec: Pass) -> None:
    cases = inp["match"]
    found = rec.call(_match_all, cases)
    bad = sum(
        (cls.kind, cls.family, cls.scale, cls.t) != ("family", family, scale, t)
        for (_, family, scale, t), cls in zip(cases, found)
    )
    rec.check(bad == 0, f"{bad} relations misclassified", ops=len(cases), failed=bad)
    rec.count("match.cases", len(cases))


def cli_cj_verify(inp, rec: Pass) -> None:
    rows = json.loads(rec.cli("cj_verify", README_CJ_VERIFY))
    rec.check(len(rows) == 10 and all(row["residual"] == "0" for row in rows),
              "a built-in relation has a nonzero residual")


def cli_example5(inp, rec: Pass) -> None:
    rec.check(json.loads(rec.cli("example5", README_EXAMPLE5))["ok"], "example5 self-check failed")


TASKS = {
    "orbit-exact": (orbit_10k, crit1_sweep, cli_classify, cli_orbit),
    "explore-float": (dense_scans, exceptional_scan, float_orbit, crit8_density,
                      cli_scan, cli_filtration),
    "relation-search": (cli_cj_search, search_default),
    "cyclo-exact": (eqcos, match_families, cli_cj_verify, cli_example5),
}

# Untimed warm-up task lists that differ from the workload's own.
WARMUP = {"relation-search": (warm_search,)}
