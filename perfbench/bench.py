"""Specification, statistics and reductions of the end-to-end benchmark.

`run.py` drives the measurement program and hands its raw records to
`reduce_measure` and `reduce_trace`. The functions here hold every rule
that turns raw samples into the metrics named in BENCHMARK.json, so the
self-tests in `test_bench.py` can check them without running a job.
"""

import json
import math
import re

# The workloads of BENCHMARK.json.
WORKLOADS = [
    ("m1-flat-512",
     "M1 clips at 512^2, K=24, f64, flat, 10 iterations, one checkpoint per job: "
     "the paper's Table I/II job, dominated by litho band FFTs on a 4 MiB complex grid"),
    ("contacts-tiled-1024",
     "1024^2 contact fields solved as 16 tiles with the in-memory warm-start cache: "
     "repeated motifs read the cache, irregular arrays only write it"),
]

# Runnable with --workload but not in BENCHMARK.json: its runs spread
# too widely on a shared 2-vCPU host to hold a regression bound (see
# README.md).
EXTRA_WORKLOADS = [
    ("m1-f32-sched-1024",
     "M1 clips at 1024^2 with f32 and the automatic coarse-to-fine schedule, scored at f64: "
     "the only run of the f32 simulators, the level-set upsample and 1024^2 scoring"),
]

# name, unit, better, bound. Job times are in reference times ("ref",
# src/reference.rs) measured beside each job; see README.md.
END_TO_END = [
    ("jobs_per_kref", "jobs/kref", "higher", 0.25),
    ("job_ref.p50", "ref", "lower", 0.25),
    ("cpu_ref_per_job", "ref", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.20),
    ("pvb_nm2", "nm2", "lower", 0.20),
    ("final_cost_ratio", "ratio", "lower", 0.20),
]

# name, unit, better
PER_LAYER = [
    ("litho.aerial_calls_per_iter", "count", "lower"),
    ("litho.gradient_calls_per_iter", "count", "lower"),
    ("litho.aerial_ms.p50", "ms", "lower"),
    ("litho.gradient_ms.p50", "ms", "lower"),
    ("litho.share", "fraction", "lower"),
    ("fft.forward_ms", "ms", "lower"),
    ("fft.inverse_band_batch_ms", "ms", "lower"),
    ("fft.rfft_forward_ms", "ms", "lower"),
    ("fft.gflops_computed", "GFLOP/s", "higher"),
    ("fft.bytes_computed", "bytes", "lower"),
    ("levelset.sdf_ms", "ms", "lower"),
    ("levelset.evolve_ms", "ms", "lower"),
    ("levelset.cfl_ms", "ms", "lower"),
    ("levelset.upsample_ms", "ms", "lower"),
    ("levelset.share", "fraction", "lower"),
    ("core.iterations", "count", "lower"),
    ("core.line_search_evals_per_iter", "count", "lower"),
    ("core.iter_ms.p50", "ms", "lower"),
    ("core.iter_ms.p90", "ms", "lower"),
    ("core.unattributed_share", "fraction", "lower"),
    ("resume.checkpoint_ms", "ms", "lower"),
    ("resume.checkpoint_bytes", "bytes", "lower"),
    ("resume.share", "fraction", "lower"),
    ("tiles.per_field", "count", "lower"),
    ("tiles.warm_share", "fraction", "higher"),
    ("tiles.full_iters_per_tile", "count", "lower"),
    ("tiles.iter_ms", "ms", "lower"),
    ("warmstart.hit_ratio", "fraction", "higher"),
    ("metrics.evaluate_s.p50", "s", "lower"),
    ("metrics.share", "fraction", "lower"),
    ("metrics.epe_violations", "count", "lower"),
    ("metrics.shape_violations", "count", "lower"),
    ("optics.kernel_gen_s", "s", "lower"),
    ("engine.first_job_extra_s", "s", "lower"),
    ("cache.kernels.hit_ratio", "fraction", "higher"),
    ("cache.plan.hit_ratio", "fraction", "higher"),
    ("cache.spectra.hit_ratio", "fraction", "higher"),
    ("parallel.occupancy", "fraction", "higher"),
    ("parallel.imbalance", "ratio", "lower"),
    ("parallel.speedup_vs_1lane", "ratio", "higher"),
    ("trace.overhead_pct", "%", "lower"),
    ("ledger.gap_share", "fraction", "lower"),
    ("host.ref_ms", "ms", "lower"),
    ("host.jobs_per_min", "jobs/min", "higher"),
]

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 40

# How far the per-layer rows of a whole-field job may miss the traced
# engine job's wall time, as a share of it. The rows come from a replay
# of the job a few seconds later, so this also bounds how well the
# replay matches it on a host whose speed drifts.
LEDGER_TOLERANCE = 0.20

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
MAX_END_TO_END = 16
MAX_PER_LAYER = 128
MAX_BOUND = 0.25


def spec():
    """The BENCHMARK.json document."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def render_spec(doc):
    return json.dumps(doc, indent=2) + "\n"


def validate_spec(doc):
    """Returns the list of ways `doc` breaks the benchmark contract."""
    errors = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(doc) != keys:
        errors.append(f"keys {sorted(doc)} != {sorted(keys)}")
        return errors
    if not (1 <= len(doc["paths"]) <= 16):
        errors.append("paths: 1 to 16 entries")
    for p in doc["paths"]:
        if not re.fullmatch(r"[A-Za-z0-9_./-]{1,200}", p) or p.startswith("/") or ".." in p.split("/"):
            errors.append(f"bad path {p!r}")
    cmd = doc["command"]
    if not (1 <= len(cmd) <= 32) or any(len(c) > 200 or c.startswith("/") or ".." in c for c in cmd):
        errors.append("bad command")
    rs = doc["run_seconds"]
    if not (isinstance(rs, int) and 1 <= rs <= 60):
        errors.append("run_seconds must be a whole number from 1 to 60")
    if not (2 <= len(doc["workloads"]) <= 8):
        errors.append("workloads: 2 to 8")
    if not (1 <= len(doc["end_to_end"]) <= MAX_END_TO_END):
        errors.append(f"end_to_end: 1 to {MAX_END_TO_END}")
    if not (1 <= len(doc["per_layer"]) <= MAX_PER_LAYER):
        errors.append(f"per_layer: 1 to {MAX_PER_LAYER}")
    names = []
    for w in doc["workloads"]:
        if set(w) != {"name", "why"}:
            errors.append(f"workload keys {sorted(w)}")
        elif len(w["why"]) > 200 or "\n" in w["why"]:
            errors.append(f"why of {w['name']} is not one line of at most 200 characters")
        names.append(w.get("name", ""))
    for m in doc["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"}:
            errors.append(f"end_to_end keys {sorted(m)}")
            continue
        if not (isinstance(m["bound"], (int, float)) and 0 < m["bound"] <= MAX_BOUND):
            errors.append(f"bound of {m['name']} must be in (0, {MAX_BOUND}]")
    for m in doc["per_layer"]:
        if set(m) != {"name", "unit", "better"}:
            errors.append(f"per_layer keys {sorted(m)}")
    for m in doc["end_to_end"] + doc["per_layer"]:
        names.append(m.get("name", ""))
        if not UNIT_RE.fullmatch(m.get("unit", "")):
            errors.append(f"bad unit {m.get('unit')!r}")
        if m.get("better") not in ("higher", "lower"):
            errors.append(f"bad better {m.get('better')!r}")
    for n in names:
        if not NAME_RE.fullmatch(n):
            errors.append(f"bad name {n!r}")
    if len(set(names)) != len(names):
        errors.append("names are not unique")
    setup = [m for m in doc["end_to_end"] if m.get("name") == "setup_s"]
    if not setup or setup[0].get("unit") != "s" or setup[0].get("better") != "lower":
        errors.append("setup_s (s, lower) is required")
    elif setup[0]["bound"] < max(m["bound"] for m in doc["end_to_end"]):
        errors.append("setup_s must have the largest bound")
    if len(render_spec(doc).encode()) > 64 * 1024:
        errors.append("larger than 64 KiB")
    return errors


# ---------------------------------------------------------------- statistics


def median(values):
    s = sorted(values)
    if not s:
        return math.nan
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2


def quantile(values, q):
    """Linear-interpolation quantile (numpy's default), 0 <= q <= 1."""
    s = sorted(values)
    if not s:
        return math.nan
    pos = q * (len(s) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def quartiles(values):
    """First and third quartile, computed as `statistics.quantiles(values,
    n=4)` does by default (the exclusive method)."""
    s = sorted(values)
    ld = len(s)
    if ld < 2:
        return (s[0], s[0]) if s else (math.nan, math.nan)
    m = ld + 1
    out = []
    for i in (1, 3):
        j = min(max(i * m // 4, 1), ld - 1)
        delta = i * m - j * 4
        out.append((s[j - 1] * (4 - delta) + s[j] * delta) / 4)
    return out[0], out[1]


def quartile_spread(values):
    """Distance between the first and third quartile over the median."""
    q1, q3 = quartiles(values)
    m = median(values)
    return (q3 - q1) / m if m else math.inf


def union_length(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total, reach = 0, None
    for start, end in sorted(intervals):
        if reach is None or start >= reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans):
    """Self time of every span, in the spans' time unit: its duration
    minus the part of it that its children cover. Children that overlap
    on two lanes are counted once."""
    children = {}
    for s in spans:
        if s["parent"]:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered = [
            (max(c["start_ns"], s["start_ns"]), min(c["end_ns"], s["end_ns"]))
            for c in children.get(s["id"], [])
        ]
        covered = [(a, b) for a, b in covered if b > a]
        out[s["id"]] = (s["end_ns"] - s["start_ns"]) - union_length(covered)
    return out


# ---------------------------------------------------------------- reductions


def reduce_measure(raw):
    """End-to-end metrics of an untraced run. Job wall and CPU times are
    taken over the median of the reference times measured through the
    run. The reference slows with the host as the jobs do, so the ratios
    cancel the host's speed and keep the program's; the median keeps one
    reference time caught in a short burst of load from moving them."""
    walls, cpus = raw["job_s"], raw["job_cpu_s"]
    ref = median(raw["ref_s"])
    n = len(walls)
    metrics = {
        "jobs_per_kref": (1000.0 * n * ref / sum(walls) if n else math.nan, "jobs/kref"),
        "job_ref.p50": (median(walls) / ref, "ref"),
        "cpu_ref_per_job": (sum(cpus) / n / ref if n else math.nan, "ref"),
        "setup_s": (median(raw["setup_s"]), "s"),
        "peak_rss_mib": (raw["peak_rss_mib"], "MiB"),
        "pvb_nm2": (raw["pvb_nm2"], "nm2"),
        "final_cost_ratio": (raw["final_cost_ratio"], "ratio"),
    }
    return metrics, list(raw["failures"])


def wall_clock(raw):
    """The untraced run's plain wall-clock figures, printed for reading
    beside the result line; they move with the host's speed."""
    jobs = raw["job_s"]
    return {
        "jobs_per_min": 60.0 * len(jobs) / sum(jobs) if jobs else math.nan,
        "job_s.p50": median(jobs),
        "cpu_s_per_job": sum(raw["job_cpu_s"]) / len(jobs) if jobs else math.nan,
        "reference_ms.p50": 1e3 * median(raw["ref_s"]),
    }


def _ratio(hits, misses):
    total = hits + misses
    return hits / total if total else 0.0


def reduce_trace(raw, baseline_wall_s):
    """Per-layer metrics of a traced run; `baseline_wall_s` is the same
    first traced job's wall time in the one-lane process."""
    jobs = raw["jobs"]
    spans = raw["spans"]
    by_id = {s["id"]: s for s in spans}
    selfs = self_times(spans)
    kids = {}
    for s in spans:
        if s["parent"]:
            kids.setdefault(s["parent"], []).append(s)
    problems = list(raw["failures"])
    lanes = raw["lanes"]
    wall = sum(j["job_s"] for j in jobs)
    evaluate = sum(j["evaluate_s"] for j in jobs)

    def span_total(name):
        return sum(j["spans"].get(name, [0, 0.0, 0.0])[1] for j in jobs)

    def span_calls(name):
        return sum(j["spans"].get(name, [0, 0.0, 0.0])[0] for j in jobs)

    def cache(family):
        hits = sum(j["caches"].get(family, [0, 0])[0] for j in jobs)
        misses = sum(j["caches"].get(family, [0, 0])[1] for j in jobs)
        return _ratio(hits, misses)

    m = {}
    iter_ms = [1e3 * d for j in jobs for d in j["iter_s"] if d > 0]
    iterations = sum(j["iterations"] for j in jobs)
    if all("replay" in j for j in jobs):
        aerial, gradient, fine_iters, line_search = [], [], 0, 0
        litho = levelset = resume = unattributed = rows = 0.0
        for j in jobs:
            r = j["replay"]
            children = kids.get(r["span"], [])
            aerial += [(c["end_ns"] - c["start_ns"]) * 1e-6 for c in children if c["name"] == "litho.aerial"]
            gradient += [(c["end_ns"] - c["start_ns"]) * 1e-6 for c in children if c["name"] == "litho.gradient"]
            fine_iters += r["iterations"] - r["coarse_iterations"]
            line_search += r["line_search_calls"]
            span = by_id[r["span"]]
            covered = (span["end_ns"] - span["start_ns"] - selfs[r["span"]]) * 1e-9
            job_litho = covered + r["coarse_backend_s"]
            job_unattributed = selfs[r["span"]] * 1e-9 - r["levelset_s"] - r["checkpoint_s"] - r["coarse_backend_s"]
            litho += job_litho
            levelset += r["levelset_s"]
            resume += r["checkpoint_s"]
            unattributed += job_unattributed
            rows += job_litho + r["levelset_s"] + r["checkpoint_s"] + job_unattributed + j["evaluate_s"]
            if job_unattributed < -LEDGER_TOLERANCE * j["job_s"]:
                problems.append(f"traced job {jobs.index(j)}: layer rows exceed the replay's wall time")
        gap = (rows - wall) / wall
        if abs(gap) > LEDGER_TOLERANCE:
            problems.append(f"layer rows miss the traced job wall time by {gap:+.1%}")
        m["litho.aerial_calls_per_iter"] = len(aerial) / fine_iters
        m["litho.gradient_calls_per_iter"] = len(gradient) / fine_iters
        m["litho.aerial_ms.p50"] = median(aerial)
        m["litho.gradient_ms.p50"] = median(gradient)
        m["litho.share"] = litho / wall
        m["levelset.share"] = levelset / wall
        m["resume.share"] = resume / wall
        m["core.unattributed_share"] = unattributed / wall
        m["core.line_search_evals_per_iter"] = line_search / iterations
        m["ledger.gap_share"] = gap
        speedup_base = jobs[0]["replay"]["wall_s"]
    else:
        # Tiled jobs fan tiles out over the pool, so their layer time is
        # lane time: span totals over (submit wall x lanes).
        lane_s = sum(j["submit_s"] for j in jobs) * lanes
        tile_iters = sum(j["tile_iterations"] for j in jobs)
        backend = span_total("backend.accel.aerial") + span_total("backend.accel.gradient")
        ls = sum(j["levelset_s"] for j in jobs)
        m["litho.aerial_calls_per_iter"] = span_calls("backend.accel.aerial") / tile_iters
        m["litho.gradient_calls_per_iter"] = span_calls("backend.accel.gradient") / tile_iters
        m["litho.aerial_ms.p50"] = median([1e3 * j["spans"].get("backend.accel.aerial", [0, 0, 0])[2] for j in jobs])
        m["litho.gradient_ms.p50"] = median([1e3 * j["spans"].get("backend.accel.gradient", [0, 0, 0])[2] for j in jobs])
        m["litho.share"] = backend / lane_s
        m["levelset.share"] = ls / lane_s
        m["resume.share"] = 0.0
        m["core.unattributed_share"] = max(0.0, 1.0 - m["litho.share"] - m["levelset.share"])
        m["core.line_search_evals_per_iter"] = span_calls("optimize.line_search") / tile_iters
        m["ledger.gap_share"] = 0.0
        iterations = tile_iters
        speedup_base = jobs[0]["submit_s"]

    iso = raw["isolated"]
    n = raw["solve_px"]
    points = n * n
    m["fft.forward_ms"] = 1e3 * iso["fft.forward"]
    m["fft.inverse_band_batch_ms"] = 1e3 * iso["fft.inverse_band_batch"]
    m["fft.rfft_forward_ms"] = 1e3 * iso["fft.rfft_forward"]
    # 5 N log2 N flops per complex transform of N points.
    m["fft.gflops_computed"] = 5 * points * math.log2(points) / iso["fft.forward"] * 1e-9
    # Row pass and column pass each read and write the whole grid.
    m["fft.bytes_computed"] = 4 * points * raw["complex_bytes"]
    for name in ("sdf", "evolve", "cfl", "upsample"):
        m[f"levelset.{name}_ms"] = 1e3 * iso[f"levelset.{name}"]
    m["core.iterations"] = iterations / len(jobs)
    m["core.iter_ms.p50"] = quantile(iter_ms, 0.5) if iter_ms else 0.0
    m["core.iter_ms.p90"] = quantile(iter_ms, 0.9) if iter_ms else 0.0
    writes = span_calls("checkpoint.write")
    m["resume.checkpoint_ms"] = 1e3 * span_total("checkpoint.write") / writes if writes else 0.0
    m["resume.checkpoint_bytes"] = sum(j["checkpoint_bytes"] for j in jobs) / len(jobs)
    tiles = sum(j.get("tiles", 0) for j in jobs)
    m["tiles.per_field"] = tiles / len(jobs)
    m["tiles.warm_share"] = sum(j.get("warm_tiles", 0) for j in jobs) / tiles if tiles else 0.0
    tile_iters = sum(j.get("tile_iterations", 0) for j in jobs)
    m["tiles.full_iters_per_tile"] = tile_iters / tiles if tiles else 0.0
    m["tiles.iter_ms"] = 1e3 * sum(j["submit_s"] for j in jobs) / tile_iters if tile_iters else 0.0
    m["warmstart.hit_ratio"] = cache("warmstart")
    m["metrics.evaluate_s.p50"] = median([j["evaluate_s"] for j in jobs])
    m["metrics.share"] = evaluate / wall
    m["metrics.epe_violations"] = sum(j["epe_violations"] for j in jobs)
    m["metrics.shape_violations"] = sum(j["shape_violations"] for j in jobs)
    m["optics.kernel_gen_s"] = iso["optics.kernel_gen"]
    m["engine.first_job_extra_s"] = raw["cold_probe_s"] - raw["warm_probe_s"]
    for family in ("kernels", "plan", "spectra"):
        m[f"cache.{family}.hit_ratio"] = cache(family)
    m["parallel.occupancy"] = raw["occupancy"]
    m["parallel.imbalance"] = raw["imbalance"]
    m["parallel.speedup_vs_1lane"] = baseline_wall_s / speedup_base
    m["trace.overhead_pct"] = 100.0 * (wall - raw["untraced_s"]) / raw["untraced_s"]
    m["host.ref_ms"] = 1e3 * raw["reference_s"]
    m["host.jobs_per_min"] = 60.0 * raw["untraced_jobs"] / raw["untraced_s"]

    units = {n: u for n, u, _ in PER_LAYER}
    return {k: (v, units[k]) for k, v in m.items()}, problems


def spreads(result_lines):
    """Per end-to-end metric: (median, quartile spread, bound) over the
    result lines of repeated runs of one workload: the figures that show
    whether the workload is steady enough for its bounds."""
    runs = [json.loads(line)["metrics"] for line in result_lines]
    out = {}
    for name, _, _, bound in END_TO_END:
        values = [r[name]["value"] for r in runs if name in r]
        if values:
            out[name] = (median(values), quartile_spread(values), bound)
    return out


def result_line(metrics, attempted, failed, problems):
    """The benchmark's last stdout line. `failed` counts failed jobs;
    `problems` lists every failed check, those jobs included."""
    correct = not problems and all(
        isinstance(v, (int, float)) and math.isfinite(v) for v, _ in metrics.values()
    )
    return json.dumps({
        "correct": correct,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })
