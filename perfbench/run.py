"""Benchmark of the `gpd` command line, end to end and per layer.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program is used from source
(`src/` on PYTHONPATH); nothing is installed.  Every CLI call runs in a
fresh child interpreter, started one at a time from this process, so no
call benefits from a module-level cache filled by another call, just as
for a user of the command line.

Times are taken at a reference speed: a child's CPU time (user + sys,
from `os.wait4`) scaled by the speed of the CPU it ran on, which this
process samples with a fixed probe while the child runs (see Runner).
On a shared host the speed of a CPU swings by up to 2x within seconds,
so raw wall times of the same pass spread by 30%; times at reference
speed spread by a few percent.

--trace 0 repeats passes over the workload's calls for S seconds and
reports the end-to-end metrics: the median time of one pass
(`pass_cpu_s`), the median cold start (`setup_s`: start Python, import
`gpd.cli`, exit), both at reference speed, the largest child RSS
(`peak_rss_mb`) and the share of calls whose output was correct
(`ok_share`).

--trace 1 alternates untraced passes with passes whose children run
through trace_child.py, and reports the per-layer metrics: span times,
self times and exact work counts per `gpd` module, the time of every
call (span times too) at reference speed, the tracing overhead and the raw median pass
wall time (`wall_s`).

Every call is checked: exit code 0, empty stderr, no FAIL row, outputs
equal across passes (and between traced and untraced children), and
equal to the digest recorded in digests.json for this workload and seed
when there is one.  Checks that need no digest run once per call in
every run: each diagram re-parses and re-emits byte-identically through
`gpd convert`, each type B diagram equals the barcode from oracle.py,
and each erosion distance is finite and at least the lower bound built
into its input.
The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  Without the program next to it,
the script exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from time import perf_counter, sleep, thread_time_ns

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
from workloads import CALL_LABELS, ROOT, WORKLOADS  # noqa: E402

SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
TRACE_CHILD = HERE / "trace_child.py"
# A run never lasts longer than this, whatever --seconds says.
HARD_LIMIT_S = 170.0
COLD_STARTS_FIRST = 3
# Probe period while a child runs, and the CPU time of one probe slice
# that defines the reference speed: a fixed constant, about the slice's
# time on an idle host, so times at reference speed are close to CPU times.
PROBE_INTERVAL_S = 0.02
REF_PROBE_NS = 300_000

# Per-layer metrics of the traced run, in BENCHMARK.json order.  Names
# ending in _calls are counts of calls; _s are span times; self_s is a
# layer's span time minus the spans nested in it.
SPAN_METRICS = (
    "exact.smith_normal_form", "exact.LatticeQuotient", "exact.LatticeQuotient.coords",
    "exact.field_rref", "matrix.Mat.mul", "homology.persistent_module",
    "pmodule.check_interleaving", "categories.compose", "categories.image_iso_class",
    "categories.make_mor",
)
TIME_ONLY = ("homology.parse_filtration", "homology.interleaving_from_perturbation",
             "homology.perturb", "pmodule.dX_A", "pmodule.dX_B", "diagram.mobius_invert",
             "metrics.erosion_distance")
COUNT_ONLY = ("exact.int_kernel", "exact.lattice_basis", "exact.quotient_invariants",
              "pmodule.evaluate", "diagram.cumulative_at", "diagram.cumulative_at_cell",
              "diagram.diagram_leq", "grothendieck.add", "grothendieck.leq",
              "serialize.diagram_to_json", "serialize.diagram_from_json")
EXTRA_COUNTS = ("exact.smith_normal_form_max_rows", "exact.smith_normal_form_max_cols",
                "exact.smith_normal_form_entries", "exact.field_rref_entries",
                "matrix.Mat.mul_mults", "metrics.candidates_total",
                "metrics.candidates_evaluated")
SELF_LAYERS = ("exact", "matrix", "homology", "categories", "pmodule", "diagram",
               "metrics", "serialize", "cli")


def per_layer_units() -> dict:
    """{metric name: unit} of every per-layer metric."""
    units = {f"{layer}.self_s": "s" for layer in SELF_LAYERS}
    for name in SPAN_METRICS:
        units[f"{name}_calls"] = "count"
        units[f"{name}_s"] = "s"
    units.update({f"{name}_s": "s" for name in TIME_ONLY})
    units.update({f"{name}_calls": "count" for name in COUNT_ONLY})
    units.update({name: "count" for name in EXTRA_COUNTS})
    units["metrics.candidates_evaluated_share"] = "share"
    units.update({f"cli.call.{label}_s": "s" for label in CALL_LABELS})
    units["trace_overhead_s"] = "s"
    units["wall_s"] = "s"
    return units


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Fatal(Exception):
    """The benchmark cannot run here; no result is printed."""


# The probe's matrix: 64 rows of 64 small integers, built once.
PROBE_ROWS = [[(i * 37 + j * 53 + i * j) % 101 - 50 for j in range(64)] for i in range(64)]


def probe_ns() -> int:
    """CPU time, in ns, of one fixed slice of pure-Python work (about
    0.3 ms): copy PROBE_ROWS and clear its first column by integer row
    operations, the kind of work `gpd` does.  Its inverse is the current
    speed of the CPU this process runs on."""
    t0 = thread_time_ns()
    rows = [r[:] for r in PROBE_ROWS]
    piv = rows[0][0]
    for i in range(1, 64):
        f = rows[i][0]
        if f:
            rows[i] = [a * piv - f * b for a, b in zip(rows[i], rows[0])]
    return thread_time_ns() - t0


class Runner:
    """Starts children one at a time and records their times and rusage.

    This process and its children are pinned to one CPU.  While a child
    runs, this process wakes every PROBE_INTERVAL_S and times one probe
    slice on that CPU, so the probes sample the speed the child gets,
    uniformly in time.  A child's CPU time multiplied by the mean probe
    speed is the work it did, and that work divided by the reference
    speed (one slice per REF_PROBE_NS) is its time at reference speed,
    `ref`: the host's speed, which swings by up to 2x within seconds on
    a shared machine, cancels.
    """

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        try:
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        except OSError:
            pass  # unpinned, the probes sample a CPU the child may not run on

    def run(self, argv: list) -> dict:
        """Run one child to completion; kill it if the run's deadline passes."""
        out_path, err_path = self.workdir / "stdout", self.workdir / "stderr"
        probes = [probe_ns()]
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = perf_counter()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                    env=self.env, cwd=str(ROOT))
            try:
                while True:
                    pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                    if pid:
                        break
                    if perf_counter() > self.deadline:
                        proc.kill()
                    sleep(PROBE_INTERVAL_S)
                    probes.append(probe_ns())
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = perf_counter() - t0
        probes.append(probe_ns())
        proc.returncode = os.waitstatus_to_exitcode(status)
        cpu = usage.ru_utime + usage.ru_stime
        speed = statistics.fmean(REF_PROBE_NS / p for p in probes)
        return {"code": proc.returncode, "wall": wall, "ref": cpu * speed, "speed": speed,
                "rss_mb": usage.ru_maxrss / 1024.0,
                "stdout": out_path.read_bytes(), "stderr": err_path.read_bytes()}

    def gpd(self, args: list) -> dict:
        return self.run([sys.executable, "-m", "gpd.cli", *args])

    def traced(self, args: list, trace_path: Path) -> dict:
        trace_path.unlink(missing_ok=True)
        res = self.run([sys.executable, str(TRACE_CHILD), str(trace_path), "--", *args])
        res["trace"] = json.loads(trace_path.read_text()) if res["code"] == 0 else None
        if res["trace"] is not None:  # span times at reference speed, like the call's
            for part in ("span_s", "self_s"):
                res["trace"][part] = {k: t * res["speed"] for k, t in res["trace"][part].items()}
        return res

    def cold_start(self) -> float:
        res = self.run([sys.executable, "-c", "import gpd.cli"])
        if res["code"] != 0 or res["stderr"]:
            raise Fatal(f"cannot import gpd.cli from {SRC}: "
                        f"{res['stderr'].decode(errors='replace').strip()}")
        return res["ref"]


def call_problems(label: str, res: dict, check, recorded: dict | None, first: dict) -> list:
    """Reasons why one call's output is wrong; empty when it is right."""
    problems = []
    if res["code"] != 0:
        problems.append(f"exit code {res['code']}")
    if res["stderr"]:
        problems.append("stderr: " + res["stderr"].decode(errors="replace").strip()[-300:])
    if check[0] == "stability" and b"FAIL" in res["stdout"]:
        problems.append("a stability trial reads FAIL")
    if recorded is not None and sha256(res["stdout"]) != recorded.get(label):
        problems.append("output differs from the recorded digest")
    if label in first and res["stdout"] != first[label]:
        problems.append("output differs from the first pass")
    return problems


def erosion_problems(out: bytes, gap: Fraction) -> list:
    head = out.decode(errors="replace").split("\n", 1)[0].split("\t")
    if len(head) != 2 or head[0] != "distance" or head[1] == "inf":
        return ["erosion distance missing or infinite"]
    try:
        distance = Fraction(head[1])
    except ValueError:
        return [f"erosion distance {head[1]!r} is not a rational"]
    if distance < gap:
        return [f"erosion distance {head[1]} is below the lower bound {gap}"]
    return []


def reference_free_problems(runner: Runner, label: str, out: bytes, check) -> list:
    """Checks that need no recorded digest, run once per call label."""
    if check[0] == "diagram":
        _, flt, coeff, dtype = check
        path = runner.workdir / f"{label}.json"
        path.write_bytes(out)
        res = runner.gpd(["convert", "--input", str(path), "--format", "json"])
        if res["code"] != 0 or res["stdout"] != out:
            return ["diagram JSON does not re-emit byte-identically"]
        if dtype == "B":
            try:
                return oracle.diagram_problems(Path(flt).read_text(), out, coeff)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                return [f"diagram JSON is malformed: {exc!r}"]
    elif check[0] == "erosion":
        return erosion_problems(out, check[1])
    return []


def median(xs):
    return statistics.median(xs) if xs else 0.0


def per_layer_metrics(traces: list, untraced_calls: dict, walls: list, refs: list,
                      traced_refs: list) -> tuple[dict, list]:
    """Per-layer metrics from the traced passes, and any count mismatch."""
    units = per_layer_units()

    def one(pass_traces):
        calls, span, self_s, extra = {}, {}, {}, {}
        for tr in pass_traces:
            for k, v in tr["calls"].items():
                calls[k] = calls.get(k, 0) + v
            for k, v in tr["span_s"].items():
                span[k] = span.get(k, 0.0) + v
            for k, v in tr["self_s"].items():
                self_s[k] = self_s.get(k, 0.0) + v
            for k, v in tr["extra"].items():
                extra[k] = max(extra.get(k, 0), v) if k.endswith(("_max_rows", "_max_cols")) \
                    else extra.get(k, 0) + v
        counts = {f"{n}_calls": calls.get(n, 0) for n in SPAN_METRICS + COUNT_ONLY}
        counts.update({n: extra.get(n, 0) for n in EXTRA_COUNTS})
        times = {f"{layer}.self_s": self_s.get(layer, 0.0) for layer in SELF_LAYERS}
        times.update({f"{n}_s": span.get(n, 0.0) for n in SPAN_METRICS + TIME_ONLY})
        return counts, times

    per_pass = [one(p) for p in traces]
    counts = per_pass[0][0]
    problems = [] if all(c == counts for c, _ in per_pass) else \
        ["work counts differ between traced passes"]
    values = dict(counts)
    for name in per_pass[0][1]:
        values[name] = median([t[name] for _, t in per_pass])
    total = values["metrics.candidates_total"]
    values["metrics.candidates_evaluated_share"] = \
        values["metrics.candidates_evaluated"] / total if total else 0.0
    for label in CALL_LABELS:
        values[f"cli.call.{label}_s"] = median(untraced_calls.get(label, []))
    values["trace_overhead_s"] = median(traced_refs) - median(refs)
    values["wall_s"] = median(walls)
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}, problems


def measure(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    started = perf_counter()
    runner = Runner(workdir, started + HARD_LIMIT_S)
    if not (SRC / "gpd" / "cli.py").is_file():
        raise Fatal(f"no gpd sources under {SRC}")
    calls, input_files, checks = WORKLOADS[workload](seed, workdir)
    digests = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    recorded = digests.get(workload, {}).get(str(seed))
    input_digests = {name: sha256(Path(p).read_bytes()) for name, p in input_files.items()}
    if recorded is not None and recorded["inputs"] != input_digests:
        raise Fatal(f"inputs of {workload} seed {seed} differ from the recorded digests")
    for name, digest in sorted(input_digests.items()):
        print(f"input {name} sha256 {digest}")

    setup = [runner.cold_start() for _ in range(COLD_STARTS_FIRST)]
    walls, traced_walls, refs, traced_refs, peak_rss = [], [], [], [], 0.0
    untraced_calls: dict = {}
    first: dict = {}
    traces: list = []
    attempted, problems = 0, []
    failed_calls = set()  # (pass number, label)
    t_measure = perf_counter()
    traced_next = False
    while True:
        traced_pass = trace and traced_next
        t_pass = perf_counter()
        pass_traces, pass_ref = [], 0.0
        for label, argv in calls:
            if traced_pass:
                res = runner.traced(argv, workdir / "trace.json")
                pass_traces.append(res["trace"])
            else:
                res = runner.gpd(argv)
                untraced_calls.setdefault(label, []).append(res["ref"])
                peak_rss = max(peak_rss, res["rss_mb"])
            pass_ref += res["ref"]
            attempted += 1
            bad = call_problems(label, res, checks[label], recorded, first)
            first.setdefault(label, res["stdout"])
            if bad:
                failed_calls.add((len(walls) + len(traced_walls), label))
                problems += [f"{label}: {p}" for p in bad]
        (traced_walls if traced_pass else walls).append(perf_counter() - t_pass)
        (traced_refs if traced_pass else refs).append(pass_ref)
        if traced_pass and all(t is not None for t in pass_traces):
            traces.append(pass_traces)
        setup += [runner.cold_start(), runner.cold_start()]
        traced_next = not traced_next
        elapsed = perf_counter() - t_measure
        passes = walls + traced_walls
        enough = walls and (traced_walls or not trace)
        if perf_counter() - started > HARD_LIMIT_S - 2 * max(passes):
            break
        if enough and elapsed + median(passes) > seconds:
            break

    for label, _ in calls:
        bad = reference_free_problems(runner, label, first[label], checks[label])
        if bad:
            failed_calls.add((0, label))  # the checked output is the first pass's
            problems += [f"{label}: {p}" for p in bad]

    print(f"workload {workload} seed {seed}: {len(walls)} passes, "
          f"wall {' '.join(f'{w:.3f}' for w in walls)}; pass_cpu_s "
          f"{' '.join(f'{r:.3f}' for r in refs)}; setup_s "
          f"{' '.join(f'{s:.3f}' for s in setup)}; "
          f"digests {'recorded' if recorded is not None else 'not recorded, reference-free checks'}")
    for p in problems:
        print(f"problem: {p}")

    if trace:
        if not traces:
            problems.append("no traced pass completed")
            metrics = {name: {"value": 0, "unit": unit} for name, unit in per_layer_units().items()}
        else:
            metrics, count_problems = per_layer_metrics(traces, untraced_calls, walls, refs,
                                                       traced_refs)
            problems += count_problems
            for p in count_problems:
                print(f"problem: {p}")
    else:
        metrics = {
            "pass_cpu_s": {"value": median(refs), "unit": "s"},
            "setup_s": {"value": median(setup), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss, "unit": "MB"},
            "ok_share": {"value": (attempted - len(failed_calls)) / attempted, "unit": "share"},
        }
    return {"correct": not problems, "attempted": attempted, "failed": len(failed_calls),
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    (HERE / "work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=HERE / "work"))
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    except Fatal as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
