"""torushom benchmark: exact torus-link series, braid-variety counts, curve cells.

usage: python3 torusbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src/`` directory, so nothing needs installing.  ``--workload all`` runs every
workload in turn.

A run is a closed loop, one client, ``threads=1``: passes through the
workload's jobs run one after another, each in a fresh child process, so that
every pass starts with a cold recursion memo and has its own peak RSS.  Passes
continue while one more brings the run's end nearer to ``--seconds``; at least
one always runs.  Every job's output is checked (see workloads.py).

``--trace 0`` reports the end-to-end metrics: medians over the passes of
``wall_s`` (one pass through the jobs), ``cpu_s`` (user + sys of those jobs),
``peak_rss_mb`` and ``setup_s`` (process start, ``import torushom`` and input
construction; sampled also in extra set-up-only processes).

``--trace 1`` alternates untraced and traced passes and reports the per-layer
metrics from the traced ones (see tracer.py): exact counts from the first
traced pass, each layer's time as a share of the traced pass, medians of
shares and rates, ``trace.wall_s`` and ``trace.overhead_s`` (traced minus
untraced median ``wall_s``).  Spans are written to ``.bench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("torus-series", "hecke-fold", "verify-all", "curve-cells")
SUITES = (
    "hm-paper-tables", "two-strand-oracle", "braid-variety-closed-forms",
    "hecke-vs-brute", "knot-divisibility", "catalan-triple", "jacobian-cells",
    "hilb-series", "ors-maulik", "qt-symmetry",
)
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def spawn(workload: str, seed: int, pass_index: int, mode: str) -> dict:
    """Run one child process to completion and return its JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(seed), str(pass_index), mode, repr(t0)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} pass of {workload} exceeded {CHILD_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} pass of {workload} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run_passes(workload: str, seed: int, seconds: int, modes: tuple[str, ...]) -> dict[str, list[dict]]:
    """Cycle through ``modes`` one pass at a time until the time is spent."""
    passes: dict[str, list[dict]] = {mode: [] for mode in modes}
    lifetimes = []
    start = time.monotonic()
    index = 0
    while True:
        mode = modes[index % len(modes)]
        begun = time.monotonic()
        # A traced pass gets the same inputs as the untraced pass before it.
        passes[mode].append(spawn(workload, seed, index // len(modes), mode))
        lifetimes.append(time.monotonic() - begun)
        index += 1
        # Stop where the run ends nearest to ``seconds``: past that point the
        # next pass would overshoot by more than the time now left.
        next_midpoint = time.monotonic() - start + statistics.median(lifetimes) / 2
        if index >= len(modes) and next_midpoint > seconds:
            return passes


def layer_metrics(layers: dict, numpy_loaded: int, wall_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, by name, with units.

    Layer time is given as a share of the pass's wall time (``*_frac``): a
    layer that a workload bypasses then reads 0 without being a time that is
    identical on every run, and machine speed cancels out.  The seconds are
    in the human-readable report and the trace file.
    """

    def get(layer: str, key: str):
        return layers.get(layer, {}).get(key, 0)

    def ratio(num, den) -> float:
        return num / den if den else 0.0

    def share(layer: str, key: str = "self_s") -> tuple[float, str]:
        return ratio(get(layer, key), wall_s), "frac"

    out: dict[str, tuple[float, str]] = {}
    for kernel in ("lp_mul", "lp_add", "ratfunc_add", "normalize"):
        layer = f"algebra.{kernel}"
        out[f"{layer}.calls"] = (get(layer, "calls"), "count")
        if kernel == "lp_mul":
            out[f"{layer}.term_products"] = (get(layer, "term_products"), "count")
        if kernel == "normalize":
            out[f"{layer}.divisions"] = (get(layer, "divisions"), "count")
        out[f"{layer}.self_frac"] = share(layer)

    states = get("recursion", "states")
    out["recursion.states"] = (states, "count")
    out["recursion.self_frac"] = share("recursion")
    out["recursion.states_per_s"] = (ratio(states, get("recursion", "total_s")), "1/s")
    out["recursion.num_terms"] = (get("recursion", "num_terms"), "count")
    out["recursion.max_coeff_bits"] = (get("recursion", "max_coeff_bits"), "bits")

    letters = get("hecke.fold", "letters")
    out["hecke.fold.calls"] = (get("hecke.fold", "calls"), "count")
    out["hecke.fold.letters"] = (letters, "count")
    out["hecke.fold.support"] = (get("hecke.fold", "support"), "count")
    out["hecke.fold.self_frac"] = share("hecke.fold")
    out["hecke.fold.letters_per_s"] = (ratio(letters, get("hecke.fold", "self_s")), "1/s")
    out["hecke.fold.useful_frac"] = (
        ratio(get("hecke.fold", "coefficients_read"), get("hecke.fold", "support_total")), "frac")
    out["hecke.point_count.calls"] = (get("hecke.point_count", "calls"), "count")
    out["hecke.point_count.self_frac"] = share("hecke.point_count")
    tuples = get("hecke.brute", "tuples")
    out["hecke.brute.tuples"] = (tuples, "count")
    out["hecke.brute.self_frac"] = share("hecke.brute")
    out["hecke.brute.tuples_per_s"] = (ratio(tuples, get("hecke.brute", "self_s")), "1/s")

    assignments = get("curves.cell", "assignments")
    out["curves.modules"] = (get("curves.cell", "modules"), "count")
    out["curves.assignments"] = (assignments, "count")
    out["curves.closed_frac"] = (ratio(get("curves.cell", "closed"), assignments), "frac")
    out["curves.assignments_per_s"] = (ratio(assignments, get("curves.cell", "self_s")), "1/s")
    out["curves.cell.self_frac"] = share("curves.cell")
    out["curves.enumerate.self_frac"] = share("curves.enumerate")

    out["soergel.two_strand.calls"] = (get("soergel.two_strand", "calls"), "count")
    out["soergel.two_strand.self_frac"] = share("soergel.two_strand")
    for suite in SUITES:
        out[f"verify.{suite}.frac"] = share(f"verify.{suite}", "total_s")
    verify_self = sum(stats["self_s"] for name, stats in layers.items() if name.startswith("verify."))
    out["verify.self_frac"] = (ratio(verify_self, wall_s), "frac")
    out["setup.numpy_loaded"] = (numpy_loaded, "count")
    return out


def end_to_end(workload: str, seed: int, seconds: int):
    """Untraced passes, plus set-up-only processes for more set-up samples."""
    setups = [spawn(workload, seed, 0, "setup")["setup_s"] for _ in range(SETUP_SAMPLES)]
    passes = run_passes(workload, seed, seconds, ("plain",))
    plain = passes["plain"]
    metrics = {
        "wall_s": (statistics.median(p["wall_s"] for p in plain), "s"),
        "cpu_s": (statistics.median(p["cpu_s"] for p in plain), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in plain), "MB"),
        "setup_s": (statistics.median(setups + [p["setup_s"] for p in plain]), "s"),
    }
    return passes, metrics, []


def per_layer(workload: str, seed: int, seconds: int):
    """Alternating untraced and traced passes: layer metrics and overhead."""
    passes = run_passes(workload, seed, seconds, ("plain", "traced"))
    traced = passes["traced"]
    per_pass = [layer_metrics(p["layers"], p["numpy_loaded"], p["wall_s"]) for p in traced]
    metrics, notes = {}, []
    for name, (first, unit) in per_pass[0].items():
        values = [m[name][0] for m in per_pass]
        if unit in ("count", "bits"):
            if any(v != first for v in values):
                notes.append(f"warning: {name} differs between traced passes: {values}")
            metrics[name] = (first, unit)
        else:
            metrics[name] = (statistics.median(values), unit)
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - statistics.median(p["wall_s"] for p in passes["plain"]), "s")
    last = traced[-1]["layers"]
    notes.append("seconds per layer in the last traced pass (calls, self, total):")
    for layer, stats in last.items():
        if stats["calls"] and layer != "job":
            notes.append(f"  {layer:<36} {stats['calls']:>8}  {stats['self_s']:10.4f} s  {stats['total_s']:10.4f} s")
    by_segment = traced[0]["layers"].get("recursion", {}).get("states_by_segment", [])
    if by_segment:
        notes.append(f"recursion.states per cold start: {by_segment}")
    hook_errors = {layer: error for p in traced for layer, error in p["hook_errors"].items()}
    for layer, error in hook_errors.items():
        notes.append(f"warning: {layer} counters incomplete, tracer hook failed: {error}")
    return passes, metrics, notes


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """One benchmark run of one workload: metrics, job counts and job report."""
    passes, metrics, notes = (per_layer if trace else end_to_end)(workload, seed, seconds)
    jobs = [job for mode_passes in passes.values() for p in mode_passes for job in p["jobs"]]
    return {
        "workload": workload,
        "passes": {mode: len(p) for mode, p in passes.items()},
        "attempted": len(jobs),
        "failed": [job for job in jobs if job["problems"]],
        "metrics": metrics,
        "notes": notes,
        "job_seconds": {job["name"]: job["seconds"] for p in passes["plain"] for job in p["jobs"]},
    }


def report(run: dict) -> None:
    """Human-readable lines; the JSON result follows as the last line."""
    attempted, failed = run["attempted"], len(run["failed"])
    passes = ", ".join(f"{n} {mode}" for mode, n in run["passes"].items())
    print(f"== {run['workload']}: {passes} passes, {attempted} jobs, {failed} failed, "
          f"failed_frac {failed / attempted:.4f}")
    for name, seconds in run["job_seconds"].items():
        print(f"   job {name:<46} {seconds:10.3f} s (last pass)")
    for job in run["failed"]:
        for problem in job["problems"]:
            print(f"   FAILED {problem}")
    for note in run["notes"]:
        print(f"   {note}")
    for name, (value, unit) in run["metrics"].items():
        text = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6g}"
        print(f"   {name:<40} {text} {unit}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="torushom benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "torushom" / "__init__.py").is_file():
        print(f"error: no torushom source tree at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    runs = []
    try:
        for name in names:
            run = measure(name, args.seed, args.seconds, bool(args.trace))
            report(run)
            runs.append(run)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    prefix = len(runs) > 1
    metrics = {
        (f"{run['workload']}.{name}" if prefix else name): {"value": value, "unit": unit}
        for run in runs
        for name, (value, unit) in run["metrics"].items()
    }
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(len(run["failed"]) for run in runs)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
