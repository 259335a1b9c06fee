"""Benchmark of `randstep converge`, end to end and layer by layer.

Usage (from the root of a checkout that holds src/randstep):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in WORKLOADS, or `all` to run each in turn.
The benchmark drives the real CLI, `python3 -m randstep.cli converge
--config ... --seed ... --workers ...`, in a fresh process per run, one
run at a time (closed loop, one client).  The program is imported from
the checkout's own src/, never from an installed copy.

Each run of the benchmark does, in order, for one workload:

1. On oracle-affine, cross-check the exact flow against a stiff ODE
   solver (oracle_check.py).
2. With --trace 0, time SETUP_SAMPLES fresh interpreters that import
   randstep.cli and load the config (setup_s).
3. Check run: the CLI at the config's committed seed.  Its report.json
   and series.csv must be complete and finite and match
   perfbench/reference/<workload>/ to REFERENCE_RTOL.  It runs right
   before the window, so it also warms caches and memory.
4. Timed window of --seconds: CLI runs at --seed while the next run is
   predicted to end inside the window (at least MIN_RUNS).  With
   --trace 1 each step is a pair of an untraced run and a run under
   traced_cli.py, both with TRACE_WORKERS.  Every run's
   outputs must be complete and finite and byte-identical to the first
   run's.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The lines before it name each metric
with its unit and sample count, then the provenance.  A full record is
written to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench_out"

WORKLOADS = {
    "ens-wide": {"workers": 1, "oracle_check": False},
    "ens-many-w2": {"workers": 2, "oracle_check": False},
    "oracle-affine": {"workers": 1, "oracle_check": True},
}
# pool workers do not send spans back, so traced runs use one process
TRACE_WORKERS = 1

SETUP_SAMPLES = 5
MIN_RUNS = 2
# a run that is not over this long after the benchmark started is killed
HARD_LIMIT_S = 170.0

# Outputs are byte-identical for one numpy build.  Another build may round
# exp/expm1 differently in the last bit; the Orlicz bisection stops at a
# relative bracket of 1e-6, so such a bit can move err_psi2 and the bound
# by up to about 1e-6.  1e-5 allows that tenfold, while any change to the
# random streams, the recursion or an estimator moves the errors by the
# Monte Carlo error, 1e-3 or more at these ensemble sizes.
REFERENCE_RTOL = 1e-5

CSV_COLUMNS = ["h", "err_l2_maxnorm", "err_l2_normmax", "err_psi2", "bound"]
REPORT_NUMBERS = (
    "slope", "intercept", "r2", "theory_slope", "measured_c_phi_psi", "lipschitz", "noise_amplitude",
)
SERIES_NUMBERS = ("h", "err_l2_maxnorm", "err_l2_normmax", "err_psi2", "samples", "r")

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cpu_s": "s",
}

# per-layer metric -> (span name, statistic); "nbytes" sums the sizes of the
# arrays the span returned, computed by traced_cli.py, not measured traffic
PER_LAYER = {
    "config.load_config.s": ("config.load_config", "s"),
    "grids.build_grid.calls": ("grids.build_grid", "calls"),
    "problems.exact_flow.calls": ("problems.exact_flow", "calls"),
    "problems.exact_flow.self_s": ("problems.exact_flow", "self_s"),
    "integrators.step.calls": ("integrators.step", "calls"),
    "integrators.step.self_s": ("integrators.step", "self_s"),
    "randomisation.noise_path.calls": ("randomisation.noise_path", "calls"),
    "randomisation.noise_path.self_s": ("randomisation.noise_path", "self_s"),
    "randomisation.noise_bytes": ("randomisation.noise_path", "nbytes"),
    "randomisation.psi2_amplitude.s": ("randomisation.psi2_amplitude", "s"),
    "sampler.exact_states.calls": ("sampler.exact_states", "calls"),
    "sampler.exact_states.s": ("sampler.exact_states", "s"),
    "sampler.measure_truncation_constant.s": ("sampler.measure_truncation_constant", "s"),
    "sampler.trajectory_stream.calls": ("sampler.trajectory_stream", "calls"),
    "sampler.trajectory_stream.self_s": ("sampler.trajectory_stream", "self_s"),
    "sampler.run_ensemble.s": ("sampler.run_ensemble", "s"),
    "sampler.run_ensemble.self_s": ("sampler.run_ensemble", "self_s"),
    "sampler.ensemble_bytes": ("sampler.run_ensemble", "nbytes"),
    "sampler.Ensemble.error_h_norms.s": ("sampler.Ensemble.error_h_norms", "s"),
    "analysis.error_statistics.self_s": ("analysis.error_statistics", "self_s"),
    "analysis.lr_norm_estimate.calls": ("analysis.lr_norm_estimate", "calls"),
    "analysis.orlicz_norm_estimate.s": ("analysis.orlicz_norm_estimate", "s"),
    "cli.main.s": ("cli.main", "s"),
}
STAT_UNITS = {"calls": "count", "s": "s", "self_s": "s", "nbytes": "B"}

# fresh-interpreter set-up: import the CLI module and load the config; the
# printed facts feed the output checks and the provenance
SETUP_PROBE = """
import json, sys, numpy, scipy, randstep.cli
cfg = randstep.cli.load_config(sys.argv[1])
print(json.dumps({
    "randstep_file": randstep.cli.__file__,
    "numpy": numpy.__version__, "scipy": scipy.__version__,
    "m": cfg.ensemble_size, "n_values": [g.num_steps for g in cfg.grids],
    "j": cfg.problem.space.dimension, "meshes": [g.mesh for g in cfg.grids],
    "extra_r": [f"{r:g}" for r in cfg.extra_r], "seed": cfg.seed,
}))
"""


class Session:
    """Launches processes against the program and counts attempts and failures."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def run(self, label: str, argv: list[str], stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL):
        """Spawn argv, wait for it, return (exit code, wall s, cpu s, peak RSS MB).

        cpu and peak RSS come from wait4, so they cover the process and the
        children it reaped (the CLI's pool workers): cpu is their sum, peak
        RSS the largest single peak.  The process runs in its own process
        group, which is killed with it, pool workers included, if it is
        still running at the session deadline or the benchmark is stopped.
        """
        self.attempted += 1
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=self.env, stdout=stdout, stderr=stderr, start_new_session=True
        )

        def kill() -> None:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)

        timer = threading.Timer(max(1.0, self.deadline - start), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            self.fail(f"{label}: exited {proc.returncode}")
        return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)

    def time_left(self, duration: float) -> bool:
        return time.perf_counter() + duration <= self.deadline


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def check_outputs(out: Path, facts: dict, seed: int) -> list[str]:
    """Problems with one run's report.json and series.csv; empty if none.

    Both files must be complete and finite, agree with each other and with
    the config, and satisfy max_k |e_k|_(L^R) <= |max_k |e_k||_(L^R).
    """
    try:
        report = json.loads((out / "report.json").read_text())
        with open(out / "series.csv", newline="") as fh:
            rows = list(csv.reader(fh))
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"]
    problems = []
    grids = len(facts["n_values"])
    if report.get("seed") != seed or report.get("subcommand") != "converge":
        problems.append(f"report is not a converge run at seed {seed}")
    if report.get("ensemble_size") != facts["m"]:
        problems.append("report ensemble_size differs from the config")
    problems += [f"report {k} missing or not finite" for k in REPORT_NUMBERS if not _finite(report.get(k))]
    series, theory = report.get("series") or [], report.get("theory") or []
    if len(series) != grids or len(theory) != grids or not all(map(_finite, theory)):
        return problems + ["report series or theory incomplete"]
    if rows[:1] != [CSV_COLUMNS] or len(rows) != grids + 1:
        return problems + ["series.csv header or row count wrong"]
    for i, (entry, row) in enumerate(zip(series, rows[1:])):
        if not all(_finite(entry.get(k)) for k in SERIES_NUMBERS):
            problems.append(f"series[{i}] missing or not finite")
            continue
        if entry["h"] != facts["meshes"][i] or entry["samples"] != facts["m"]:
            problems.append(f"series[{i}] mesh or sample count differs from the config")
        if entry["err_l2_maxnorm"] > entry["err_l2_normmax"] * (1.0 + 1e-12):
            problems.append(f"series[{i}] max of norm exceeds norm of max")
        extra = entry.get("extra_lr", {})
        if sorted(extra) != sorted(facts["extra_r"]) or not all(
            _finite(v) for pair in extra.values() for v in pair.values()
        ):
            problems.append(f"series[{i}] extra L^R orders missing or not finite")
        expected = [entry[k] for k in CSV_COLUMNS[:-1]] + [theory[i]]
        try:
            cells = [float(v) for v in row]
        except ValueError:
            cells = []
        if cells != expected:
            problems.append(f"series.csv row {i + 1} differs from report.json")
    return problems


def _close(got, want, path: str) -> list[str]:
    if isinstance(got, dict) and isinstance(want, dict):
        if sorted(got) != sorted(want):
            return [f"{path}: keys differ"]
        return [p for k in got for p in _close(got[k], want[k], f"{path}.{k}")]
    if isinstance(got, list) and isinstance(want, list):
        if len(got) != len(want):
            return [f"{path}: lengths differ"]
        return [p for i, (x, y) in enumerate(zip(got, want)) for p in _close(x, y, f"{path}[{i}]")]
    if isinstance(want, float):
        if _finite(got) and abs(got - want) <= REFERENCE_RTOL * max(abs(got), abs(want)):
            return []
    elif got == want:
        return []
    return [f"{path}: {got!r} vs reference {want!r}"]


def compare_reference(out: Path, reference: Path) -> list[str]:
    """Differences of a run's outputs from the stored reference beyond REFERENCE_RTOL."""
    problems = _close(
        json.loads((out / "report.json").read_text()),
        json.loads((reference / "report.json").read_text()),
        "report",
    )
    with open(out / "series.csv", newline="") as fh, open(reference / "series.csv", newline="") as ref:
        got, want = list(csv.reader(fh)), list(csv.reader(ref))
    if got[:1] != want[:1] or len(got) != len(want):
        return problems + ["series.csv: shape differs from reference"]
    for i, (row, ref_row) in enumerate(zip(got[1:], want[1:])):
        problems += _close([float(v) for v in row], [float(v) for v in ref_row], f"series.csv[{i + 1}]")
    return problems


def self_times(spans: list[list]) -> dict[str, dict[str, float]]:
    """calls, total s and self s (span minus its direct child spans) per name."""
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    table: dict[str, dict[str, float]] = {}
    for (name, start, end, _), children in zip(spans, covered):
        row = table.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["s"] += end - start
        row["self_s"] += end - start - children
    return table


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def provenance(name: str, config: Path, facts: dict, seed: int, cli_seed: int, workers: int) -> dict:
    sha = "unavailable: the checkout is not a git repository"
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        sha = got.stdout.strip() or sha
    sources = sorted((ROOT / "src" / "randstep").glob("*.py"))
    return {
        "git_sha": sha,
        "src_sha256": _sha256(b"".join(p.name.encode() + b"\0" + p.read_bytes() for p in sources)),
        "python": platform.python_version(),
        "numpy": facts["numpy"],
        "scipy": facts["scipy"],
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "workload": name,
        "config": str(config.relative_to(ROOT)),
        "config_sha256": _sha256(config.read_bytes()),
        "config_text": config.read_text(),
        "bench_seed": seed,
        "cli_seed": cli_seed,
        "reference_seed": facts["seed"],
        "workers": workers,
        "load": "closed loop, one CLI process at a time",
        "byte_counts": "computed from the nbytes of returned arrays, not measured traffic",
        "peak_rss": "largest ru_maxrss of the CLI process and its reaped pool workers",
    }


class WorkloadRun:
    """One benchmark run of one workload: checks, then the timed window."""

    def __init__(self, name: str, seed: int, seconds: float):
        self.name = name
        self.spec = WORKLOADS[name]
        self.config = BENCH_DIR / "workloads" / f"{name}.ini"
        self.runs_dir = OUT_DIR / name
        self.seed = seed
        self.cli_seed = seed % 2**32
        self.seconds = seconds
        self.session = Session(time.perf_counter() + HARD_LIMIT_S)
        self.first_outputs: bytes | None = None
        self.runs_dir.mkdir(parents=True, exist_ok=True)
        probe_out = self.runs_dir / "probe.json"
        with open(probe_out, "w") as fh:
            self.session.run("set-up probe", self.setup_argv(), stdout=fh)
        self.facts = json.loads(probe_out.read_text())
        if not Path(self.facts["randstep_file"]).resolve().is_relative_to(ROOT / "src"):
            raise SystemExit(f"randstep imported from {self.facts['randstep_file']}, not this checkout")

    def setup_argv(self) -> list[str]:
        return [sys.executable, "-c", SETUP_PROBE, str(self.config)]

    def cli(self, label: str, workers: int, seed_args: list[str], spans: Path | None = None):
        """One CLI run into a fresh output directory; returns (dir, exit code, wall, cpu, rss)."""
        out = self.runs_dir / label
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        if spans is None:
            head = [sys.executable, "-m", "randstep.cli"]
        else:
            head = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(spans)]
        argv = head + ["converge", "--config", str(self.config), "--workers", str(workers), "--out", str(out)]
        with open(self.runs_dir / f"{label}.stderr", "w") as err:
            return (out,) + self.session.run(label, argv + seed_args, stderr=err)

    def check(self) -> None:
        """Check run at the committed seed against the stored reference."""
        out, code, *_ = self.cli("check", self.spec["workers"], [])
        if code == 0:
            found = check_outputs(out, self.facts, self.facts["seed"]) or compare_reference(
                out, BENCH_DIR / "reference" / self.name
            )
            if found:
                self.session.fail("check run: " + "; ".join(found[:5]))

    def oracle_check(self) -> dict:
        result = self.runs_dir / "oracle.json"
        argv = [sys.executable, str(BENCH_DIR / "oracle_check.py"), str(self.config)]
        with open(result, "w") as fh:
            code = self.session.run("oracle cross-check", argv, stdout=fh)[0]
        text = result.read_text()
        return json.loads(text) if text.strip() else {"ok": False, "exit_code": code}

    def timed(self, label: str, workers: int, spans: Path | None = None):
        """A run at the benchmark seed whose outputs must match the first such
        run's; returns (exit code, wall, cpu, rss)."""
        out, code, wall, cpu, rss = self.cli(label, workers, ["--seed", str(self.cli_seed)], spans)
        if code == 0:
            found = check_outputs(out, self.facts, self.cli_seed)
            if not found:
                outputs = (out / "report.json").read_bytes() + (out / "series.csv").read_bytes()
                self.first_outputs = self.first_outputs or outputs
                if outputs != self.first_outputs:
                    found = ["outputs differ from the first run at the same seed"]
            if found:
                self.session.fail(f"{label}: " + "; ".join(found[:5]))
        return code, wall, cpu, rss

    def another(self, done: int, end: float, last_s: float) -> bool:
        """Start another run if it is predicted to end inside the window
        (or fewer than MIN_RUNS ran) and before the hard limit."""
        if not self.session.time_left(last_s):
            return False
        return done < MIN_RUNS or time.perf_counter() + last_s <= end

    def end_to_end(self, setup: list[float], end: float) -> tuple[dict, dict, dict]:
        samples: dict[str, list[float]] = {"setup_s": setup, "wall_s": [], "cpu_s": [], "peak_rss_mb": []}
        while self.another(len(samples["wall_s"]), end, samples["wall_s"][-1] if samples["wall_s"] else 0.0):
            _, wall, cpu, rss = self.timed("timed", self.spec["workers"])
            samples["wall_s"].append(wall)
            samples["cpu_s"].append(cpu)
            samples["peak_rss_mb"].append(rss)
        value = {key: statistics.median(v) for key, v in samples.items()}
        metrics = {key: {"value": value[key], "unit": unit} for key, unit in END_TO_END.items()}
        counts = {key: len(v) for key, v in samples.items()}
        # Work per second, M * sum(N) * J / (wall_s - setup_s).  Printed, not
        # part of the result: it is a function of wall_s and setup_s, and as a
        # reciprocal it spreads more than wall_s when run speed varies.
        work = self.facts["m"] * sum(self.facts["n_values"]) * self.facts["j"]
        busy = value["wall_s"] - value["setup_s"]
        throughput = {"value": work / busy if busy > 0 else 0.0, "unit": "1/s", "mode_steps": work}
        return metrics, {"samples": samples, "mode_steps_per_s": throughput}, counts

    def per_layer(self, end: float) -> tuple[dict, dict, dict]:
        workers = TRACE_WORKERS
        spans_file = self.runs_dir / "spans.json"
        walls: dict[str, list[float]] = {"untraced": [], "traced": []}
        layers: dict[str, list[float]] = {metric: [] for metric in PER_LAYER}
        called: set[str] = set()
        last = 0.0
        while self.another(len(walls["traced"]), end, last):
            walls["untraced"].append(self.timed("untraced", workers)[1])
            code, wall, *_ = self.timed("traced", workers, spans_file)
            walls["traced"].append(wall)
            last = walls["untraced"][-1] + wall
            if code != 0:
                continue
            recorded = json.loads(spans_file.read_text())
            table = self_times(recorded["spans"])
            called.update(table)
            for metric, (span, stat) in PER_LAYER.items():
                value = recorded["nbytes"][span] if stat == "nbytes" else table.get(span, {}).get(stat, 0)
                layers[metric].append(value)
        traced = statistics.median(walls["traced"])
        metrics = {
            metric: {"value": statistics.median(layers[metric] or [0]), "unit": STAT_UNITS[stat]}
            for metric, (_, stat) in PER_LAYER.items()
        }
        metrics["trace.wall_s"] = {"value": traced, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": traced - statistics.median(walls["untraced"]), "unit": "s"}
        counts = {metric: len(layers[metric]) for metric in PER_LAYER}
        counts["trace.wall_s"] = counts["trace.overhead_s"] = len(walls["traced"])
        note = None
        if workers != self.spec["workers"]:
            note = (
                f"layers traced from --workers {workers} runs of the same config; "
                f"untraced workload runs use --workers {self.spec['workers']}"
            )
        extra = {
            "wall_samples": walls,
            "not_called": [m for m, (span, _) in PER_LAYER.items() if span not in called],
            "traced_workers_note": note,
        }
        return metrics, extra, counts

    def result(self, trace: bool) -> dict:
        oracle = self.oracle_check() if self.spec["oracle_check"] else None
        setup = [] if trace else [
            self.session.run("set-up probe", self.setup_argv())[1] for _ in range(SETUP_SAMPLES)
        ]
        # Right before the window, so that it also faults the ensemble's
        # memory back in and the first timed run does not pay for that.
        self.check()
        end = time.perf_counter() + self.seconds
        metrics, extra, counts = self.per_layer(end) if trace else self.end_to_end(setup, end)
        workers = TRACE_WORKERS if trace else self.spec["workers"]
        return {
            "workload": self.name,
            "trace": int(trace),
            "correct": self.session.failed == 0,
            "attempted": self.session.attempted,
            "failed": self.session.failed,
            "problems": self.session.problems,
            "metrics": metrics,
            "sample_counts": counts,
            "oracle_check": oracle,
            "provenance": provenance(self.name, self.config, self.facts, self.seed, self.cli_seed, workers),
            **extra,
        }


def _describe(result: dict) -> list[str]:
    lines = [f"workload {result['workload']} (trace {result['trace']}):"]
    for metric, entry in result["metrics"].items():
        note = f"median of {result['sample_counts'][metric]}"
        if metric in result.get("not_called", []):
            note = "n/a: layer not called"
        elif entry["unit"] == "B":
            note += ", computed from array sizes"
        lines.append(f"  {metric} = {entry['value']:.6g} {entry['unit']} ({note})")
    if "mode_steps_per_s" in result:
        entry = result["mode_steps_per_s"]
        lines.append(
            f"  mode_steps_per_s = {entry['value']:.6g} 1/s "
            f"({entry['mode_steps']} mode steps / (wall_s - setup_s); derived, not in the result)"
        )
    lines.append(
        f"  failed_frac = {result['failed'] / result['attempted']:.6g} "
        f"({result['failed']} of {result['attempted']} runs)"
    )
    if result["oracle_check"] is not None:
        lines.append(f"  oracle cross-check: {json.dumps(result['oracle_check'])}")
    if result.get("traced_workers_note"):
        lines.append(f"  note: {result['traced_workers_note']}")
    lines += [f"  problem: {p}" for p in result["problems"]]
    lines.append("  provenance: " + json.dumps({k: v for k, v in result["provenance"].items() if k != "config_text"}))
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn a stop request into SystemExit, so that running children are killed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "randstep" / "cli.py").is_file():
        print(f"perfbench: no src/randstep under {ROOT}; run from a randstep checkout", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [WorkloadRun(name, args.seed, args.seconds).result(bool(args.trace)) for name in names]
    for result in results:
        record = OUT_DIR / f"{result['workload']}-seed{args.seed}-trace{args.trace}.json"
        record.write_text(json.dumps(result, indent=2) + "\n")
        print("\n".join(_describe(result)))
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
