#!/usr/bin/env python3
"""End-to-end benchmark of the pillowcount command line.

    python3 bench/run.py --workload verify --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 36 --record runs.jsonl
    python3 bench/run.py --compare parent.jsonl change.jsonl

Every command is a fresh ``python -m pillowcount.cli ...`` process.  One
closed-loop client runs the commands of a workload one after another and
starts the next only when the previous one has exited; ``--jobs`` stays at
its default, which is sequential.  A pass is one run of the workload's
command list.  A run makes at least MIN_PASSES passes, and more while one
more is expected to end within ``--seconds``; each metric is the median
over the passes.  Each pass gets a fresh, empty PILLOW_CACHE_DIR inside
the checkout, so no run reads or writes ``~/.cache``.  A command counts
only if it exits 0 and its stdout passes a check that does not trust the
program: a closed form, an invariant, or a golden file captured at the
seed commit (see bench/NOTES.md).

With ``--trace 0`` the run reports the end-to-end metrics in
BENCHMARK.json.  With ``--trace 1`` it makes one untraced pass, then passes
under bench/traced_cli.py, and reports the per-layer metrics; the exact
counts of the traced passes must repeat, or the run fails.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit status is 0 when every
check passed, 1 when a check failed and 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

from traced_cli import COUNTERS, SPANS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDENS = BENCH / "goldens"
TRACED_CLI = BENCH / "traced_cli.py"
SPEC_PATH = ROOT / "BENCHMARK.json"
WORK = BENCH / "_work"

SETUP_REPEATS = 5
MIN_PASSES = 3  # so that one slow pass cannot set the median
TRACED_PASSES = 2
COMMAND_TIMEOUT_S = 170
MIN_VERIFY_CHECKS = 35  # the checks `verify` runs at the seed commit

# spans reported by their time alone, under another name
TIME_ONLY_SPANS = {"covers.cache_load": "covers.cache_load_s", "covers.cache_flush": "covers.cache_flush_s"}
# the other spans are each reported as <name>.calls and <name>.self_s
SPAN_NAMES = [name for name in SPANS if name not in TIME_ONLY_SPANS]
# ratio name -> (numerator, base); the base is reported beside it
RATIOS = {
    "ribbon.lattice_nonzero_ratio": ("ribbon.lattice_nonzero", "ribbon.exact_lattice_count.calls"),
    "covers.cache_hit_ratio": ("covers.cache_hits", "covers.cache_gets"),
}


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


# -- output checks ------------------------------------------------------

Check = Callable[[str], "str | None"]


def check_help(out: str) -> str | None:
    return None if out.startswith("Usage:") else "--help printed no usage text"


def check_verify(out: str) -> str | None:
    lines = out.splitlines()
    match = re.fullmatch(r"(\d+)/(\d+) checks passed", lines[-1]) if lines else None
    if match is None:
        return "no 'N/N checks passed' summary line"
    passed, total = int(match[1]), int(match[2])
    if passed != total or total < MIN_VERIFY_CHECKS:
        return f"{passed}/{total} checks passed, expected all of at least {MIN_VERIFY_CHECKS}"
    if len(lines) != total + 1 or not all(line.startswith("PASS  ") for line in lines[:-1]):
        return "check lines do not all read PASS"
    return None


def rooted_map_code(sigma: list[int], alpha: list[int], faces: list[int]) -> tuple:
    """Canonical code of a face-labelled map, independent of dart labels.

    Darts are renumbered in the order a breadth-first walk along sigma and
    alpha meets them from a root dart; the code is the least relabelled
    (sigma, alpha, faces) over all roots (Weinberg's rooted-map form)."""
    best = None
    for root in range(len(sigma)):
        order, number = [root], {root: 0}
        for dart in order:
            for nxt in (sigma[dart], alpha[dart]):
                if nxt not in number:
                    number[nxt] = len(order)
                    order.append(nxt)
        if len(order) != len(sigma):
            return ()  # disconnected: no valid map has this code
        code = (
            tuple(number[sigma[d]] for d in order),
            tuple(number[alpha[d]] for d in order),
            tuple(faces[d] for d in order),
        )
        if best is None or code < best:
            best = code
    return best


def faces_only_codes(out: str) -> list:
    records = json.loads(out)
    codes = (rooted_map_code(r["sigma"], r["alpha"], r["labels"]["faces"]) for r in records)
    return sorted([list(part) for part in code] for code in codes)


def check_faces_only(golden: str) -> Check:
    def check(out: str) -> str | None:
        try:
            codes = faces_only_codes(out)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"unreadable graph list: {exc!r}"
        expected = json.loads((GOLDENS / golden).read_text())
        if codes != expected:
            return f"{len(codes)} graphs whose isomorphism classes differ from the {len(expected)} expected"
        return None

    return check


def check_volume(big_k: int) -> Check:
    def check(out: str) -> str | None:
        try:
            got = json.loads(out)
            value = Fraction(int(got["num"]), int(got["den"]))
        except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
            return f"unreadable volume: {exc!r}"
        if got.get("K") != big_k or got.get("pi_power") != 2 * big_k + 2 or value != Fraction(1, 2 ** (big_k - 1)):
            return f"volume K={big_k} is {out.strip()}, expected pi^{2 * big_k + 2}/2^{big_k - 1}"
        return None

    return check


def check_golden(name: str) -> Check:
    def check(out: str) -> str | None:
        return None if out == (GOLDENS / name).read_text() else f"stdout differs from goldens/{name}"

    return check


# -- workloads ----------------------------------------------------------

@dataclass(frozen=True)
class Command:
    args: tuple[str, ...]
    check: Check


def verify_commands(rng: random.Random) -> list[Command]:
    return [
        Command(("verify",), check_verify),
        Command(("ribbon", "enumerate", "--m", "3", "--n", "1"), check_faces_only("ribbon_faces_only_3_1.json")),
    ]


def volume_commands(rng: random.Random) -> list[Command]:
    # each K is its own process, so their order cannot change a result
    ks = list(range(1, 10))
    rng.shuffle(ks)
    return [Command(("volume", "--K", str(k), "--format", "json"), check_volume(k)) for k in ks]


def covers_commands(rng: random.Random) -> list[Command]:
    # fixed order: `ratio` reads the characters `count` left in the cache
    return [
        Command(("covers", "count", "--K", "1", "--max-degree", "30"), check_golden("covers_count_K1_maxdeg30.json")),
        Command(("covers", "ratio", "--K", "2", "--degrees", "10,20,24"), check_golden("covers_ratio_K2_deg10_20_24.txt")),
    ]


WORKLOADS = {
    "verify": verify_commands,
    "volume": volume_commands,
    "covers-cold": covers_commands,
}


# -- running commands ---------------------------------------------------

@dataclass
class Pass:
    wall_s: float = 0.0
    peak_rss_kb: int = 0
    cache_bytes: int = 0
    traces: list[dict] = field(default_factory=list)


class Runner:
    """Runs commands in fresh interpreters inside one scratch directory."""

    def __init__(self, scratch: Path) -> None:
        self.scratch = scratch
        self.attempted = 0
        self.errors: list[str] = []
        self._serial = 0

    def _path(self, stem: str) -> Path:
        self._serial += 1
        return self.scratch / f"{self._serial:04d}-{stem}"

    def new_cache_dir(self) -> Path:
        path = self._path("cache")
        path.mkdir()
        return path

    def run(self, command: Command, cache_dir: Path, traced: bool = False) -> tuple[float, int, dict | None]:
        """Run one command; return its wall time, max RSS in KiB and trace."""
        env = dict(os.environ, PYTHONPATH=str(SRC), PILLOW_CACHE_DIR=str(cache_dir))
        trace_path = self._path("trace.json") if traced else None
        if traced:
            argv = [sys.executable, str(TRACED_CLI), str(trace_path), *command.args]
        else:
            argv = [sys.executable, "-m", "pillowcount.cli", *command.args]
        out_path, err_path = self._path("stdout"), self._path("stderr")
        self.attempted += 1
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
            timer = threading.Timer(COMMAND_TIMEOUT_S, _kill, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall_s = time.perf_counter() - start
        code = proc.returncode = os.waitstatus_to_exitcode(status)
        label = "pillowcount " + " ".join(command.args)
        if code != 0:
            tail = err_path.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-1:]
            self.errors.append(f"{label}: exit status {code} {' '.join(tail)}")
        else:
            problem = command.check(out_path.read_text(encoding="utf-8", errors="replace"))
            if problem is not None:
                self.errors.append(f"{label}: {problem}")
        trace = None
        if trace_path is not None:
            try:
                trace = json.loads(trace_path.read_text())
            except (OSError, ValueError):
                self.errors.append(f"{label}: no readable trace")
        out_path.unlink()
        err_path.unlink()
        return wall_s, usage.ru_maxrss, trace

    def run_pass(self, commands: list[Command], traced: bool = False) -> Pass:
        result = Pass()
        cache = self.new_cache_dir()
        for command in commands:
            wall_s, rss_kb, trace = self.run(command, cache, traced)
            result.wall_s += wall_s
            result.peak_rss_kb = max(result.peak_rss_kb, rss_kb)
            if trace is not None:
                result.traces.append(trace)
        result.cache_bytes = disk_usage(cache)
        shutil.rmtree(cache)
        return result


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def disk_usage(path: Path) -> int:
    """Bytes allocated on disk to a directory and everything below it, as du counts them."""
    total = path.lstat().st_blocks * 512
    for parent, dirs, files in os.walk(path):
        for name in dirs + files:
            total += os.lstat(os.path.join(parent, name)).st_blocks * 512
    return total


# -- one run of a workload ----------------------------------------------

def measure(name: str, seed: int, seconds: int, trace: bool) -> dict:
    """Run one workload for `seconds` and return its record."""
    commands = WORKLOADS[name](random.Random(seed))
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "loadavg_before": os.getloadavg(),
    }
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as scratch:
        runner = Runner(Path(scratch))
        help_command = Command(("--help",), check_help)
        help_cache = runner.new_cache_dir()
        runner.run(help_command, help_cache)  # untimed: byte-compiles the package once
        if trace:
            samples, metrics = traced_passes(runner, commands, seconds)
        else:
            setup = [runner.run(help_command, help_cache)[0] for _ in range(SETUP_REPEATS)]
            passes = timed_passes(runner, commands, seconds)
            samples = {
                "wall_s": [p.wall_s for p in passes],
                "setup_s": setup,
                "peak_rss_mb": [p.peak_rss_kb / 1024 for p in passes],
                "cache_bytes": [p.cache_bytes for p in passes],
            }
            metrics = {metric: statistics.median(values) for metric, values in samples.items()}
        attempted, errors = runner.attempted, runner.errors
    record["loadavg_after"] = os.getloadavg()
    record["samples"] = samples
    record["errors"] = errors
    record["error_rate"] = len(errors) / attempted
    record["result"] = {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": metrics,
    }
    return record


def fits(start: float, seconds: int, walls: list[float]) -> bool:
    """Whether one more pass, as long as the median pass so far, ends within `seconds`."""
    return time.perf_counter() - start + statistics.median(walls) <= seconds


def timed_passes(runner: Runner, commands: list[Command], seconds: int) -> list[Pass]:
    start = time.perf_counter()
    passes: list[Pass] = []
    while len(passes) < MIN_PASSES or fits(start, seconds, [p.wall_s for p in passes]):
        passes.append(runner.run_pass(commands))
    return passes


def traced_passes(runner: Runner, commands: list[Command], seconds: int) -> tuple[dict, dict]:
    """One untraced pass, then traced passes (at least TRACED_PASSES, more
    while they fit in `seconds`); returns the samples and per-layer metrics."""
    start = time.perf_counter()
    untraced = runner.run_pass(commands)
    layers: list[dict] = []
    walls: list[float] = []
    while len(layers) < TRACED_PASSES or fits(start, seconds, walls):
        traced = runner.run_pass(commands, traced=True)
        walls.append(traced.wall_s)
        layers.append(layer_metrics(traced.traces))
    counts = [{k: v for k, v in m.items() if not k.endswith("_s")} for m in layers]
    for index, other in enumerate(counts[1:], start=2):
        for key, value in other.items():
            if value != counts[0][key]:
                runner.errors.append(f"count {key} is {counts[0][key]} in traced pass 1 but {value} in pass {index}")
    metrics = dict(counts[0])
    for key in layers[0]:
        if key.endswith("_s"):
            metrics[key] = statistics.median(m[key] for m in layers)
    for ratio, (numerator, base) in RATIOS.items():
        metrics[ratio] = metrics[numerator] / metrics[base] if metrics[base] else 0.0
    metrics["trace.untraced_wall_s"] = untraced.wall_s
    metrics["trace.overhead_s"] = statistics.median(walls) - untraced.wall_s
    samples = {"untraced_wall_s": [untraced.wall_s], "traced_wall_s": walls, "layers": layers}
    return samples, metrics


def layer_metrics(traces: list[dict]) -> dict:
    """Sum the per-command traces of one pass into per-layer metrics."""
    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = sum(t["calls"].get(name, 0) for t in traces)
        out[f"{name}.self_s"] = sum(t["self_s"].get(name, 0.0) for t in traces)
    for span, metric in TIME_ONLY_SPANS.items():
        out[metric] = sum(t["self_s"].get(span, 0.0) for t in traces)
    for name in COUNTERS:
        out[name] = sum(t["counters"].get(name, 0) for t in traces)
    out["cli.other_s"] = sum(t["other_s"] for t in traces)
    return out


# -- reporting ----------------------------------------------------------

def load_spec() -> dict:
    try:
        return json.loads(SPEC_PATH.read_text())
    except (OSError, ValueError) as exc:
        raise BenchmarkError(f"cannot read {SPEC_PATH.name}: {exc}")


def finish_result(record: dict, spec: dict) -> dict:
    """Attach units from BENCHMARK.json and check the metric set matches it."""
    declared = spec["per_layer" if record["trace"] else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    metrics = record["result"]["metrics"]
    if set(metrics) != set(units):
        missing, extra = sorted(set(units) - set(metrics)), sorted(set(metrics) - set(units))
        raise BenchmarkError(f"metrics differ from BENCHMARK.json: missing {missing}, undeclared {extra}")
    record["result"]["metrics"] = {name: {"value": metrics[name], "unit": units[name]} for name in units}
    return record["result"]


def print_report(record: dict) -> None:
    result = record["result"]
    print(
        f"workload {record['workload']}  seed {record['seed']}  seconds {record['seconds']}  "
        f"trace {record['trace']}  python {record['python']}  nproc {record['nproc']}"
    )
    print("loadavg before %.2f %.2f %.2f" % tuple(record["loadavg_before"]))
    samples = record["samples"]
    for name, metric in result["metrics"].items():
        count = len(samples[name]) if name in samples else None
        note = f"  (median of {count})" if count else ""
        print(f"  {name:40s} {metric['value']:>16.6f} {metric['unit']}{note}")
    if record["trace"]:
        untraced = result["metrics"]["trace.untraced_wall_s"]["value"]
        overhead = result["metrics"]["trace.overhead_s"]["value"]
        print(f"  tracing overhead {overhead:.3f} s on an untraced pass of {untraced:.3f} s")
    print(f"  {'error_rate':40s} {record['error_rate']:>16.6f} ratio  ({result['failed']}/{result['attempted']} commands)")
    for error in record["errors"]:
        print(f"  FAILED {error}")
    print("loadavg after %.2f %.2f %.2f" % tuple(record["loadavg_after"]))


# -- compare mode -------------------------------------------------------

def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list[float], new: list[float], bound: float, lower_is_better: bool) -> str:
    """better / worse / unchanged / unresolved for one metric on one workload.

    `better` needs the change to win 9 in 10 of the runs paired in order
    and the medians to differ by more than the base's interquartile range;
    `worse` is a median more than `bound` worse; a metric whose relative
    spread exceeds the bound is unresolved unless every run of one side
    beats every run of the other."""
    sign = 1 if lower_is_better else -1
    b1, b_med, b3 = quartiles(base)
    n1, n_med, n3 = quartiles(new)
    scale = abs(b_med) or 1.0
    worse_by = sign * (n_med - b_med) / scale
    spread = max((b3 - b1) / scale, (n3 - n1) / (abs(n_med) or 1.0))
    pairs = list(zip(base, new))
    wins = sum(sign * (n - b) < 0 for b, n in pairs)
    all_better = all(sign * (n - b) < 0 for b in base for n in new)
    all_worse = all(sign * (n - b) > 0 for b in base for n in new)
    if worse_by < 0 and pairs and wins >= 0.9 * len(pairs) and abs(n_med - b_med) > b3 - b1:
        return "better"
    if worse_by > bound:
        return "worse" if spread <= bound or all_worse else "unresolved"
    if spread > bound and not all_better:
        return "unresolved"
    return "unchanged"


def load_records(path: str) -> dict[str, list[dict]]:
    by_workload: dict[str, list[dict]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                record = json.loads(line)
                if not record["trace"]:
                    by_workload.setdefault(record["workload"], []).append(record)
    return by_workload


def compare(base_path: str, new_path: str, spec: dict) -> int:
    base, new = load_records(base_path), load_records(new_path)
    print(f"{'workload':12s} {'metric':12s} {'base q1/median/q3':>32s} {'new q1/median/q3':>32s} {'n':>5s}  verdict")
    for workload in sorted(set(base) | set(new)):
        if workload not in base or workload not in new:
            print(f"{workload:12s} only in {'the base' if workload in base else 'the new'} file")
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = [r["result"]["metrics"][name]["value"] for r in base[workload]]
            n = [r["result"]["metrics"][name]["value"] for r in new[workload]]
            word = verdict(b, n, metric["bound"], metric["better"] == "lower")
            bq, nq = quartiles(b), quartiles(n)
            print(
                f"{workload:12s} {name:12s} {'%.4g/%.4g/%.4g' % bq:>32s} {'%.4g/%.4g/%.4g' % nq:>32s} "
                f"{len(b):>2d}/{len(n):<2d}  {word} (bound {metric['bound']:.0%}, {metric['unit']})"
            )
    return 0


# -- entry point --------------------------------------------------------

def _terminate(signum, frame) -> None:
    # unwinds through Runner.run, which kills and reaps the running command
    sys.exit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append each run's record to this JSON-lines file")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"), help="compare two --record files")
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
        if args.compare:
            return compare(*args.compare, spec)
        if args.workload is None:
            parser.error("--workload or --compare is required")
        if not (SRC / "pillowcount" / "cli.py").is_file():
            raise BenchmarkError(f"no pillowcount sources under {SRC}")
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {}
        for name in names:
            record = measure(name, args.seed, args.seconds, bool(args.trace))
            results[name] = finish_result(record, spec)
            print_report(record)
            if args.record:
                with open(args.record, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(record) + "\n")
    except BenchmarkError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        summary = next(iter(results.values()))
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
