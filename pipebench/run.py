#!/usr/bin/env python3
"""Pipeline benchmark for faultlint: whole-scan cost on generated corpora.

Usage, from the root of a source checkout:

    python3 pipebench/run.py --workload mixed --seed 1 --seconds 55 --trace 0
    python3 pipebench/run.py --workload all --seed 1 --seconds 55 --trace 1

The benchmark writes a seeded corpus (see workloads.py), then runs a closed
loop with one client: it starts one child process, waits for it to exit
and starts the next, so at most two processes run at once. Each round runs

  * `faultlint --version` (the start-up every invocation pays),
  * the fixed reference task of reference.py,
  * `faultlint CORPUS --store FILE` (the scan a user waits for), and
  * with --trace 1, the traced scan of traced.py,

until --seconds have passed (at least three rounds). Wall time is taken
around spawn and wait; CPU time and peak RSS come from os.wait4 for that
one child. Scan time is reported relative to the reference task of the
same round, because the shared host's speed drifts by more than the
benchmark's bounds over minutes and the two slow alike. Every scan is
checked by oracle.py; the traced run's per-class code lists and per-rule
finding counts must equal the CLI store's.

With --trace 0 the last stdout line is a JSON object carrying the
end-to-end metrics (medians over the run's rounds), with --trace 1 the
per-layer metrics. Lines above it give the run's metadata, the
workload's traffic properties and every metric with its unit. Results
and spans are also written under .pipebench/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import workloads
from oracle import ScanOracle, class_lists, rule_counts

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".pipebench"

MIN_ROUNDS = 3
# A run must end within 180 s: no round starts after MEASURE_LIMIT_S, and a
# child still running KILL_AFTER_S after the loop began is killed.
MEASURE_LIMIT_S = 120
KILL_AFTER_S = 160
RULES = range(1, 7)

CLI = "import sys; from faultlint.cli import main; sys.exit(main(sys.argv[1:]))"
PREFLIGHT = ("import faultlint, faultlint.cli; from faultlint.lexer import scanner_backend; "
             "print(faultlint.__file__); print(faultlint.__version__); print(scanner_backend())")

class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int


def run_child(argv: list[str], stdout_path: Path, stderr_path: Path,
              timeout: float = KILL_AFTER_S) -> Sample:
    """Spawn one child, wait for it, and account for it alone via wait4."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        actions = [(os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                   (os.POSIX_SPAWN_DUP2, err.fileno(), 2)]
        start = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
        pidfd = os.pidfd_open(pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], timeout)
            if not ready:
                os.kill(pid, signal.SIGKILL)
            _, status, usage = os.wait4(pid, 0)
        finally:
            os.close(pidfd)
        wall = time.perf_counter() - start
    return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                  os.waitstatus_to_exitcode(status))


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def preflight(work: Path) -> dict:
    """Check that the children import the checkout's package; warm its bytecode."""
    if not (SRC / "faultlint" / "cli.py").is_file():
        raise BenchError(f"no program source at {SRC / 'faultlint'}")
    sample = run_child([sys.executable, "-c", PREFLIGHT], work / "pre.out", work / "pre.err")
    lines = (work / "pre.out").read_text().split()
    if sample.exit_code != 0 or len(lines) != 3:
        raise BenchError("cannot import faultlint: "
                         + (work / "pre.err").read_text().strip()[-500:])
    module, version, backend = lines
    if not Path(module).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"faultlint imported from {module}, not from {SRC}")
    return {"version": version, "scanner_backend": backend}


def layer_times(trace: dict) -> dict[str, float]:
    """Per-layer self times of one traced run, from its spans."""
    total: dict[str, float] = {}
    children: dict[int, float] = {}
    for name, start, end, parent in trace["spans"]:
        total[name] = total.get(name, 0.0) + end - start
        if parent is not None:
            children[parent] = children.get(parent, 0.0) + end - start
    root = next(i for i, span in enumerate(trace["spans"]) if span[0] == "pipeline")
    times = {
        "cli.walk_s": total["cli.collect_java_files"],
        "cli.read_s": total["cli.read"],
        "lexer.tokenize_s": total["lexer.tokenize"],
        # parse_source tokenizes internally; the tokenize probe is that share
        "parser.parse_s": total["parser.parse_source"] - total["lexer.tokenize"],
        "model.build_s": total["model.build_model"],
        "detectors.run_all_s": total["detectors.run_all"],
        "store.aggregate_s": total["store.aggregate"],
        "store.cluster_s": total["store.cluster"],
        "store.render_s": total["store.render_report"],
        "store.save_s": total["store.save_store"],
        "trace.pipeline_s": total["pipeline"],
        "trace.unspanned_s": total["pipeline"] - children.get(root, 0.0),
    }
    for code in RULES:
        times[f"detectors.rule{code}_s"] = total[f"detectors.rule{code}"]
    return times


def trace_mismatches(trace: dict, cli_store: bytes, backend: str) -> list[str]:
    """Compare a traced run with the CLI: lists and counts, not bytes."""
    reasons = []
    if trace["classes"] != class_lists(cli_store):
        reasons.append("traced per-class code lists differ from the CLI store")
    cli_counts = rule_counts(cli_store)
    if trace["rule_findings"] != {str(c): cli_counts.get(str(c), 0) for c in RULES}:
        reasons.append("traced per-rule finding counts differ from the CLI store")
    if trace["run_all_findings"] != sum(cli_counts.values()):
        reasons.append("traced run_all finding count differs from the CLI store")
    if trace["backend"] != backend:
        reasons.append(f"traced run used scanner backend {trace['backend']}")
    return reasons


def run_workload(name: str, why: str, seed: int, seconds: int, traced: bool) -> dict:
    work = OUT / f"work-{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _run_workload(name, why, seed, seconds, traced, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run_workload(name: str, why: str, seed: int, seconds: int, traced: bool,
                  work: Path) -> dict:
    meta = {
        "workload": name, "why": why, "seed": seed,
        "seconds": seconds, "trace": int(traced), "commit": git_commit(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        **preflight(work),
    }
    corpus = workloads.GENERATORS[name](seed)
    corpus_dir = work / "corpus"
    corpus.write(corpus_dir)
    traffic = workloads.traffic(corpus)
    oracle = ScanOracle(corpus.reference())

    version_argv = [sys.executable, "-c", CLI, "--version"]
    scan_argv = [sys.executable, "-c", CLI, str(corpus_dir), "--store", str(work / "store.json")]
    reference_argv = [sys.executable, str(Path(__file__).with_name("reference.py"))]
    trace_argv = [sys.executable, str(Path(__file__).with_name("traced.py")),
                  str(corpus_dir), str(work / "traced-store.json"), str(work / "trace.json")]
    expected_version = f"faultlint {meta['version']}\n".encode()

    setups: list[Sample] = []
    scans: list[Sample] = []
    references: list[float] = []
    traces: list[dict] = []
    failures: list[str] = []
    attempted = 0
    failed = 0
    failed_scans = 0

    start = time.perf_counter()
    deadline = start + seconds

    def child(argv: list[str], stem: str) -> Sample:
        remaining = start + KILL_AFTER_S - time.perf_counter()
        return run_child(argv, work / f"{stem}.out", work / f"{stem}.err", max(remaining, 1.0))

    while ((time.perf_counter() < deadline or len(scans) < MIN_ROUNDS)
           and time.perf_counter() < start + MEASURE_LIMIT_S):
        sample = child(version_argv, "version")
        setups.append(sample)
        attempted += 1
        if sample.exit_code != 0 or (work / "version.out").read_bytes() != expected_version:
            failed += 1
            failures.append(f"--version: exit {sample.exit_code}")

        # The yardstick runs just before the scan, on the same host state.
        sample = child(reference_argv, "reference")
        try:
            references.append(float((work / "reference.out").read_text()))
        except ValueError:
            raise BenchError(f"reference task failed (exit {sample.exit_code}): "
                             + (work / "reference.err").read_text().strip()[-300:]) from None

        sample = child(scan_argv, "scan")
        scans.append(sample)
        attempted += 1
        store = (work / "store.json").read_bytes() if (work / "store.json").exists() else b""
        reasons = oracle.check(sample.exit_code, (work / "scan.out").read_bytes(), store)
        if reasons:
            failed += 1
            failed_scans += 1
            failures.append("scan: " + "; ".join(reasons))
            err_tail = (work / "scan.err").read_text(errors="replace").strip()[-300:]
            if err_tail:
                failures.append("scan stderr: " + err_tail)
        (work / "store.json").unlink(missing_ok=True)

        if traced:
            sample = child(trace_argv, "trace")
            attempted += 1
            try:
                trace = json.loads((work / "trace.json").read_text())
                reasons = [] if sample.exit_code == 0 else [f"exit {sample.exit_code}"]
                reasons += trace_mismatches(trace, oracle.first[1], meta["scanner_backend"])
                if traces and trace["counts"] != traces[0]["counts"]:
                    reasons.append("traced counts differ between traced runs")
            except (OSError, ValueError, KeyError) as err:
                trace, reasons = None, [f"no trace: {err!r}"]
                err_tail = (work / "trace.err").read_text(errors="replace").strip()[-300:]
                reasons.append(err_tail)
            if reasons:
                failed += 1
                failures.append("traced run: " + "; ".join(reasons))
            if trace is not None:
                if not traces:
                    shutil.copy(work / "trace.json", OUT / f"spans-{name}-seed{seed}.json")
                traces.append(trace)
            (work / "trace.json").unlink(missing_ok=True)

    end_to_end = {
        "setup_s": statistics.median(s.wall_s for s in setups),
        "scan_rel": statistics.median(s.wall_s / r for s, r in zip(scans, references)),
        "scan_cpu_rel": statistics.median(s.cpu_s / r for s, r in zip(scans, references)),
        "peak_rss_mb": statistics.median(s.rss_mb for s in scans),
    }
    # In seconds these follow the host's speed, so they are reported, not gated.
    scan_s = statistics.median(s.wall_s for s in scans)
    host = {
        "scan_s": scan_s,
        "scan_cpu_s": statistics.median(s.cpu_s for s in scans),
        "lines_per_s": traffic["lines"] / scan_s,
        "reference_s": statistics.median(references),
    }
    oracle_metrics = {
        "oracle.scan_fail_frac": failed_scans / len(scans),
        "oracle.wrong_class_frac": oracle.wrong_class_frac(),
    }
    result = {
        "meta": meta, "traffic": traffic, "rounds": len(scans),
        "setup_samples_s": [s.wall_s for s in setups],
        "scan_samples_s": [s.wall_s for s in scans],
        "reference_samples_s": references,
        "end_to_end": end_to_end, "host": host, "oracle": oracle_metrics,
        "failures": failures[:20],
        "correct": failed == 0 and not oracle.wrong,
        "attempted": attempted, "failed": failed,
    }
    if traced:
        if not traces:
            raise BenchError("no traced run completed: " + "; ".join(failures[-2:]))
        result["per_layer"] = (per_layer_metrics(traces, end_to_end["setup_s"], scan_s)
                               | oracle_metrics)
    return result


def per_layer_metrics(traces: list[dict], setup_s: float, scan_s: float) -> dict:
    runs = [layer_times(trace) for trace in traces]
    metrics = {key: statistics.median(run[key] for run in runs) for key in runs[0]}
    counts = traces[0]["counts"]
    metrics.update({key: counts[key] for key in (
        "cli.files", "cli.bytes", "lexer.tokens", "parser.units", "parser.classes",
        "parser.methods", "parser.diagnostics", "parser.skipped_lines",
        "model.classes", "model.diagnostics", "store.records", "store.clusters",
        "store.bytes")})
    metrics["lexer.tokens_per_s"] = counts["lexer.tokens"] / metrics["lexer.tokenize_s"]
    metrics["parser.clean_unit_frac"] = counts["parser.clean_units"] / counts["parser.units"]
    for code in RULES:
        metrics[f"detectors.rule{code}_findings"] = traces[0]["rule_findings"][str(code)]
    metrics["trace.overhead_s"] = metrics["trace.pipeline_s"] + setup_s - scan_s
    return metrics


def report(result: dict, spec: dict) -> dict:
    """Print the human-readable block; return the contract's result object."""
    meta, traffic = result["meta"], result["traffic"]
    print(f"== {meta['workload']}: {meta['why']}")
    print("   " + " ".join(f"{k}={meta[k]}" for k in (
        "seed", "seconds", "trace", "commit", "python", "nproc", "scanner_backend")))
    print("   traffic: " + " ".join(f"{k}={v}" for k, v in traffic.items()))
    print(f"   rounds={result['rounds']}; scan samples min={min(result['scan_samples_s']):.4f} s"
          f" max={max(result['scan_samples_s']):.4f} s; setup samples"
          f" min={min(result['setup_samples_s']):.4f} s"
          f" max={max(result['setup_samples_s']):.4f} s")
    traced = "per_layer" in result
    declared = spec["per_layer"] if traced else spec["end_to_end"]
    values = result["per_layer"] if traced else result["end_to_end"]
    shown = [(m["name"], values[m["name"]], m["unit"]) for m in declared]
    if not traced:
        units = {"scan_s": "s", "scan_cpu_s": "s", "lines_per_s": "lines/s", "reference_s": "s"}
        shown += [(key, value, units[key]) for key, value in result["host"].items()]
        shown += [(key, value, "ratio") for key, value in result["oracle"].items()]
    for key, value, unit in shown:
        print(f"   {key:28s} {value:>16.6g} {unit}")
    for failure in result["failures"]:
        print("   FAILED " + failure)
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: run_workload(name, whys[name], args.seed, args.seconds,
                                      bool(args.trace))
                   for name in names}
    except BenchError as err:
        print(f"pipebench: {err}", file=sys.stderr)
        return 2
    lines = {}
    for name, result in results.items():
        lines[name] = report(result, spec)
        path = OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(lines[names[0]] if len(names) == 1 else lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
