#!/usr/bin/env python3
"""Self-test of the benchmark's generators and correctness oracle.

    python3 pipebench/selftest.py

Runs the real CLI on small versions of each workload and shows that the
oracle accepts those scans, and that it flags a wrong reference, a
missing record and output that differs between two scans of one run. Also
checks that a seed gives a byte-identical tree and another seed a
different one. Prints one line per check; exits 1 if any check fails.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import workloads
from oracle import ScanOracle
from run import CLI, OUT, run_child

SMALL = {
    "mixed": {"copies": 2, "files_count": 2, "classes_per_file": 8},
    "hierarchy": {"chains": 3},
}


def check(label: str, ok: bool, failures: list[str]) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {label}")
    if not ok:
        failures.append(label)


def scan(corpus: workloads.Corpus, work: Path) -> tuple[int, bytes, bytes]:
    corpus.write(work / "corpus")
    argv = [sys.executable, "-c", CLI, str(work / "corpus"), "--store", str(work / "store.json")]
    sample = run_child(argv, work / "out", work / "err")
    return sample.exit_code, (work / "out").read_bytes(), (work / "store.json").read_bytes()


def main() -> int:
    failures: list[str] = []
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        for name, size in SMALL.items():
            generate = workloads.GENERATORS[name]
            same = generate(7, **size).files == generate(7, **size).files
            other = generate(7, **size).files != generate(8, **size).files
            check(f"{name}: same seed, same tree; other seed, other tree", same and other,
                  failures)

            corpus = generate(7, **size)
            exit_code, stdout, store = scan(corpus, Path(tmp) / name)
            reference = corpus.reference()
            shutil.rmtree(Path(tmp) / name)

            oracle = ScanOracle(reference)
            reasons = oracle.check(exit_code, stdout, store)
            check(f"{name}: real scan accepted ({reasons or 'no reasons'})", not reasons,
                  failures)
            reasons = oracle.check(exit_code, stdout, store)
            check(f"{name}: identical second scan accepted", not reasons, failures)

            faulty = next(n for n, codes in reference.items() if codes)
            wrong = dict(reference, **{faulty: reference[faulty] + [6]})
            reasons = ScanOracle(wrong).check(exit_code, stdout, store)
            check(f"{name}: wrong reference flagged ({reasons})",
                  any(faulty in r for r in reasons), failures)

            data = json.loads(store)
            dropped = data["records"].pop(0)["class_name"]
            reasons = ScanOracle(reference).check(exit_code, stdout, json.dumps(data).encode())
            check(f"{name}: missing record flagged ({reasons})",
                  any(dropped in r for r in reasons), failures)

            oracle = ScanOracle(reference)
            oracle.check(exit_code, stdout, store)
            reasons = oracle.check(exit_code, stdout + b"\n", store.replace(b"  ", b" ", 1))
            check(f"{name}: non-deterministic output flagged ({reasons})",
                  any("stdout differs" in r for r in reasons)
                  and any("store differs" in r for r in reasons), failures)

            reasons = ScanOracle(reference).check(0, stdout, store)
            check(f"{name}: wrong exit status flagged ({reasons})",
                  any("exit status" in r for r in reasons), failures)
    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
