"""Correctness oracle for benchmark scans, independent of the program.

A scan passes when it exits with the expected status, when its stdout and
store are byte-identical to the first scan of the run, and when the
store's per-class error-code lists equal the generator's reference. The
store is read with the standard json module only.
"""

from __future__ import annotations

import json

EXPECTED_EXIT = 1  # every workload has findings


def class_lists(store_bytes: bytes) -> dict[str, list[int]]:
    """Class name -> ordered error codes, from a store document."""
    data = json.loads(store_bytes)
    return {r["class_name"]: [int(c) for c in r["error_codes"]] for r in data["records"]}


def wrong_classes(reference: dict[str, list[int]], got: dict[str, list[int]]) -> list[str]:
    """Classes whose list differs; a class without a record has the list []."""
    return sorted(name for name in reference.keys() | got.keys()
                  if reference.get(name) != got.get(name, []))


def rule_counts(store_bytes: bytes) -> dict[str, int]:
    """Findings per error code (as a string key), from a store document."""
    counts: dict[str, int] = {}
    for record in json.loads(store_bytes)["records"]:
        for finding in record["findings"]:
            key = str(finding["error_code"])
            counts[key] = counts.get(key, 0) + 1
    return counts


class ScanOracle:
    """Checks the scans of one run against the reference and each other."""

    def __init__(self, reference: dict[str, list[int]]):
        self.reference = reference
        self.first: tuple[bytes, bytes] | None = None
        self.wrong: list[str] = []  # wrong classes of the worst scan so far
        self._last_store: bytes | None = None
        self._last_wrong: list[str] = []

    def check(self, exit_code: int, stdout: bytes, store: bytes) -> list[str]:
        """Reasons the scan failed; empty when it passed."""
        reasons = []
        if exit_code != EXPECTED_EXIT:
            reasons.append(f"exit status {exit_code}, expected {EXPECTED_EXIT}")
        if self.first is None:
            self.first = (stdout, store)
        else:
            if stdout != self.first[0]:
                reasons.append("stdout differs from the run's first scan")
            if store != self.first[1]:
                reasons.append("store differs from the run's first scan")
        if store != self._last_store:  # parse each distinct store once
            self._last_store = store
            try:
                self._last_wrong = wrong_classes(self.reference, class_lists(store))
            except (ValueError, KeyError, TypeError) as err:
                self._last_wrong = sorted(self.reference)
                reasons.append(f"unreadable store: {err!r}")
        wrong = self._last_wrong
        if len(wrong) > len(self.wrong):
            self.wrong = wrong
        if wrong:
            reasons.append(f"{len(wrong)} wrong classes, e.g. {wrong[0]}")
        return reasons

    def wrong_class_frac(self) -> float:
        return len(self.wrong) / len(self.reference)
