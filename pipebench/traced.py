"""Traced scan: the CLI's pipeline, called module by module, with spans.

Usage (with the package under test on PYTHONPATH):

    python3 pipebench/traced.py CORPUS STORE_OUT TRACE_OUT

Calls the public functions of cli, parser, model, detectors and store in
the order `faultlint.cli.run_scan` calls them, under one root span named
`pipeline`, wrapping every call in a span. A second root span, `probes`,
then repeats work the pipeline does implicitly so that it can be timed
apart: `lexer.tokenize` on every text (`parse_source` tokenizes
internally) and each detector alone. Spans (name, start, end, parent
index) and counts stay in memory and are written to TRACE_OUT as JSON at
the end, with the per-class code lists and per-rule finding counts so the
caller can compare them with the CLI's store.
"""

from __future__ import annotations

import json
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from faultlint.cli import collect_java_files
from faultlint.detectors import ALL_RULES, run_all
from faultlint.lexer import scanner_backend, tokenize
from faultlint.model import build_model, default_seed
from faultlint.parser import parse_source
from faultlint.store import (
    AnalysisStore,
    Diagnostic,
    aggregate,
    cluster,
    render_report,
    save_store,
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._open[-1] if self._open else None])
        self._open.append(index)
        self.spans[index][1] = time.perf_counter()
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._open.pop()


def traced_scan(root: Path, store_path: Path, tracer: Tracer) -> dict:
    span = tracer.span
    with span("pipeline"):
        with span("cli.collect_java_files"):
            files = collect_java_files(root)
        texts = []
        units = []
        for path in files:
            rel = path.relative_to(root).as_posix()
            with span("cli.read"):
                text = path.read_text(encoding="utf-8")
            with span("parser.parse_source"):
                units.append(parse_source(text, rel))
            texts.append(text)
        with span("model.build_model"):
            model = build_model(units, default_seed())
        with span("detectors.run_all"):
            findings = run_all(model, ALL_RULES)
        with span("store.aggregate"):
            records = aggregate(findings)
        with span("store.cluster"):
            clusters = cluster(records)
        diagnostics = [
            Diagnostic(message=d.message, file_path=d.file_path, line=d.line)
            for unit in units for d in unit.diagnostics
        ]
        diagnostics.extend(Diagnostic(message=m) for m in model.diagnostics)
        store = AnalysisStore(
            corpus_root=str(root), records=tuple(records), diagnostics=tuple(diagnostics)
        )
        with span("store.render_report"):
            render_report(store, clusters, "text", scanned_classes=len(model.classes))
        with span("store.save_store"):
            save_store(store, store_path)

    tokens = 0
    rule_findings = {}
    with span("probes"):
        for text in texts:
            with span("lexer.tokenize"):
                tokens += len(tokenize(text))
        for code in sorted(ALL_RULES):
            with span(f"detectors.rule{code}"):
                rule_findings[str(code)] = len(run_all(model, {code}))

    unit_diags = [d for unit in units for d in unit.diagnostics]
    return {
        "backend": scanner_backend(),
        "counts": {
            "cli.files": len(files),
            "cli.bytes": sum(os.path.getsize(path) for path in files),
            "lexer.tokens": tokens,
            "parser.units": len(units),
            "parser.classes": sum(len(unit.classes) for unit in units),
            "parser.methods": sum(len(c.methods) for unit in units for c in unit.classes),
            "parser.diagnostics": len(unit_diags),
            "parser.skipped_lines": sum(d.skipped_span[1] - d.skipped_span[0] + 1
                                        for d in unit_diags),
            "parser.clean_units": sum(1 for unit in units if not unit.diagnostics),
            "model.classes": len(model.classes),
            "model.diagnostics": len(model.diagnostics),
            "store.records": len(records),
            "store.clusters": len(clusters),
            "store.bytes": os.path.getsize(store_path),
        },
        "rule_findings": rule_findings,
        "run_all_findings": len(findings),
        "classes": {r.class_name: list(r.error_codes) for r in records},
        "spans": tracer.spans,
    }


def main(argv: list[str]) -> int:
    corpus, store_out, trace_out = (Path(arg) for arg in argv)
    result = traced_scan(corpus, store_out, Tracer())
    with open(trace_out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
