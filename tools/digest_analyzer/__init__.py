"""Cross-module static analysis for the Digest reproduction.

The per-file rules (DGL001-DGL008) enforce the simulation invariants one
file at a time; a second pass parses every file into a shared symbol
table and approximate call graph and runs the rules no single file can
check —

* **DGL009** trace-schema conformance: every ``tracer.span(...)`` /
  ``.event(...)`` call site against the declared registry in
  :mod:`repro.obs.schema`;
* **DGL010** no hard-coded trace-name literals in consuming code;
* **DGL011** RNG-stream provenance: one generator, one named stream;
* **DGL012** wall-clock reachability from simulation code (DGL002
  through any depth of helper indirection);
* **DGL013** handler-raise reachability (DGL006, likewise);
* **DGL014** layering conformance: ``repro.protocol`` must not import
  ``repro.core``, and ``repro.network`` must not import
  ``repro.protocol`` — the protocol stack direction is one-way;
* **DGL015** context propagation: walk-message constructors must thread
  a forwarded :class:`TraceContext`; fresh context is minted only by the
  walk lifecycle through the sanctioned ``mint_context``.

Operationally: ``# dgl: disable=DGLxxx`` pragmas with unused-suppression
detection (DGL099), a committed baseline for grandfathered findings,
SARIF output for code scanning, and a content-hash result cache.

Run it: ``python -m tools.digest_analyzer src tools tests benchmarks``.
"""

from __future__ import annotations

from tools.digest_analyzer.baseline import (
    DEFAULT_BASELINE_PATH,
    apply_baseline,
    load_baseline,
    write_baseline,
)
from tools.digest_analyzer.cache import DEFAULT_CACHE_PATH, ResultCache
from tools.digest_analyzer.extract import (
    ANALYZER_VERSION,
    FileFacts,
    extract_file_facts,
)
from tools.digest_analyzer.findings import Finding
from tools.digest_analyzer.pragmas import UNUSED_SUPPRESSION_CODE
from tools.digest_analyzer.project import Project
from tools.digest_analyzer.rules_local import ALL_RULES, RULES_BY_CODE
from tools.digest_analyzer.rules_project import (
    ALL_PROJECT_RULES,
    PROJECT_RULES_BY_CODE,
)
from tools.digest_analyzer.runner import (
    DEFAULT_ROOTS,
    PARSE_ERROR_CODE,
    AnalysisResult,
    analyze_paths,
    analyze_sources,
)
from tools.digest_analyzer.schema_facts import SchemaFacts, load_schema_facts

#: code -> (name, summary, rationale) for every reportable code,
#: including the two pseudo-rules no Rule object implements.
RULE_CATALOG: dict[str, tuple[str, str, str]] = {
    PARSE_ERROR_CODE: (
        "unparseable-file",
        "file could not be parsed (syntax error, bad encoding, null bytes)",
        "A file the analyzer cannot read is not a clean file; the parse "
        "failure is reported as a finding so the run never aborts.",
    ),
    **{
        rule.code: (rule.name, rule.summary, rule.rationale)
        for rule in ALL_RULES
    },
    **{
        rule.code: (rule.name, rule.summary, rule.rationale)
        for rule in ALL_PROJECT_RULES
    },
    UNUSED_SUPPRESSION_CODE: (
        "unused-suppression",
        "a '# dgl: disable=' code suppressed nothing on its line",
        "Stale pragmas silently widen what the analyzer ignores; an "
        "unused suppression must be removed, not accumulated.",
    ),
}

__all__ = [
    "ALL_PROJECT_RULES",
    "ALL_RULES",
    "ANALYZER_VERSION",
    "AnalysisResult",
    "DEFAULT_BASELINE_PATH",
    "DEFAULT_CACHE_PATH",
    "DEFAULT_ROOTS",
    "FileFacts",
    "Finding",
    "PARSE_ERROR_CODE",
    "PROJECT_RULES_BY_CODE",
    "Project",
    "RULES_BY_CODE",
    "RULE_CATALOG",
    "ResultCache",
    "SchemaFacts",
    "UNUSED_SUPPRESSION_CODE",
    "analyze_paths",
    "analyze_sources",
    "apply_baseline",
    "extract_file_facts",
    "load_baseline",
    "load_schema_facts",
    "write_baseline",
]
