"""Static analysis + runtime sanitizers for the repo's hot-path invariants.

The stack's headline guarantees — O(deg) flips over a never-densified
CSR, read-only store mmaps, bit-identical serial/parallel/resume parity,
picklable engine specs — live in specific modules, not everywhere.  This
package enforces them mechanically, three ways:

* **AST lint rules** (:mod:`repro.analysis.rules`) scoped to the hot-path
  modules, with per-line ``# repro: allow-<rule>(reason)`` pragmas and a
  committed baseline for grandfathered findings;
* **runtime guards** (:mod:`repro.analysis.guards`) — ``forbid_densify``
  and ``assert_readonly_mmap`` context managers the parity suites
  activate so violations the linter cannot see still fail loudly;
* **reflection audits** (:mod:`repro.analysis.audit`) — engine API parity
  and parity-test coverage checked against the live registry.

Run ``python -m repro.analysis`` for the CLI the CI gate uses.
"""

from repro.analysis import rules as _rules  # noqa: F401 — registers the rules
from repro.analysis.audit import (
    audit_engine_api,
    audit_kernel_parity_coverage,
    audit_parity_coverage,
    run_audits,
)
from repro.analysis.baseline import Baseline
from repro.analysis.engine import (
    RULE_REGISTRY,
    AnalysisReport,
    LintRule,
    ModuleContext,
    analyze_paths,
)
from repro.analysis.findings import Finding
from repro.analysis.guards import (
    DensifyError,
    MmapWriteError,
    assert_readonly_mmap,
    forbid_densify,
)
from repro.analysis.pragmas import Pragma, collect_pragmas

__all__ = [
    "AnalysisReport",
    "Baseline",
    "DensifyError",
    "Finding",
    "LintRule",
    "MmapWriteError",
    "ModuleContext",
    "Pragma",
    "RULE_REGISTRY",
    "analyze_paths",
    "assert_readonly_mmap",
    "audit_engine_api",
    "audit_kernel_parity_coverage",
    "audit_parity_coverage",
    "collect_pragmas",
    "forbid_densify",
    "run_audits",
]
