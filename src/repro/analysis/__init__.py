"""Determinism and simulation-safety linter for this repository.

Every result of the reproduction rests on fixed-seed, bit-identical
stochastic experiments.  That contract has been broken silently three
times in this repo's history -- ``hash(kind)`` seeding that varied with
``PYTHONHASHSEED`` (figure 9), RNG draws made in set-iteration order
(the SAN executor), and colliding ``RandomStreams.spawn`` children --
each caught ad hoc, after the fact.  This package encodes the invariants
behind those bugs as named, testable AST lint rules and gates CI on
them:

* :mod:`repro.analysis.rules` -- the :class:`Rule` framework, the rule
  registry, and the initial rule set (``DET001``..``DET005``,
  ``PICKLE001``, ``MUT001``);
* :mod:`repro.analysis.visitor` -- a single-pass AST visitor that
  dispatches each node to the rules interested in it;
* :mod:`repro.analysis.engine` -- file discovery, per-package rule
  scoping, inline ``# repro: ignore[CODE] <reason>`` suppressions
  (justification text required), and committed-baseline support;
* :mod:`repro.analysis.report` -- human text, JSON, and GitHub
  annotation renderings;
* :mod:`repro.analysis.docs` -- a separate, self-contained gate: the
  intra-repo markdown link checker behind the CI ``docs`` job
  (``python -m repro.analysis.docs``);
* ``python -m repro.analysis src tests benchmarks`` -- the CLI, which
  exits nonzero on any unsuppressed finding.

The analyzer holds itself to its own contract: ``repro.analysis`` is
inside the scope of the strictest rule (``DET001``) and must report
zero findings on its own source (covered by a self-hosting test).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.analysis.engine import (
        AnalysisResult,
        Suppression,
        analyze_paths,
        load_baseline,
        write_baseline,
    )
    from repro.analysis.rules import (
        Finding,
        Rule,
        Scope,
        Severity,
        all_rules,
        get_rule,
        register_rule,
    )
    from repro.analysis.report import render_github, render_json, render_text

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.analysis.engine": (
        "AnalysisResult",
        "Suppression",
        "analyze_paths",
        "load_baseline",
        "write_baseline",
    ),
    "repro.analysis.rules": (
        "Finding",
        "Rule",
        "Scope",
        "Severity",
        "all_rules",
        "get_rule",
        "register_rule",
    ),
    "repro.analysis.report": ("render_github", "render_json", "render_text"),
})

__all__ = [
    "AnalysisResult",
    "Finding",
    "Rule",
    "Scope",
    "Severity",
    "Suppression",
    "all_rules",
    "analyze_paths",
    "get_rule",
    "load_baseline",
    "register_rule",
    "render_github",
    "render_json",
    "render_text",
    "write_baseline",
]
