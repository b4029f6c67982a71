"""Diagnostics: stable codes, severities, and the report container.

Every check in :mod:`repro.analysis` emits :class:`Diagnostic` values
with a **stable code** (``RA101``, ``RA201``, ...) so tooling — CI
gates, editor integrations, the ``validate=`` pre-flight — can match on
codes instead of message text.  The catalog below is the single source
of truth: a code's severity is fixed here, and ``docs/analysis.md``
must document every entry (enforced by ``tools/check_docs.py``).

Code blocks by pass:

* ``RA0xx`` — analyzer/CLI plumbing (bad target, no builder).
* ``RA1xx`` — safety / range restriction.
* ``RA2xx`` — termination (weak acyclicity, topology reachability).
* ``RA3xx`` — trust-policy references.
* ``RA4xx`` — SQL lowering drift (``EXPLAIN`` dry-runs).
* ``RA5xx`` — ProQL query analysis (reachability, satisfiability).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.errors import AnalysisError

ERROR = "error"
WARNING = "warning"

#: code -> (severity, one-line title).  Stable across releases: codes
#: are never reused for a different meaning.
CODES: dict[str, tuple[str, str]] = {
    "RA001": (ERROR, "analysis target failure (bad file, no builder)"),
    "RA101": (ERROR, "unsafe rule: unparameterized labeled null"),
    "RA102": (ERROR, "Skolem argument not bound by the rule body"),
    "RA103": (WARNING, "singleton body variable (possible typo)"),
    "RA104": (WARNING, "duplicate mapping (identical head and body)"),
    "RA105": (ERROR, "atom arity does not match the relation schema"),
    "RA106": (ERROR, "rule references an unknown relation"),
    "RA201": (ERROR, "not weakly acyclic: exchange may not terminate"),
    "RA202": (WARNING, "peer unreachable in the mapping topology"),
    "RA203": (WARNING, "no-op mapping (head is contained in the body)"),
    "RA301": (ERROR, "trust condition references an unknown relation"),
    "RA302": (ERROR, "trust policy distrusts an unknown mapping"),
    "RA303": (WARNING, "trust condition shadowed by a public-name condition"),
    "RA401": (ERROR, "exchange lowering failed EXPLAIN"),
    "RA402": (ERROR, "deletion-propagation lowering failed EXPLAIN"),
    "RA403": (ERROR, "reachability-index lowering failed EXPLAIN"),
    "RA404": (WARNING, "rule outside the SQL-compilable fragment"),
    "RA501": (WARNING, "statically empty path (relation unreachable from spec)"),
    "RA502": (ERROR, "unsatisfiable WHERE condition"),
    "RA503": (WARNING, "condition on a relation the rewriting never touches"),
    "RA504": (ERROR, "query failed to parse or references unknown names"),
}

#: severity sort rank (errors first in reports).
_RANK = {ERROR: 0, WARNING: 1}


def severity_of(code: str) -> str:
    """The fixed severity of *code* (raises KeyError for unknown codes)."""
    return CODES[code][0]


@dataclass(frozen=True)
class Diagnostic:
    """One finding of the static analyzer.

    ``subject`` names the offending object — a rule/mapping name, a
    relation, a peer, or a trust-policy index — so reports stay
    greppable and machine-consumable.
    """

    code: str
    message: str
    subject: str = ""

    def __post_init__(self) -> None:
        if self.code not in CODES:
            raise AnalysisError(f"unknown diagnostic code {self.code!r}")

    @property
    def severity(self) -> str:
        return severity_of(self.code)

    @property
    def is_error(self) -> bool:
        return self.severity == ERROR

    def to_dict(self) -> dict[str, str]:
        return {
            "code": self.code,
            "severity": self.severity,
            "subject": self.subject,
            "message": self.message,
        }

    def __str__(self) -> str:
        subject = f" [{self.subject}]" if self.subject else ""
        return f"{self.code} {self.severity}{subject}: {self.message}"


@dataclass(frozen=True)
class Report:
    """The analyzer's verdict over one mapping program.

    ``ok`` means *no errors* — warnings never block an exchange, they
    only show up in the listing.  ``stats`` counts what the passes
    actually covered (rules analyzed, SQL statements dry-run), so a
    "clean" report can be told apart from a pass that never ran.
    """

    diagnostics: tuple[Diagnostic, ...]
    stats: dict[str, int] = field(default_factory=dict)

    @property
    def errors(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.is_error)

    @property
    def warnings(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if not d.is_error)

    @property
    def ok(self) -> bool:
        return not self.errors

    def codes(self) -> set[str]:
        return {d.code for d in self.diagnostics}

    def by_code(self, code: str) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.code == code)

    def to_dict(self) -> dict[str, object]:
        return {
            "ok": self.ok,
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "stats": dict(self.stats),
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def raise_for_errors(self) -> None:
        """Raise :class:`AnalysisError` when the report has errors."""
        if self.ok:
            return
        lines = [str(d) for d in self.errors]
        raise AnalysisError(
            f"static analysis failed with "
            f"{len(lines)} error(s):\n" + "\n".join(lines)
        )

    def __str__(self) -> str:
        if not self.diagnostics:
            return "analysis: clean (0 errors, 0 warnings)"
        lines = [str(d) for d in self.diagnostics]
        lines.append(
            f"analysis: {len(self.errors)} error(s), "
            f"{len(self.warnings)} warning(s)"
        )
        return "\n".join(lines)


def make_report(
    diagnostics: list[Diagnostic], stats: dict[str, int] | None = None
) -> Report:
    """Order diagnostics (errors first, then code, then subject) into a
    :class:`Report`."""
    ordered = tuple(
        sorted(
            diagnostics,
            key=lambda d: (_RANK[d.severity], d.code, d.subject, d.message),
        )
    )
    return Report(ordered, stats or {})
