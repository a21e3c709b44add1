"""Structured artifacts: machine-readable results for every experiment.

The generators historically produced *text only* -- faithful to the paper's
tables, but opaque to downstream tooling (plots, regression tracking,
benchmark trajectories).  This module is the structured half of the
pipeline:

* :class:`RunManifest` -- provenance of one experiment run: experiment
  name, scale, seed, jobs, a stable hash of the settings, per-point wall
  clock (fed by the runner's timing hook) and total wall clock.  Manifests
  round-trip through JSON (``to_json`` / ``from_json``).
* :func:`artifact_payload` -- the canonical JSON artifact envelope:
  ``{schema, experiment, description, data, manifest}`` where ``data`` is
  the experiment's :meth:`~repro.experiments.registry.ExperimentSpec.to_record`
  output.  Payloads are strict JSON: :func:`json_safe` maps non-finite
  floats to ``null`` and tuples to lists.
* :data:`ARTIFACT_SCHEMA` + :func:`validate_artifact` -- a dependency-free
  validator for the subset of JSON Schema the artifacts use, so CI and the
  tests can reject malformed artifacts without installing ``jsonschema``.
* :func:`render_csv` / :func:`write_experiment_artifacts` -- CSV rendering
  of an experiment's tabular series and the on-disk layout
  (``<output>/<experiment>/{report.txt,result.json,result.csv,manifest.json}``).
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "ARTIFACT_SCHEMA",
    "MANIFEST_SCHEMA",
    "ArtifactValidationError",
    "PointTiming",
    "RunManifest",
    "Table",
    "artifact_payload",
    "dump_json",
    "json_safe",
    "render_csv",
    "utc_timestamp",
    "validate_artifact",
    "validate_instance",
    "write_experiment_artifacts",
]

#: A tabular series: ``(header, rows)`` with one list of cells per row.
Table = Tuple[Sequence[str], Sequence[Sequence[Any]]]

ARTIFACT_SCHEMA_ID = "repro.experiment-artifact/v1"
MANIFEST_SCHEMA_ID = "repro.run-manifest/v1"


def utc_timestamp() -> str:
    """The current time as an ISO-8601 UTC string (manifest ``started_at``)."""
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def json_safe(value: Any) -> Any:
    """Recursively normalise ``value`` into strict-JSON-serialisable data.

    Tuples become lists, non-finite floats become ``None`` (strict JSON has
    no ``NaN``/``Infinity``), and dictionary keys are coerced to strings.
    """
    if isinstance(value, dict):
        return {str(key): json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(item) for item in value]
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, (int, str)):
        return value
    return repr(value)


# ----------------------------------------------------------------------
# Run manifests
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PointTiming:
    """Wall clock of one sweep point of an experiment.

    ``cached`` points were served by the result cache and report 0.0 s.
    """

    label: str
    indices: Tuple[int, ...]
    seconds: float
    cached: bool = False

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation."""
        return {
            "label": self.label,
            "indices": list(self.indices),
            "seconds": self.seconds,
            "cached": self.cached,
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "PointTiming":
        """Inverse of :meth:`to_dict`."""
        return PointTiming(
            label=data["label"],
            indices=tuple(int(i) for i in data["indices"]),
            seconds=float(data["seconds"]),
            cached=bool(data["cached"]),
        )


@dataclass(frozen=True)
class RunManifest:
    """Provenance of one experiment run.

    Everything needed to interpret (and reproduce) an artifact: which
    experiment, at which scale and seed, with how many workers, against
    which exact settings (hash + full dump), when, and how long each point
    took.
    """

    experiment: str
    scale: str
    seed: int
    jobs: Optional[int]
    settings_hash: str
    settings: Dict[str, Any]
    started_at: str
    wall_clock_seconds: float
    points: Tuple[PointTiming, ...] = ()
    version: str = ""
    schema: str = MANIFEST_SCHEMA_ID

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation (validates against :data:`MANIFEST_SCHEMA`)."""
        return {
            "schema": self.schema,
            "experiment": self.experiment,
            "scale": self.scale,
            "seed": self.seed,
            "jobs": self.jobs,
            "settings_hash": self.settings_hash,
            "settings": json_safe(self.settings),
            "started_at": self.started_at,
            "wall_clock_seconds": self.wall_clock_seconds,
            "points": [point.to_dict() for point in self.points],
            "version": self.version,
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "RunManifest":
        """Inverse of :meth:`to_dict`."""
        return RunManifest(
            experiment=data["experiment"],
            scale=data["scale"],
            seed=int(data["seed"]),
            jobs=None if data["jobs"] is None else int(data["jobs"]),
            settings_hash=data["settings_hash"],
            settings=data["settings"],
            started_at=data["started_at"],
            wall_clock_seconds=float(data["wall_clock_seconds"]),
            points=tuple(PointTiming.from_dict(point) for point in data["points"]),
            version=data["version"],
            schema=data["schema"],
        )

    def to_json(self) -> str:
        """Serialise to a JSON document."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True, allow_nan=False)

    @staticmethod
    def from_json(text: str) -> "RunManifest":
        """Parse a manifest previously produced by :meth:`to_json`."""
        return RunManifest.from_dict(json.loads(text))


# ----------------------------------------------------------------------
# Schema validation (dependency-free subset of JSON Schema)
# ----------------------------------------------------------------------
class ArtifactValidationError(ValueError):
    """An artifact payload does not conform to its schema."""


#: Schema of a :class:`RunManifest` JSON document.
MANIFEST_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "required": [
        "schema",
        "experiment",
        "scale",
        "seed",
        "jobs",
        "settings_hash",
        "settings",
        "started_at",
        "wall_clock_seconds",
        "points",
        "version",
    ],
    "properties": {
        "schema": {"type": "string", "const": MANIFEST_SCHEMA_ID},
        "experiment": {"type": "string"},
        "scale": {"type": "string"},
        "seed": {"type": "integer"},
        "jobs": {"type": ["integer", "null"]},
        "settings_hash": {"type": "string"},
        "settings": {"type": "object"},
        "started_at": {"type": "string"},
        "wall_clock_seconds": {"type": "number"},
        "points": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["label", "indices", "seconds", "cached"],
                "properties": {
                    "label": {"type": "string"},
                    "indices": {"type": "array", "items": {"type": "integer"}},
                    "seconds": {"type": "number"},
                    "cached": {"type": "boolean"},
                },
            },
        },
        "version": {"type": "string"},
    },
}

#: Schema of the JSON artifact envelope emitted for every experiment.
ARTIFACT_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "required": ["schema", "experiment", "description", "data", "manifest"],
    "properties": {
        "schema": {"type": "string", "const": ARTIFACT_SCHEMA_ID},
        "experiment": {"type": "string"},
        "description": {"type": "string"},
        "data": {"type": "object"},
        "manifest": MANIFEST_SCHEMA,
    },
}

_TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
}


class _Mismatch(Exception):
    """A schema mismatch on its way up to :func:`validate_instance`.

    It collects the path segments to the offending value (innermost
    first) as it propagates, so a valid artifact formats no path at all.
    """

    def __init__(self, message: str) -> None:
        super().__init__(message)
        self.message = message
        self.segments: List[str] = []


def validate_instance(instance: Any, schema: Dict[str, Any], path: str = "$") -> None:
    """Validate ``instance`` against the subset of JSON Schema used here.

    Supported keywords: ``type`` (name or list of names), ``const``,
    ``required``, ``properties``, ``items``.  Raises
    :class:`ArtifactValidationError` naming the offending path.
    """
    try:
        _validate(instance, schema)
    except _Mismatch as mismatch:
        where = path + "".join(reversed(mismatch.segments))
        raise ArtifactValidationError(f"{where}: {mismatch.message}") from None


def _validate(instance: Any, schema: Dict[str, Any]) -> None:
    """:func:`validate_instance` without the path, which only a failure needs."""
    expected = schema.get("type")
    if expected is not None:
        if isinstance(expected, list):
            matches = any(_TYPE_CHECKS[name](instance) for name in expected)
        else:
            matches = _TYPE_CHECKS[expected](instance)
        if not matches:
            names = expected if isinstance(expected, list) else [expected]
            raise _Mismatch(
                f"expected type {'/'.join(names)}, got {type(instance).__name__}"
            )
    if "const" in schema and instance != schema["const"]:
        raise _Mismatch(f"expected constant {schema['const']!r}, got {instance!r}")
    if isinstance(instance, dict):
        for name in schema.get("required", ()):
            if name not in instance:
                raise _Mismatch(f"missing required key {name!r}")
        for name, subschema in schema.get("properties", {}).items():
            if name in instance:
                try:
                    _validate(instance[name], subschema)
                except _Mismatch as mismatch:
                    mismatch.segments.append(f".{name}")
                    raise
    if isinstance(instance, list) and "items" in schema:
        for index, item in enumerate(instance):
            try:
                _validate(item, schema["items"])
            except _Mismatch as mismatch:
                mismatch.segments.append(f"[{index}]")
                raise


def validate_artifact(payload: Dict[str, Any]) -> None:
    """Validate one experiment artifact payload (raises on mismatch)."""
    validate_instance(payload, ARTIFACT_SCHEMA)


# ----------------------------------------------------------------------
# Payloads, CSV, and the on-disk layout
# ----------------------------------------------------------------------
def artifact_payload(
    experiment: str,
    description: str,
    data: Dict[str, Any],
    manifest: RunManifest,
) -> Dict[str, Any]:
    """The canonical JSON artifact envelope (already schema-valid)."""
    payload = {
        "schema": ARTIFACT_SCHEMA_ID,
        "experiment": experiment,
        "description": description,
        "data": json_safe(data),
        "manifest": manifest.to_dict(),
    }
    validate_artifact(payload)
    return payload


def _csv_cell(cell: Any) -> Any:
    """One CSV cell: non-finite floats become empty, like JSON ``null``."""
    if cell is None:
        return ""
    if isinstance(cell, float) and not math.isfinite(cell):
        return ""
    return cell


def dump_json(payload: Any) -> str:
    """The one canonical JSON serialisation of artifacts (disk and stdout)."""
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)


def render_csv(table: Table) -> str:
    """Render a ``(header, rows)`` table as CSV text (``\\n`` line ends).

    Missing values (``None``) and non-finite floats render as empty cells,
    mirroring the JSON artifact layer's non-finite -> ``null`` rule so the
    two artifact formats never disagree about the same datum.
    """
    header, rows = table
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(list(header))
    for row in rows:
        writer.writerow([_csv_cell(cell) for cell in row])
    return buffer.getvalue()


def write_experiment_artifacts(
    output_dir: str,
    experiment: str,
    text: str,
    payload: Dict[str, Any],
    manifest: RunManifest,
    table: Optional[Table] = None,
) -> Dict[str, str]:
    """Write one experiment's artifact files under ``output_dir/experiment/``.

    Always writes ``report.txt`` (the paper-faithful text), ``result.json``
    (the schema-valid envelope) and ``manifest.json``; adds ``result.csv``
    when the experiment has a tabular series.  Returns the written paths
    keyed by file kind.
    """
    directory = os.path.join(output_dir, experiment)
    os.makedirs(directory, exist_ok=True)
    written: Dict[str, str] = {}

    def emit(kind: str, filename: str, content: str) -> None:
        path = os.path.join(directory, filename)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(content if content.endswith("\n") else content + "\n")
        written[kind] = path

    emit("text", "report.txt", text)
    emit("json", "result.json", dump_json(payload))
    emit("manifest", "manifest.json", manifest.to_json())
    if table is not None:
        emit("csv", "result.csv", render_csv(table))
    return written
