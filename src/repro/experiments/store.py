"""The resumable result store: append-only JSONL keyed by cell fingerprints.

Every sweep cell — one (scenario, n, seed) combination — has a
deterministic :func:`cell_fingerprint` derived from the quantities that
define the computation (generator, algorithm, n, seed).  The store appends
one JSON record per completed cell and flushes after every write, so

* a crashed sweep loses at most the cell that was being written,
* re-running a suite skips every fingerprint already on disk, and
* two suites sharing a cell (same generator/algorithm/n/seed) share the
  completed record.

A truncated final line (the signature of a crash mid-write) is tolerated
and simply re-run; corruption anywhere else raises, because silently
dropping completed results would make resumed sweeps lie.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

__all__ = [
    "DEFAULT_OUT",
    "cell_fingerprint",
    "CellResult",
    "CorruptStoreError",
    "ResultStore",
    "DuplicateResolution",
    "MergeConflict",
    "MergeReport",
    "merge_result_files",
    "resolve_duplicate",
    "semantic_payload",
]

#: Default result-store directory, shared by the CLI and the sweep server
#: so ``run``, ``merge``, ``report`` and ``serve`` agree on where results
#: live.
DEFAULT_OUT = "experiments/results"


def cell_fingerprint(generator: str, algorithm: str, n: int, seed: int) -> str:
    """A deterministic 16-hex-digit fingerprint of one sweep cell.

    The fingerprint covers exactly the inputs that determine the cell's
    computation; the suite and scenario names are cosmetic groupings and
    deliberately excluded, so identical cells dedupe across suites.
    """
    payload = json.dumps(
        {"generator": generator, "algorithm": algorithm, "n": int(n), "seed": int(seed)},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


@dataclass
class CellResult:
    """The structured outcome of one executed sweep cell."""

    fingerprint: str
    suite: str
    scenario: str
    generator: str
    algorithm: str
    n: int
    seed: int
    rounds: float
    messages: int | None
    wall_clock_s: float
    verified: bool
    k: int | None = None
    #: Analytic round account of the cell under ``OracleCostModel``
    #: charging (the Theorem 3 black-box charge); ``None`` for cells that
    #: ran without a cost model, including every pre-charging record.
    charged_rounds: float | None = None
    extras: dict[str, Any] = field(default_factory=dict)
    #: Which engine(s) actually served the cell —
    #: "vectorized[<backend>]" (e.g. "vectorized[numpy]"),
    #: "interpreted", "mixed", or ``None`` for cells that ran no engine
    #: at all (analytic cells) and every pre-engine record.  Provenance
    #: only: results are bit-identical across engines, so the field is
    #: nonsemantic for merge conflicts.
    engine: str | None = None
    #: Rounds simulated per engine dispatch, keyed
    #: ``"engine/kernel/backend"`` (backend is ``"-"`` for interpreted
    #: runs) — the per-cell account behind the sweep server's
    #: ``engine_rounds_total`` counter.  Telemetry, nonsemantic for
    #: merge conflicts; ``None`` for analytic cells and older records.
    engine_rounds: dict[str, int] | None = None
    #: Per-phase wall-clock breakdown (``{"generate": s, "run": s,
    #: "network": s, "verify": s, "simulate": s}``) recorded by the cell's
    #: :class:`repro.local.CellContext`.  Pure telemetry:
    #: nondeterministic timing like ``wall_clock_s``, hence nonsemantic
    #: for merge conflicts; ``None`` for analytic cells and every
    #: pre-observability record.
    timings: dict[str, float] | None = None

    def to_record(self) -> dict[str, Any]:
        """The JSON-serialisable record written to the store."""
        return {
            "fingerprint": self.fingerprint,
            "suite": self.suite,
            "scenario": self.scenario,
            "generator": self.generator,
            "algorithm": self.algorithm,
            "n": self.n,
            "seed": self.seed,
            "rounds": self.rounds,
            "charged_rounds": self.charged_rounds,
            "messages": self.messages,
            "wall_clock_s": round(self.wall_clock_s, 6),
            "verified": self.verified,
            "k": self.k,
            "extras": self.extras,
            "engine": self.engine,
            "engine_rounds": self.engine_rounds,
            "timings": (
                {phase: round(seconds, 6) for phase, seconds in self.timings.items()}
                if self.timings is not None
                else None
            ),
        }

    @classmethod
    def from_record(cls, record: Any) -> "CellResult":
        """The result a store record holds.

        This is the one rule of what a cell record is: a JSON object with
        a non-empty fingerprint string and every required field, whose
        ``timings`` map names to numbers and whose ``engine_rounds`` map
        names to non-negative integers, each or ``null``.  Anything else
        raises ``ValueError`` saying what is wrong.
        """
        if not isinstance(record, dict):
            raise ValueError(f"expected a JSON object, got {type(record).__name__}")
        fingerprint = record.get("fingerprint")
        if not isinstance(fingerprint, str) or not fingerprint:
            raise ValueError("no fingerprint string")
        _check_name_map(record, "timings", "numbers", _is_number)
        _check_name_map(
            record, "engine_rounds", "non-negative integers", _is_round_count
        )
        try:
            return cls(
                fingerprint=fingerprint,
                suite=record["suite"],
                scenario=record["scenario"],
                generator=record["generator"],
                algorithm=record["algorithm"],
                n=record["n"],
                seed=record["seed"],
                rounds=record["rounds"],
                charged_rounds=record.get("charged_rounds"),
                messages=record.get("messages"),
                wall_clock_s=record.get("wall_clock_s", 0.0),
                verified=bool(record["verified"]),
                k=record.get("k"),
                extras=dict(record.get("extras", {})),
                engine=record.get("engine"),
                engine_rounds=record.get("engine_rounds"),
                timings=record.get("timings"),
            )
        except KeyError as error:
            raise ValueError(f"no {error.args[0]!r} field") from None
        except TypeError as error:  # extras that is no mapping
            raise ValueError(str(error)) from None


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_round_count(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _check_name_map(
    record: dict[str, Any], name: str, kind: str, accepts: Callable[[Any], bool]
) -> None:
    """Raise ``ValueError`` unless ``record[name]`` is absent, ``None`` or
    a mapping from name strings to values ``accepts`` takes: the server
    turns each entry into a metric observation."""
    value = record.get(name)
    if value is None:
        return
    if not isinstance(value, dict) or not all(
        isinstance(key, str) and accepts(item) for key, item in value.items()
    ):
        raise ValueError(f"{name!r} is not a mapping from names to {kind}")


class CorruptStoreError(ValueError):
    """A store line, other than a truncated final one, that is not JSON or
    is JSON but no cell record."""


class ResultStore:
    """An append-only JSONL file of :class:`CellResult` records."""

    def __init__(self, directory: str | Path, filename: str = "results.jsonl") -> None:
        self.directory = Path(directory)
        self.path = self.directory / filename
        self._tail_repaired = False

    @classmethod
    def from_path(cls, path: str | Path) -> "ResultStore":
        """A store over an explicit JSONL file rather than a directory."""
        path = Path(path)
        return cls(path.parent, path.name)

    def append(self, result: CellResult) -> None:
        """Append one record and flush, so a crash loses at most this cell."""
        self.directory.mkdir(parents=True, exist_ok=True)
        if not self._tail_repaired:
            # A truncated tail can only predate this (single-writer)
            # instance's first append; later appends need not re-scan.
            self._repair_truncated_tail()
            self._tail_repaired = True
        line = json.dumps(result.to_record(), sort_keys=True)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
            handle.flush()

    def _repair_truncated_tail(self) -> None:
        """Drop a partial final record left by a crash mid-append.

        Without this, appending after a crash would concatenate the new
        record onto the truncated fragment and corrupt both lines.
        """
        if not self.path.exists() or self.path.stat().st_size == 0:
            return
        with open(self.path, "r+b") as handle:
            handle.seek(-1, 2)
            if handle.read(1) == b"\n":
                return
            handle.seek(0)
            data = handle.read()
            keep = data.rfind(b"\n") + 1  # 0 when no complete line exists
            handle.truncate(keep)

    def lines(self) -> list[tuple[int, Any]]:
        """Each stored line's number and JSON value, tolerating a
        truncated final line.  A value need not be a cell record:
        :meth:`records` checks that."""
        if not self.path.exists():
            return []
        values: list[tuple[int, Any]] = []
        with open(self.path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
        for index, line in enumerate(lines):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                values.append((index + 1, json.loads(stripped)))
            except json.JSONDecodeError:
                if index == len(lines) - 1:
                    # A crash mid-append leaves a truncated last line; the
                    # cell is simply treated as not completed and re-run.
                    continue
                raise CorruptStoreError(
                    f"{self.path}: corrupt record on line {index + 1} "
                    f"(only the final line may be truncated): {stripped[:80]!r}"
                )
        return values

    def records(self) -> list[dict[str, Any]]:
        """Every stored cell record, tolerating a truncated final line.

        A line that is JSON but no cell record (one
        :meth:`CellResult.from_record` refuses) raises
        :class:`CorruptStoreError` naming the file and the line.
        """
        records: list[dict[str, Any]] = []
        for number, record in self.lines():
            try:
                CellResult.from_record(record)
            except ValueError as error:
                raise CorruptStoreError(
                    f"{self.path}: line {number} is not a cell record ({error})"
                ) from None
            records.append(record)
        return records

    def results(self) -> list[CellResult]:
        return [CellResult.from_record(record) for record in self.records()]

    def completed_fingerprints(self) -> set[str]:
        """Fingerprints of every completed-and-verified cell on disk.

        Unverified records do *not* count as completed: a cell whose
        verification failed is re-run on resume rather than silently kept.
        """
        return {
            record["fingerprint"]
            for record in self.records()
            if record.get("verified")
        }

    def __len__(self) -> int:
        return len(self.records())

    def __iter__(self) -> Iterator[CellResult]:
        return iter(self.results())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ResultStore(path={str(self.path)!r}, records={len(self)})"


# ----------------------------------------------------------------------
# merging sharded stores
# ----------------------------------------------------------------------

#: Record fields ignored when deciding whether two records for the same
#: fingerprint *conflict*.  Wall clock is nondeterministic timing, the
#: suite/scenario labels are cosmetic groupings (the same cell may be run
#: under different suites), the engine and per-dispatch round account are
#: execution provenance over bit-identical engines, and the per-phase
#: timings are wall-clock telemetry; none makes two records different
#: results.
NONSEMANTIC_FIELDS = (
    "wall_clock_s",
    "suite",
    "scenario",
    "engine",
    "engine_rounds",
    "timings",
)


def semantic_payload(record: dict[str, Any]) -> dict[str, Any]:
    """The fields of a record that make it a *result* (for conflicts)."""
    payload = {k: v for k, v in record.items() if k not in NONSEMANTIC_FIELDS}
    # Records written before the charged-cost layer carry no
    # charged_rounds key at all; records written after carry an explicit
    # null for uncharged cells.  Same result — key presence alone must
    # not read as a conflict between old and new stores.
    payload.setdefault("charged_rounds", None)
    return payload


@dataclass(frozen=True)
class DuplicateResolution:
    """The outcome of :func:`resolve_duplicate` on one fingerprint collision."""

    keep_newcomer: bool
    conflict: bool


def resolve_duplicate(
    previous: dict[str, Any], record: dict[str, Any]
) -> DuplicateResolution:
    """The store's one duplicate policy: rank by verification, then recency.

    A **verified** record always beats an unverified one — an unverified
    record is "not completed" per the store's resume semantics, so its
    re-run legitimately supersedes it and it must never displace a
    completed result, whatever order the two arrive in.  Between records
    of equal verification status the *newcomer* wins (last-write-wins),
    and differing semantic payloads at equal rank are flagged as a
    conflict — for a deterministic cell that means diverging code or
    environments produced the inputs.

    Shared verbatim by :func:`merge_result_files` (file-based shard
    merging) and the streaming collector, so the two fan-in paths cannot
    drift apart.
    """
    previous_ok = bool(previous.get("verified"))
    record_ok = bool(record.get("verified"))
    if previous_ok and not record_ok:
        return DuplicateResolution(keep_newcomer=False, conflict=False)
    conflict = (
        previous_ok == record_ok
        and semantic_payload(previous) != semantic_payload(record)
    )
    return DuplicateResolution(keep_newcomer=True, conflict=conflict)


@dataclass
class MergeConflict:
    """Two inputs carried *different results* for the same fingerprint.

    Last-write-wins resolved it (``kept`` is from the later input), but a
    conflict on a deterministic cell means the inputs were produced by
    diverging code or environments — worth a report line.
    """

    fingerprint: str
    kept_source: str
    dropped_source: str
    kept: dict[str, Any]
    dropped: dict[str, Any]

    def describe(self) -> str:
        changed = sorted(
            key
            for key in set(self.kept) | set(self.dropped)
            if key not in NONSEMANTIC_FIELDS
            and self.kept.get(key) != self.dropped.get(key)
        )
        return (
            f"[{self.fingerprint}] kept {self.kept_source}, "
            f"dropped {self.dropped_source} (differing fields: {', '.join(changed)})"
        )


@dataclass
class MergeReport:
    """Summary of one :func:`merge_result_files` invocation."""

    output: Path
    inputs: list[Path]
    missing: list[Path] = field(default_factory=list)
    records_read: int = 0
    merged: int = 0
    duplicates: int = 0
    conflicts: list[MergeConflict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.conflicts


def merge_result_files(
    inputs: Iterable[str | Path],
    output: str | Path,
    include_existing_output: bool = True,
) -> MergeReport:
    """Union JSONL result files by fingerprint into ``output``.

    Inputs are read in order through :class:`ResultStore`, so each file
    gets the same tolerance as a live store: a truncated final line (a
    crash mid-append) is dropped, while corruption elsewhere or a line
    that is no cell record raises :class:`CorruptStoreError` before
    anything is written.  Duplicate fingerprints resolve by rank, then
    recency: a **verified** record always beats an unverified one (an
    unverified record is "not completed" per the store's resume
    semantics — its re-run legitimately supersedes it, and it must never
    displace a completed result), and between records of equal
    verification status the *last* one wins.
    Two records of equal status that differ in semantic fields (anything
    except wall clock and the cosmetic suite/scenario labels) are
    reported as conflicts — for a deterministic cell that means the
    inputs came from diverging code or environments.

    When ``output`` already exists and ``include_existing_output`` is true
    it is treated as the *first* input, so repeated incremental merges into
    one store are safe.  Missing input files are tolerated and reported in
    ``MergeReport.missing`` — a shard that has not produced results yet
    should not abort the merge of the shards that have.

    The merged file is written atomically (temp file + rename): a crash
    mid-merge never leaves a half-written output store.
    """
    output = Path(output)
    sources: list[Path] = []
    if include_existing_output and output.exists():
        sources.append(output)
    sources.extend(Path(path) for path in inputs)

    report = MergeReport(output=output, inputs=sources)
    merged: dict[str, dict[str, Any]] = {}
    origin: dict[str, Path] = {}
    for path in sources:
        if not path.exists():
            report.missing.append(path)
            continue
        for record in ResultStore.from_path(path).records():
            report.records_read += 1
            fingerprint = record["fingerprint"]
            previous = merged.get(fingerprint)
            if previous is not None:
                report.duplicates += 1
                resolution = resolve_duplicate(previous, record)
                if not resolution.keep_newcomer:
                    continue
                if resolution.conflict:
                    report.conflicts.append(MergeConflict(
                        fingerprint=fingerprint,
                        kept_source=str(path),
                        dropped_source=str(origin[fingerprint]),
                        kept=record,
                        dropped=previous,
                    ))
            merged[fingerprint] = record
            origin[fingerprint] = path

    report.merged = len(merged)
    if report.records_read == 0:
        # No input contributed a single record — missing shards, empty
        # files, or a store holding only a truncated crash fragment: do
        # not plant an empty store at the destination.  A later `report`
        # should see "no store yet", not a valid-looking empty file
        # masking the failed merge.
        return report
    output.parent.mkdir(parents=True, exist_ok=True)
    scratch = output.with_name(output.name + ".tmp")
    with open(scratch, "w", encoding="utf-8") as handle:
        for record in merged.values():
            handle.write(json.dumps(record, sort_keys=True) + "\n")
        handle.flush()
    os.replace(scratch, output)
    return report
