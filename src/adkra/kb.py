"""Refinable knowledge base of numeric bound fluents.

Each owned fluent keeps a history stack: the engineered initial value sits at
the bottom with status ``confirmed``; refinement pushes a single ``temporary``
value on top (replacing any previous temporary, never stacking two); a
confirmation turns the top into the new revert floor. Conditional entries
keyed by a quantized master-attribute bucket hold learned per-bucket bounds
and fall back to the unconditional entry on lookup. The attribute schema
says which attribute is whose master; the knowledge base keeps no
relationships of its own.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass, field

from .pddl import format_number

CONFIRMED = "confirmed"
TEMPORARY = "temporary"


class KnowledgeBaseError(Exception):
    pass


class UnknownFluentError(KnowledgeBaseError):
    pass


def ground_key(name: str, *args: str) -> str:
    """Render a ground fluent key, e.g. ground_key('maxdis', 'grp') -> 'maxdis(grp)'."""
    return f"{name}({','.join(args)})"


def split_key(key: str) -> tuple[str, tuple[str, ...]]:
    name, _, rest = key.partition("(")
    return name, tuple(a for a in rest.rstrip(")").split(",") if a)


# ── Attribute schema ──────────────────────────────────────────────────────


@dataclass(frozen=True)
class AttributeSpec:
    index: int  # 1-based, contiguous
    name: str
    quantization: float
    eta: float
    kb_fluent_upper: str
    kb_fluent_lower: str
    # Attribute whose quantized bucket conditions this one's bounds (a slave
    # of that master); None for an independent attribute.
    master: int | None = None


@dataclass
class AttributeSchema:
    attributes: tuple[AttributeSpec, ...]

    def __post_init__(self) -> None:
        for want, spec in enumerate(self.attributes, start=1):
            if spec.index != want:
                raise KnowledgeBaseError("attribute indices must be contiguous from 1")
            if not all(math.isfinite(v) and v > 0 for v in (spec.quantization, spec.eta)):
                raise KnowledgeBaseError(
                    f"attribute {spec.name}: quantization and eta must be finite and positive"
                )
            if spec.master is None:
                continue
            if not 1 <= spec.master <= len(self.attributes):
                raise KnowledgeBaseError(f"attribute {spec.name}: no master attribute {spec.master}")
            if spec.master == spec.index:
                raise KnowledgeBaseError(f"attribute {spec.name} cannot be its own master")
            if self.attributes[spec.master - 1].master is not None:
                raise KnowledgeBaseError(f"attribute {spec.name}: its master has a master itself")

    def __len__(self) -> int:
        return len(self.attributes)

    def spec(self, index: int) -> AttributeSpec:
        if not 1 <= index <= len(self.attributes):
            raise KnowledgeBaseError(f"no attribute with index {index}")
        return self.attributes[index - 1]

    def by_fluent(self, fluent: str) -> AttributeSpec:
        """The attribute owning a bound fluent, on either side."""
        for spec in self.attributes:
            if fluent in (spec.kb_fluent_upper, spec.kb_fluent_lower):
                return spec
        raise KnowledgeBaseError(f"no attribute owns the fluent {fluent!r}")

    def quantize(self, index: int, value: float) -> float:
        """Round half-up onto the attribute grid."""
        return _snap(value, self.spec(index).quantization)

    def quantize_vector(self, values: tuple[float, ...]) -> tuple[float, ...]:
        if len(values) != len(self.attributes):
            raise KnowledgeBaseError(f"expected {len(self.attributes)} values, got {len(values)}")
        return tuple([_snap(v, spec.quantization) for v, spec in zip(values, self.attributes)])

    def eta(self, index: int) -> float:
        return self.spec(index).eta


def _snap(value: float, q: float) -> float:
    return math.floor(value / q + 0.5) * q


# ── KB entries ────────────────────────────────────────────────────────────


@dataclass
class HistoryRecord:
    value: float
    status: str
    stamp: int


@dataclass
class KBEntry:
    fluent: str
    condition: float | None  # quantized master-bucket key, None for the global entry
    history: list[HistoryRecord] = field(default_factory=list)

    @property
    def value(self) -> float:
        return self.history[-1].value

    @property
    def status(self) -> str:
        return self.history[-1].status


class KnowledgeBase:
    """Bound fluents with refinement history, global or per master bucket."""

    def __init__(self, initial: dict[str, float] | None = None):
        self._entries: dict[tuple[str, float | None], KBEntry] = {}
        self._digest: str | None = None  # snapshot_hash, cleared by every write
        if initial:
            for fluent, value in initial.items():
                self.load_initial(fluent, value)

    # -- construction -----------------------------------------------------

    def load_initial(self, fluent: str, value: float, stamp: int = 0) -> None:
        """Set the engineered (confirmed) base value, resetting any history."""
        self._digest = None
        self._entries[(fluent, None)] = KBEntry(
            fluent, None, [HistoryRecord(float(value), CONFIRMED, stamp)]
        )

    # -- lookup -----------------------------------------------------------

    def has_entry(self, fluent: str, condition: float | None = None) -> bool:
        return (fluent, condition) in self._entries

    def get_effective_value(self, fluent: str, condition: float | None = None) -> float:
        entry = self._entries.get((fluent, condition))
        if entry is None and condition is not None:
            entry = self._entries.get((fluent, None))
        if entry is None:
            raise UnknownFluentError(f"unknown fluent {fluent!r}")
        return entry.value

    def entries(self) -> list[KBEntry]:
        """Entries in canonical order; read-only, writes go through the methods below."""
        return [self._entries[k] for k in sorted(self._entries, key=_entry_sort_key)]

    def temporaries(self) -> list[KBEntry]:
        return [e for e in self.entries() if e.status == TEMPORARY]

    # -- refinement -------------------------------------------------------

    def apply_temporary(self, fluent: str, value: float, stamp: int, condition: float | None = None) -> None:
        """Push a temporary value; an existing temporary is replaced, not stacked.

        A conditional entry that does not exist yet is created holding only the
        temporary record; reverting such an entry deletes it again.
        """
        key = (fluent, condition)
        entry = self._entries.get(key)
        if entry is None:
            if condition is None:
                raise UnknownFluentError(f"unknown fluent {fluent!r}")
            entry = KBEntry(fluent, condition, [])
            self._entries[key] = entry
        self._digest = None
        if entry.history and entry.history[-1].status == TEMPORARY:
            entry.history[-1] = HistoryRecord(float(value), TEMPORARY, stamp)
        else:
            entry.history.append(HistoryRecord(float(value), TEMPORARY, stamp))

    def confirm_top(self, fluent: str, condition: float | None = None) -> None:
        """Turn the top record into the new revert floor; a confirmed top stays as it is."""
        entry = self._entries.get((fluent, condition))
        if entry is None:
            raise UnknownFluentError(f"unknown fluent {fluent!r}")
        top = entry.history[-1]
        entry.history[-1] = HistoryRecord(top.value, CONFIRMED, top.stamp)
        self._digest = None

    def revert_to_confirmed(self, fluent: str, condition: float | None = None) -> None:
        key = (fluent, condition)
        entry = self._entries.get(key)
        if entry is None:
            if condition is not None:
                return  # nothing learned for this bucket, nothing to revert
            raise UnknownFluentError(f"unknown fluent {fluent!r}")
        self._digest = None
        if entry.history and entry.history[-1].status == TEMPORARY:
            entry.history.pop()
        if not entry.history:
            del self._entries[key]

    # -- snapshots and the run file ---------------------------------------

    def effective_dump(self) -> str:
        lines = []
        for e in self.entries():
            cond = "" if e.condition is None else repr(e.condition)
            lines.append(f"{e.fluent}|{cond}|{e.value!r}|{e.status}")
        return "\n".join(lines)

    def snapshot_hash(self) -> str:
        """SHA-256 prefix of effective_dump, recomputed only after a write."""
        if self._digest is None:
            self._digest = hashlib.sha256(self.effective_dump().encode()).hexdigest()[:12]
        return self._digest

    def save(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["fluent", "condition_bucket", "value", "status", "stamp"])
            for e in self.entries():
                cond = "" if e.condition is None else format_number(e.condition)
                for rec in e.history:
                    w.writerow([e.fluent, cond, format_number(rec.value), rec.status, rec.stamp])


def _entry_sort_key(key: tuple[str, float | None]) -> tuple[str, int, float]:
    fluent, cond = key
    return (fluent, 0 if cond is None else 1, cond if cond is not None else 0.0)
