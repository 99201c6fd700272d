"""Execution experience: training data from successful executions.

Rows keep the raw sensed values; membership queries compare both sides on the
attribute grid, so a stored 23.4 answers a query for 23.0. Nearest
neighbour works on the raw values and breaks exact ties toward the column
median (the interior of the success region).
"""

from __future__ import annotations

import bisect
import csv
import math
from dataclasses import dataclass

from .kb import AttributeSchema

SUCCESS = "success"
FAILURE = "failure"


class ExperienceError(Exception):
    pass


class EmptyColumnError(ExperienceError):
    pass


@dataclass(frozen=True)
class AttributeVector:
    values: tuple[float, ...]
    outcome: str
    episode: int

    def __post_init__(self) -> None:
        if self.outcome not in (SUCCESS, FAILURE):
            raise ExperienceError(f"bad outcome {self.outcome!r}")
        for v in self.values:
            if not math.isfinite(v):
                raise ExperienceError("attribute values must be finite")


class TrainingData:
    """Multiset of successful execution vectors.

    ``rows`` is the source of truth. ``add_success`` also files each row
    under the quantized value of every attribute, so queries read one bucket
    instead of the whole history; sorted columns are cached until the next
    write.
    """

    def __init__(self, schema: AttributeSchema):
        self.schema = schema
        self.rows: list[AttributeVector] = []
        # per attribute: quantized value -> rows in that bucket, in insertion order
        self._buckets: list[dict[float, list[AttributeVector]]] = [{} for _ in schema.attributes]
        # per attribute: quantized value -> distinct quantized vectors in that bucket
        self._qvectors: list[dict[float, set[tuple[float, ...]]]] = [{} for _ in schema.attributes]
        # (attr, bucket_by, quantized bucket) -> sorted raw values
        self._sorted: dict[tuple[int, int | None, float | None], list[float]] = {}

    def __len__(self) -> int:
        return len(self.rows)

    def add_success(self, vector: AttributeVector) -> None:
        if vector.outcome != SUCCESS:
            raise ExperienceError("training data only accepts success vectors")
        if len(vector.values) != len(self.schema):
            raise ExperienceError(
                f"vector arity {len(vector.values)} does not match schema arity {len(self.schema)}"
            )
        qvec = self.schema.quantize_vector(vector.values)
        self.rows.append(vector)
        for buckets, qvectors, q in zip(self._buckets, self._qvectors, qvec):
            buckets.setdefault(q, []).append(vector)
            qvectors.setdefault(q, set()).add(qvec)
        self._sorted.clear()

    # -- queries ------------------------------------------------------------

    def _bucket(self, bucket_by: int | None, bucket_value: float | None) -> float | None:
        return None if bucket_by is None else self.schema.quantize(bucket_by, bucket_value)

    def _rows_in(self, bucket_by: int | None, bucket: float | None) -> list[AttributeVector]:
        if bucket_by is None:
            return self.rows
        return self._buckets[bucket_by - 1].get(bucket, [])

    def _sorted_column(self, attr: int, bucket_by: int | None, bucket_value: float | None) -> list[float]:
        bucket = self._bucket(bucket_by, bucket_value)
        key = (attr, bucket_by, bucket)
        view = self._sorted.get(key)
        if view is None:
            view = sorted(row.values[attr - 1] for row in self._rows_in(bucket_by, bucket))
            self._sorted[key] = view
        return view

    def column(self, attr: int, bucket_by: int | None = None, bucket_value: float | None = None) -> list[float]:
        """Raw values of one attribute, optionally restricted to a master bucket."""
        rows = self._rows_in(bucket_by, self._bucket(bucket_by, bucket_value))
        return [row.values[attr - 1] for row in rows]

    def contains_value(self, attr: int, value: float) -> bool:
        return self.schema.quantize(attr, value) in self._buckets[attr - 1]

    def contains_joint(self, attrs: list[int], values: list[float]) -> bool:
        """True iff one single row matches every queried attribute after quantization."""
        if len(attrs) != len(values):
            raise ExperienceError("attrs and values length mismatch")
        wants = [(a - 1, self.schema.quantize(a, v)) for a, v in zip(attrs, values)]
        first, want = wants[0]
        return any(
            all(qvec[i] == w for i, w in wants)
            for qvec in self._qvectors[first].get(want, ())
        )

    def quantized_range(
        self,
        attr: int,
        bucket_by: int | None = None,
        bucket_value: float | None = None,
    ) -> tuple[float, float] | None:
        """(min, max) of the quantized column, or None if it is empty.

        Exact from the raw extremes because quantization is monotone.
        """
        view = self._sorted_column(attr, bucket_by, bucket_value)
        if not view:
            return None
        return self.schema.quantize(attr, view[0]), self.schema.quantize(attr, view[-1])

    def nearest_neighbor(
        self,
        attr: int,
        value: float,
        bucket_by: int | None = None,
        bucket_value: float | None = None,
    ) -> float:
        """Stored value minimising |stored - value|; ties resolve toward the median."""
        view = self._sorted_column(attr, bucket_by, bucket_value)
        if not view:
            raise EmptyColumnError(f"no stored values for attribute {attr}")
        # |v - value| is monotone on each side of value, so every closest
        # value sits in one run around the insertion point.
        hi = bisect.bisect_left(view, value)
        lo = hi - 1
        best = min(abs(view[i] - value) for i in (lo, hi) if 0 <= i < len(view))
        while lo >= 0 and abs(view[lo] - value) == best:
            lo -= 1
        while hi < len(view) and abs(view[hi] - value) == best:
            hi += 1
        candidates: list[float] = []
        for v in view[lo + 1 : hi]:
            if not candidates or v != candidates[-1]:
                candidates.append(v)
        if len(candidates) == 1:
            return candidates[0]
        n = len(view)
        median = view[n // 2] if n % 2 else (view[n // 2 - 1] + view[n // 2]) / 2
        if median > value:
            return candidates[-1]
        return candidates[0]

    # -- persistence ----------------------------------------------------------

    def save(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["episode"] + [s.name for s in self.schema.attributes] + ["outcome"])
            for row in self.rows:
                w.writerow([row.episode] + [repr(v) for v in row.values] + [row.outcome])

    @classmethod
    def load(cls, path: str, schema: AttributeSchema) -> "TrainingData":
        td = cls(schema)
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            want = ["episode"] + [s.name for s in schema.attributes] + ["outcome"]
            if header != want:
                raise ExperienceError(f"{path}: unexpected header {header}")
            for lineno, row in enumerate(reader, start=2):
                if len(row) != len(want):
                    raise ExperienceError(f"{path}: bad row at line {lineno}")
                try:
                    episode = int(row[0])
                    values = tuple(float(v) for v in row[1:-1])
                except ValueError as exc:
                    raise ExperienceError(f"{path}: bad row at line {lineno}: {exc}") from None
                outcome = row[-1]
                if outcome != SUCCESS:
                    raise ExperienceError(f"{path}: non-success outcome at line {lineno}")
                td.add_success(AttributeVector(values, outcome, episode))
        return td
