"""Result export: CSV and JSON serialisation of experiment data.

The figure functions return plain dicts with a ``rows``/``results``
payload; these helpers persist them in formats that plotting tools and
notebooks consume directly, so the ASCII reports in ``benchmarks/out``
are not the only machine artefact.
"""

from __future__ import annotations

import csv
import json
import pathlib
from dataclasses import asdict, is_dataclass
from typing import Iterable, Sequence, Union

__all__ = ["write_csv", "write_json", "rows_to_dicts"]

PathLike = Union[str, pathlib.Path]


def rows_to_dicts(columns: Sequence[str], rows: Iterable[Sequence[object]]):
    """Zip column names over rows -> list of dicts (for JSON export)."""
    out = []
    for row in rows:
        if len(row) != len(columns):
            raise ValueError(f"row has {len(row)} cells, expected {len(columns)}")
        out.append(dict(zip(columns, row)))
    return out


def write_csv(path: PathLike, columns: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    """Write rows as CSV with a header line."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            if len(row) != len(columns):
                raise ValueError(f"row has {len(row)} cells, expected {len(columns)}")
            writer.writerow(row)


def _jsonable(value):
    if is_dataclass(value) and not isinstance(value, type):
        return asdict(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "tolist"):  # numpy arrays and scalars
        return value.tolist()
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def write_json(path: PathLike, data: object, indent: int = 2) -> None:
    """Write any figure-function payload as JSON.

    Dataclasses, numpy arrays and nested containers are converted;
    anything else falls back to ``str()`` so exports never fail on
    auxiliary fields (e.g. the pre-rendered ``report`` string).
    """
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        json.dump(_jsonable(data), fh, indent=indent)
        fh.write("\n")
