"""The one writer behind every CSV table the package emits."""

from __future__ import annotations

from typing import Iterable, Sequence


def write_csv(path: str, columns: Sequence[tuple[str, str]], rows: Iterable[Sequence]) -> None:
    """Header line of column names, then one line per row.

    ``columns`` holds (name, format spec) pairs; a cell is written as
    ``format(value, spec)``, so "" gives ``str(value)``.
    """
    line = ",".join(f"{{:{spec}}}" for _, spec in columns) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(name for name, _ in columns) + "\n")
        fh.writelines(line.format(*row) for row in rows)
