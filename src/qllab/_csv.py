"""Shared CSV writing: comment header plus 12-significant-digit floats."""

from __future__ import annotations

import datetime


def fmt(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def write_csv(path, header, rows):
    """Write rows with a '# generated=' comment line before the header,
    built in memory and written in one call.

    Bodies are deterministic for identical inputs; only the comment line
    varies between runs.
    """
    now = datetime.datetime.now(datetime.timezone.utc).isoformat()
    lines = [f"# generated={now}", ",".join(header)]
    lines += [",".join(map(fmt, row)) for row in rows]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
