"""Result tables and their CSV/JSON persistence.

CSV bodies are deterministic: header row, comma separators, LF endings and
17-significant-digit decimals, with no timestamps.  Run metadata (config
hash, package versions, wall time) goes into the JSON summary only, so
re-running a preset with the same seed reproduces byte-identical CSV files.

Every output file of the package (CSV results, JSON summaries, field
snapshots, symbol caches, rho kernels) is written by ``write_text``.  An
existing file is replaced, not truncated: it is removed and created again.
So a symlink at that path is replaced rather than followed, a hard link to
the old file keeps the old bytes, and the new file gets the default mode and
owner.  A file the caller may not write is refused with PermissionError, as
a truncating write would be; in a directory that does not allow removing
it, a writable file is truncated and written in place.
"""

from dataclasses import dataclass, field
import errno
import hashlib
import json
import os

import numpy as np


_BLOCK = 4096  # rows formatted by one % in mode_rows


def write_text(path, text):
    """Replace the file at ``path`` by ``text``, a string or strings in order.

    Truncating a file whose data is not yet on disk can make the filesystem
    write that data out first (ext4 ``auto_da_alloc``); a new file has no
    such data.  After a crash the file is missing or short, as it could be
    after a truncating write.
    """
    if os.path.exists(path) and not os.access(path, os.W_OK):
        raise PermissionError(errno.EACCES, "output file is not writable", str(path))
    try:
        os.unlink(path)
    except (FileNotFoundError, PermissionError):
        pass  # nothing to remove, or a directory that keeps it: truncate below
    with open(path, "w", newline="\n") as fh:
        fh.writelines([text] if isinstance(text, str) else text)


def mode_rows(modes, values, sep):
    """Text lines, one per lattice mode, cells joined by ``sep``.

    A line holds the integer coordinates of the mode (%d) and then the Re and
    Im part (%.17g) of each complex value at that mode.  Yields one string
    per block of ``_BLOCK`` lines, so only one block is held as Python
    objects at a time.
    """
    parts = np.ascontiguousarray(values, dtype=complex).reshape(len(modes), -1).view(float)
    row = sep.join(["%d"] * modes.shape[1] + ["%.17g"] * parts.shape[1]) + "\n"
    for i in range(0, len(modes), _BLOCK):
        cells = np.concatenate([modes[i:i + _BLOCK].astype(object),
                                parts[i:i + _BLOCK].astype(object)], axis=1)
        yield row * len(cells) % tuple(cells.ravel().tolist())


@dataclass
class ResultTable:
    columns: list
    rows: list = field(default_factory=list)

    def add(self, *values):
        if len(values) != len(self.columns):
            raise ValueError(
                f"row width {len(values)} does not match {len(self.columns)} columns"
            )
        self.rows.append(list(values))

    def column(self, name):
        i = self.columns.index(name)
        return [row[i] for row in self.rows]


def _fmt(value):
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def write_csv(table, path):
    lines = [table.columns] + [[_fmt(v) for v in row] for row in table.rows]
    write_text(path, "".join(",".join(cells) + "\n" for cells in lines))


def config_hash(cfg):
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def write_summary(summary, path):
    write_text(path, json.dumps(summary, indent=2, sort_keys=True, default=float) + "\n")
