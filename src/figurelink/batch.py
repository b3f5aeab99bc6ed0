"""What every command shares: output files written atomically, and the
bytes of input that `ingest` and `finegrain` give each pool process.

It imports only the standard library, so the evaluation commands write
their outputs through it without loading the ingest or vision code.
"""

from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager, suppress
from pathlib import Path

# A spawned pool process takes 0.1-0.15 s to start and import what ingest
# needs (not numpy), about what parsing a few MB of JATS takes, so ingest
# gives each one at least this much XML (about half a second of parsing)
# and parses smaller corpora serially.
XML_BYTES_PER_PROCESS = 16 << 20

# finegrain gives each pool process at least this many bytes of image files.
# A spawned process spends 0.15-0.3 s starting and importing numpy and the
# vision code before it splits a figure. On prefixes of the perfbench
# `panels` corpus (2-vCPU box, median of 5 runs) a forced 2-process pool
# lost to the serial run at 23 MB of PPM (0.96 s against 0.79 s), tied at
# 45 MB (1.15 s) and won from 68 MB on (1.12 s against 1.19 s; 2.33 s
# against 3.19 s at 236 MB). At 64 MB per process a pool starts only from
# 128 MB, well past that break-even.
IMAGE_BYTES_PER_PROCESS = 64 << 20


class OutputUnwritable(OSError):
    pass


@contextmanager
def atomic_lines(path):
    """Yield a function that writes one line plus "\n" to a temp file beside
    path. When the block ends normally the temp file is renamed over path,
    so an interrupted run never leaves a truncated output; when it raises,
    the temp file is removed. A failed write, close or rename raises
    OutputUnwritable; an exception from the block passes through as is."""
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".tmp")
        fh = os.fdopen(fd, "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise OutputUnwritable(str(exc)) from exc

    def write(line: str) -> None:
        try:
            fh.write(line)
            fh.write("\n")
        except OSError as exc:
            raise OutputUnwritable(str(exc)) from exc

    try:
        yield write
    except BaseException:
        _discard(fh, tmp)
        raise
    try:
        fh.close()
        os.replace(tmp, path)
    except OSError as exc:
        _discard(fh, tmp)
        raise OutputUnwritable(str(exc)) from exc


def _discard(fh, tmp) -> None:
    with suppress(OSError):
        fh.close()
    with suppress(OSError):
        os.unlink(tmp)


def atomic_write_lines(path, lines) -> None:
    """Write each of lines through atomic_lines(path)."""
    with atomic_lines(path) as write:
        for line in lines:
            write(line)
