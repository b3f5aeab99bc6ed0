"""What every command shares: output files written atomically, and the
process pool of `ingest` and `finegrain` with the bytes of input each
command gives one pool process.

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

# ordered_map hands each pool process about this many chunks of the input:
# small enough that the processes finish within one short chunk of each
# other, large enough that per-chunk pickling stays negligible.
CHUNKS_PER_PROCESS = 16


def pool_size(workers: int, paths, bytes_per_process: int) -> int:
    """The process count a command asks ordered_map for: at most `workers`,
    and one per bytes_per_process of the files at paths, but at least one.

    A path that is None or cannot be read counts as empty; the worker that
    reads it reports the fault.
    """
    total = 0
    for path in paths:
        try:
            total += os.stat(path).st_size if path is not None else 0
        except OSError:
            pass
    return max(1, min(workers, total // bytes_per_process))


def ordered_map(fn, items: list, workers: int):
    """Yield fn(item) for each item, in input order, computed by up to
    `workers` processes.

    The pool has min(workers, os.cpu_count(), len(items)) processes, started
    with spawn. With one, no pool is started and fn runs in this process, so
    workers=1 is serial. Otherwise fn must pickle (a module-level function
    or a functools.partial of one), items and results must pickle, and a
    script that calls this must guard its entry point with
    `if __name__ == "__main__"`, because each process imports the main
    module. Items go out in contiguous chunks; each result is yielded as
    soon as it and all before it are done.
    """
    size = min(workers, os.cpu_count() or 1, len(items))
    if size <= 1:
        yield from map(fn, items)
        return
    # Imported here, so that commands that start no pool do not load
    # multiprocessing.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    chunksize = -(-len(items) // (size * CHUNKS_PER_PROCESS))
    with ProcessPoolExecutor(size, mp_context=multiprocessing.get_context("spawn")) as pool:
        yield from pool.map(fn, items, chunksize=chunksize)


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
