"""What every command shares: output files written atomically, and the
process pool of `ingest` and `finegrain` with the bytes of input each
command gives one pool process. The pool forks, so it runs on POSIX
systems only; elsewhere both commands run serially.

It imports only the standard library, so the evaluation commands write
their outputs through it without loading the ingest or vision code.
"""

from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager, suppress
from pathlib import Path

# Each budget below is set from the break-even of a forced 2-process pool
# against the serial run, on smaller perfbench inputs (2-vCPU box, median
# of 5-9 runs, whole command wall time; BENCH_18.json). A forked
# process starts with this process's modules, so what a pool still costs is
# sending each item and result through a pipe and, for finegrain, importing
# numpy and the vision code, which the parent does not load. A 2-process
# pool starts from two budgets of input, 1.6-2 times the break-even.

# ingest gives each pool process at least this much XML. On `corpus` inputs
# of 250-500 articles the pool lost at 7.9 MB of XML (0.48 s against
# 0.39 s) and won from 11.9 MB (0.42 s against 0.50 s; 0.49 s against
# 0.71 s at 16 MB).
XML_BYTES_PER_PROCESS = 8 << 20

# finegrain gives each pool process at least this many bytes of image files.
# On prefixes of a `panels` corpus the pool lost at 19 MB of PPM (0.45 s
# against 0.41 s), tied at 30 MB (0.50 s against 0.48 s) and won from 41 MB
# (0.52 s against 0.57 s; 0.84 s against 1.06 s at 81 MB).
IMAGE_BYTES_PER_PROCESS = 32 << 20

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

    The pool has min(workers, os.cpu_count(), len(items)) processes, forked
    from this one, so they start with its modules already imported. With
    one, or where the platform cannot fork, no pool is started and fn runs
    in this process, so workers=1 is serial. Otherwise fn (a module-level
    function or a functools.partial of one), items and results must pickle,
    and the caller must run no other thread: a forked process holds only
    the thread that forked, and a lock another thread held stays taken in
    it. The commands call this from a single-threaded parent that has not
    imported numpy. Items go out in contiguous chunks; each result is
    yielded as soon as it and all before it are done.
    """
    size = min(workers, os.cpu_count() or 1, len(items))
    if size <= 1 or not hasattr(os, "fork"):
        yield from map(fn, items)
        return
    # Imported here, so that commands that start no pool do not load
    # multiprocessing.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    chunksize = -(-len(items) // (size * CHUNKS_PER_PROCESS))
    # With fork, the executor starts every process before its manager thread.
    with ProcessPoolExecutor(size, mp_context=multiprocessing.get_context("fork")) as pool:
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
