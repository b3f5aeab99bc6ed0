"""What every command shares: output files written atomically, the tally
of seconds per named stage that its manifest reports, and the process pool
of `ingest` and `finegrain` with the bytes of input each command gives one
pool process. Each pool chunk sends back its stage seconds with its results.
The pool forks, so it runs on POSIX systems only; elsewhere both commands
run serially. This module imports only the standard library, and
multiprocessing only once a pool starts, so the evaluation commands use it
without loading the ingest or vision code.
"""

from __future__ import annotations

import itertools
import os
import tempfile
import time
from contextlib import contextmanager, suppress
from pathlib import Path

# Each budget below is set from the break-even of a forced 2-process pool
# against the serial run, on smaller perfbench inputs (2-vCPU box, median
# of 5-9 runs, whole command wall time; BENCH_18.json). A forked
# process starts with this process's modules, so what a pool still costs is
# sending each item and result through a pipe and, for finegrain, importing
# numpy and the vision code, which the parent does not load. A 2-process
# pool starts from two budgets of input in ordered_map's look-ahead, 1.6-2
# times the break-even.

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

# ordered_map sizes its pool from at most LOOKAHEAD_ITEMS items drawn ahead
# (~550 `corpus` packages fill a 2-process ingest pool). It cuts them into
# about CHUNKS_PER_PROCESS chunks per process, so the processes finish within
# one short chunk of each other, and keeps CHUNKS_IN_FLIGHT per process
# submitted: one that a process runs and one queued for when it finishes.
LOOKAHEAD_ITEMS = 1024
CHUNKS_PER_PROCESS = 16
CHUNKS_IN_FLIGHT = 2

_seconds: dict[str, float] = {}  # this process's current tally


@contextmanager
def recording():
    """Yield a fresh tally, current in this process until the block ends."""
    global _seconds
    outer, _seconds = _seconds, {}
    try:
        yield _seconds
    finally:
        _seconds = outer


def add_seconds(seconds: dict[str, float]) -> None:
    for name, value in seconds.items():
        _seconds[name] = _seconds.get(name, 0.0) + value


@contextmanager
def stage(name: str):
    start = time.perf_counter()
    try:
        yield
    finally:
        add_seconds({name: time.perf_counter() - start})


def _map_chunk(fn, chunk: list) -> tuple[list, dict[str, float]]:
    # A forked process starts with a copy of the caller's tally: keep it out.
    with recording() as seconds:
        return [fn(item) for item in chunk], seconds


def ordered_map(fn, items, workers: int, *, files, bytes_per_process: int):
    """Yield fn(item) for each item of the iterable items, in input order,
    computed by up to `workers` processes.

    The pool has min(workers, CPU count, items, bytes // bytes_per_process)
    processes, bytes summing the files that files(item) names (None or
    unreadable: 0) over a look-ahead that ends once both reach
    min(workers, CPU count), with the input, or at LOOKAHEAD_ITEMS. With
    one, or where the platform cannot fork, fn runs in this process on each
    item as it is drawn. Else the pool forks from this process, so fn (a
    module-level function or a functools.partial of one), items and results
    must pickle, and the caller must run no other thread: a lock another
    thread held stays taken in a forked process. Items go out in contiguous
    chunks, CHUNKS_IN_FLIGHT per process at a time; a chunk's results are
    yielded, and its stage seconds added to this process's tally, as soon
    as it and all before it are done.
    """
    items = iter(items)
    cap = min(workers, os.cpu_count() or 1) if hasattr(os, "fork") else 1
    head, total = [], 0
    for item in itertools.islice(items, LOOKAHEAD_ITEMS if cap > 1 else 0):
        head.append(item)
        for path in filter(None, files(item)):
            with suppress(OSError):
                total += os.stat(path).st_size
        if len(head) >= cap and total >= cap * bytes_per_process:
            break
    size = min(cap, len(head), total // bytes_per_process)
    chunksize = -(-len(head) // (max(size, 1) * CHUNKS_PER_PROCESS))
    stream = itertools.chain(iter(head), items)
    del head  # freed once stream has drawn it
    if size <= 1:
        yield from map(fn, stream)
        return
    # Imported here, so that commands that start no pool do not load
    # multiprocessing.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    chunks = iter(lambda: list(itertools.islice(stream, chunksize)), [])
    # With fork, the executor starts every process before its manager thread.
    with ProcessPoolExecutor(size, mp_context=multiprocessing.get_context("fork")) as pool:
        pending = [pool.submit(_map_chunk, fn, chunk)
                   for chunk in itertools.islice(chunks, size * CHUNKS_IN_FLIGHT)]
        while pending:
            results, seconds = pending.pop(0).result()
            chunk = next(chunks, None)
            if chunk is not None:
                pending.append(pool.submit(_map_chunk, fn, chunk))
            add_seconds(seconds)
            yield from results


@contextmanager
def atomic_lines(path):
    """Yield a function that writes one line plus "\n" to a temp file beside
    path. When the block ends normally the temp file is renamed over path,
    so an interrupted run never leaves a truncated output. If anything
    fails, the block or the writer's own write, close or rename, the temp
    file is removed, path keeps its old bytes, and the exception passes
    through as is."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".tmp")
    fh = os.fdopen(fd, "w", encoding="utf-8", newline="\n")

    def write(line: str) -> None:
        fh.write(line)
        fh.write("\n")

    try:
        yield write
        fh.close()
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            fh.close()
        with suppress(OSError):
            os.unlink(tmp)
        raise
