"""Walk article package directories, parse them in worker processes, and
emit one JSON object per article to a JSONL corpus file.

Per-article failures are caught and become skip-log entries, never run
aborts. Packages are enumerated in pmcid order and their results come back
in that order, so both outputs stream to disk as they arrive and their
bytes are identical for any worker count.
"""

from __future__ import annotations

import json
import logging
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from json.encoder import encode_basestring
from operator import itemgetter
from pathlib import Path

from . import jats
from .batch import XML_BYTES_PER_PROCESS, atomic_lines
from .imageindex import entry_is, index_listing, split_name

log = logging.getLogger(__name__)

SKIP_MALFORMED_XML = "malformed_xml"
SKIP_NO_FIGURES = "no_figures"
SKIP_MISSING_MEDIA = "missing_media"
SKIP_REASONS = (SKIP_MALFORMED_XML, SKIP_NO_FIGURES, SKIP_MISSING_MEDIA)

# ordered_map hands each pool process about this many chunks of the input:
# small enough that the processes finish within one short chunk of each
# other, large enough that per-chunk pickling stays negligible.
CHUNKS_PER_PROCESS = 16


class RootNotFound(FileNotFoundError):
    pass


@dataclass
class ArticlePackage:
    """The package directory root/pmcid: the name of its XML file (None when
    it has none) and of each image file, by stem. Holding names, not paths,
    keeps the list of every package small and cheap to send to a pool."""

    root: Path
    pmcid: str
    xml_name: str | None
    image_names: dict[str, str]

    @property
    def xml_path(self) -> Path | None:
        return None if self.xml_name is None else self.root / self.pmcid / self.xml_name


@dataclass
class IngestReport:
    articles_seen: int = 0
    articles_emitted: int = 0
    skipped_no_figures: int = 0
    skipped_malformed: int = 0
    pairs_emitted: int = 0
    # skip-log rows per reason, article- and figure-level alike
    skip_reasons: dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(SKIP_REASONS, 0))
    wall_time: float = 0.0

    def counters(self) -> dict:
        return {
            "articles_seen": self.articles_seen,
            "articles_emitted": self.articles_emitted,
            "skipped_no_figures": self.skipped_no_figures,
            "skipped_malformed": self.skipped_malformed,
            "pairs_emitted": self.pairs_emitted,
            **{f"skip_reason_{r}": n for r, n in self.skip_reasons.items()},
        }


def enumerate_packages(root):
    """Yield every package directory under root, ordered by pmcid.

    A package is a direct subdirectory of root; its name is the pmcid.
    Its images are its direct children, indexed by stem; packages without
    an XML file are yielded with xml_path=None.
    """
    root = Path(root)
    if not root.is_dir():
        raise RootNotFound(str(root))
    try:
        with os.scandir(root) as listing:
            names = sorted(entry.name for entry in listing if entry_is(entry.is_dir))
    except PermissionError as exc:
        raise PermissionError(f"cannot list {root}") from exc
    for name in names:
        with os.scandir(root / name) as listing:
            entries = list(listing)
        xml_name = min((e.name for e in entries if split_name(e.name)[1] == ".xml"),
                       default=None)
        yield ArticlePackage(root, name, xml_name, index_listing(entries))


def json_string(text: str) -> str:
    """json.dumps(text, ensure_ascii=False). A string with no quote, no
    backslash and nothing that str.isprintable() rejects (which covers every
    control character) needs no escape and is only quoted; any other goes
    through json's own escaper, so the bytes are the same either way."""
    if text.isprintable() and '"' not in text and "\\" not in text:
        return '"' + text + '"'
    return encode_basestring(text)


def corpus_line(record: jats.ArticleRecord, figures) -> str:
    """The corpus JSONL line of record, with figures (FigureEntry values) in
    place of its own: json.dumps(obj, ensure_ascii=False) of {"pmid",
    "pmcid", "figures": [{"fig_id", "graphic_ref", "caption"}],
    "body_paragraphs"}, built without json.dumps."""
    pmid = "null" if record.pmid is None else json_string(record.pmid)
    figure_objs = ", ".join(
        f'{{"fig_id": {json_string(f.fig_id)}, "graphic_ref": {json_string(f.graphic_ref)}, '
        f'"caption": {json_string(f.caption)}}}' for f in figures)
    paragraphs = ", ".join(map(json_string, record.body_paragraphs))
    return (f'{{"pmid": {pmid}, "pmcid": {json_string(record.pmcid)}, '
            f'"figures": [{figure_objs}], "body_paragraphs": [{paragraphs}]}}')


def _process_package(package: ArticlePackage):
    """Returns ("ok", pmcid, json_line, n_pairs, fig_skips) or
    ("skip", pmcid, reason). The corpus line is serialized here, so a pool
    process sends back one string per article instead of a nested dict."""
    xml_path = package.xml_path
    if xml_path is None:
        return ("skip", package.pmcid, SKIP_MALFORMED_XML)
    try:
        record = jats.parse_article(xml_path.read_bytes())
    except jats.MalformedXml:
        return ("skip", package.pmcid, SKIP_MALFORMED_XML)
    except jats.MissingPmcid:
        return ("skip", package.pmcid, SKIP_MALFORMED_XML)
    except jats.NoFigures:
        return ("skip", package.pmcid, SKIP_NO_FIGURES)
    except Exception:  # per-article isolation: any fault becomes a skip
        log.exception("unexpected failure parsing %s", package.pmcid)
        return ("skip", package.pmcid, SKIP_MALFORMED_XML)

    resolved, unresolved = jats.extract_pairs(record, package.image_names)
    fig_skips = [(fig.fig_id, SKIP_MISSING_MEDIA) for fig in unresolved]
    fig_skips += [
        (fig_id, SKIP_NO_FIGURES if reason == jats.DROP_EMPTY_CAPTION else SKIP_MISSING_MEDIA)
        for fig_id, reason in record.dropped_figures
    ]
    if not resolved:
        return ("skip", package.pmcid, SKIP_MISSING_MEDIA)
    return ("ok", package.pmcid, corpus_line(record, resolved), len(resolved), fig_skips)


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


def run_pipeline(root, out_path, skip_log_path=None, workers: int = 1) -> IngestReport:
    """Parse every package under root and write the corpus JSONL.

    Output order is ascending pmcid regardless of completion order; skip
    reasons go to the sidecar skip log, an article's rows ordered by fig_id.
    Each article's lines are written as its result arrives, so memory does
    not grow with the corpus. Per-article exceptions never abort the run.
    Up to `workers` processes parse, each given at least
    XML_BYTES_PER_PROCESS of XML; below that the parse is serial.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    start = time.monotonic()
    packages = list(enumerate_packages(root))
    report = IngestReport(articles_seen=len(packages))

    workers = pool_size(workers, (p.xml_path for p in packages), XML_BYTES_PER_PROCESS)

    skip_log = nullcontext() if skip_log_path is None else atomic_lines(skip_log_path)
    with atomic_lines(out_path) as write_line, skip_log as write_skip:
        for outcome in ordered_map(_process_package, packages, workers):
            if outcome[0] == "ok":
                _, pmcid, line, n_pairs, fig_skips = outcome
                write_line(line)
                report.articles_emitted += 1
                report.pairs_emitted += n_pairs
                skips = [{"pmcid": pmcid, "reason": reason, "fig_id": fig_id}
                         for fig_id, reason in sorted(fig_skips, key=itemgetter(0))]
            else:
                _, pmcid, reason = outcome
                # missing_media articles count as no-figure skips: they carry
                # no emittable pair even though the XML parsed.
                if reason in (SKIP_NO_FIGURES, SKIP_MISSING_MEDIA):
                    report.skipped_no_figures += 1
                else:
                    report.skipped_malformed += 1
                skips = [{"pmcid": pmcid, "reason": reason}]
            for skip in skips:
                report.skip_reasons[skip["reason"]] += 1
                if write_skip is not None:
                    write_skip(json.dumps(skip, ensure_ascii=False))

    report.wall_time = time.monotonic() - start
    return report
