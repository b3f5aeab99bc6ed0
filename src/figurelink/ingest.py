"""Walk article package directories, parse them in worker processes, and
emit one JSON object per article to a JSONL corpus file.

Per-article failures are caught and become skip-log entries, never run
aborts. Results are canonically ordered by pmcid before writing, so output
bytes are identical for any worker count.
"""

from __future__ import annotations

import json
import logging
import os
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import jats
from .vision.images import index_images

log = logging.getLogger(__name__)

SKIP_MALFORMED_XML = "malformed_xml"
SKIP_NO_FIGURES = "no_figures"
SKIP_MISSING_MEDIA = "missing_media"
SKIP_REASONS = (SKIP_MALFORMED_XML, SKIP_NO_FIGURES, SKIP_MISSING_MEDIA)

# A spawned pool process takes ~0.3 s to start and import the package, about
# what parsing 10 MB of JATS takes, so ingest gives each one at least this
# much XML (about half a second of parsing) and parses smaller corpora
# serially.
XML_BYTES_PER_PROCESS = 16 << 20

# ordered_map hands each pool process about this many chunks of the input:
# small enough that the processes finish within one short chunk of each
# other, large enough that per-chunk pickling stays negligible.
CHUNKS_PER_PROCESS = 16


class RootNotFound(FileNotFoundError):
    pass


class OutputUnwritable(OSError):
    pass


@dataclass
class ArticlePackage:
    pmcid: str
    xml_path: Path | None
    images: dict[str, Path]


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
        entries = sorted(p for p in root.iterdir() if p.is_dir())
    except PermissionError as exc:
        raise PermissionError(f"cannot list {root}") from exc
    for pkg_dir in entries:
        children = list(pkg_dir.iterdir())
        xml_path = min((p for p in children if p.suffix == ".xml"), default=None)
        yield ArticlePackage(pkg_dir.name, xml_path, index_images(children))


def _xml_bytes(package: ArticlePackage) -> int:
    try:
        return package.xml_path.stat().st_size if package.xml_path else 0
    except OSError:  # _process_package reports an unreadable file
        return 0


def _process_package(package: ArticlePackage):
    """Returns ("ok", pmcid, json_line, n_pairs, fig_skips) or
    ("skip", pmcid, reason). The corpus line is serialized here, so a pool
    process sends back one string per article instead of a nested dict."""
    if package.xml_path is None:
        return ("skip", package.pmcid, SKIP_MALFORMED_XML)
    try:
        record = jats.parse_article(package.xml_path.read_bytes())
    except jats.MalformedXml:
        return ("skip", package.pmcid, SKIP_MALFORMED_XML)
    except jats.MissingPmcid:
        return ("skip", package.pmcid, SKIP_MALFORMED_XML)
    except jats.NoFigures:
        return ("skip", package.pmcid, SKIP_NO_FIGURES)
    except Exception:  # per-article isolation: any fault becomes a skip
        log.exception("unexpected failure parsing %s", package.pmcid)
        return ("skip", package.pmcid, SKIP_MALFORMED_XML)

    pairs, unresolved = jats.extract_pairs(record, package.images)
    fig_skips = [(fig.fig_id, SKIP_MISSING_MEDIA) for fig in unresolved]
    fig_skips += [
        (fig_id, SKIP_NO_FIGURES if reason == jats.DROP_EMPTY_CAPTION else SKIP_MISSING_MEDIA)
        for fig_id, reason in record.dropped_figures
    ]
    if not pairs:
        return ("skip", package.pmcid, SKIP_MISSING_MEDIA)

    resolved_ids = {p.fig_id for p in pairs}
    obj = {
        "pmid": record.pmid,
        "pmcid": record.pmcid,
        "figures": [
            {"fig_id": f.fig_id, "graphic_ref": f.graphic_ref, "caption": f.caption}
            for f in record.figures if f.fig_id in resolved_ids
        ],
        "body_paragraphs": record.body_paragraphs,
    }
    line = json.dumps(obj, ensure_ascii=False, sort_keys=False)
    return ("ok", package.pmcid, line, len(pairs), fig_skips)


def ordered_map(fn, items: list, workers: int) -> list:
    """Return [fn(item) for item in items], computed by up to `workers`
    processes.

    The pool has min(workers, os.cpu_count(), len(items)) processes, started
    with spawn. With one, no pool is started and fn runs in this process, so
    workers=1 is serial. Otherwise fn must be a module-level function, items
    and results must pickle, and a script that calls this must guard its
    entry point with `if __name__ == "__main__"`, because each process
    imports the main module. Items go out in contiguous chunks and results
    come back in input order.
    """
    size = min(workers, os.cpu_count() or 1, len(items))
    if size <= 1:
        return [fn(item) for item in items]
    # Imported here, so that commands that start no pool do not load
    # multiprocessing.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    chunksize = -(-len(items) // (size * CHUNKS_PER_PROCESS))
    with ProcessPoolExecutor(size, mp_context=multiprocessing.get_context("spawn")) as pool:
        return list(pool.map(fn, items, chunksize=chunksize))


def atomic_write_lines(path, lines) -> None:
    """Write each line plus "\n" to a temp file beside path, then rename it
    over path, so an interrupted run never leaves a truncated output.
    Raises OutputUnwritable when the file cannot be written."""
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".tmp")
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            for line in lines:
                fh.write(line)
                fh.write("\n")
        os.replace(tmp, path)
    except OSError as exc:
        raise OutputUnwritable(str(exc)) from exc


def run_pipeline(root, out_path, skip_log_path=None, workers: int = 1) -> IngestReport:
    """Parse every package under root and write the corpus JSONL.

    Output order is ascending pmcid regardless of completion order; skip
    reasons go to the sidecar skip log. Per-article exceptions never abort
    the run. Up to `workers` processes parse, each given at least
    XML_BYTES_PER_PROCESS of XML; below that the parse is serial.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    start = time.monotonic()
    packages = list(enumerate_packages(root))
    report = IngestReport(articles_seen=len(packages))

    xml_bytes = sum(_xml_bytes(p) for p in packages)
    workers = min(workers, max(1, xml_bytes // XML_BYTES_PER_PROCESS))

    emitted: list[tuple[str, str]] = []
    skips: list[dict] = []
    for outcome in ordered_map(_process_package, packages, workers):
        if outcome[0] == "ok":
            _, pmcid, line, n_pairs, fig_skips = outcome
            emitted.append((pmcid, line))
            report.articles_emitted += 1
            report.pairs_emitted += n_pairs
            for fig_id, reason in fig_skips:
                skips.append({"pmcid": pmcid, "reason": reason, "fig_id": fig_id})
        else:
            _, pmcid, reason = outcome
            # missing_media articles count as no-figure skips: they carry
            # no emittable pair even though the XML parsed.
            if reason in (SKIP_NO_FIGURES, SKIP_MISSING_MEDIA):
                report.skipped_no_figures += 1
            else:
                report.skipped_malformed += 1
            skips.append({"pmcid": pmcid, "reason": reason})

    emitted.sort(key=lambda kv: kv[0])
    skips.sort(key=lambda s: (s["pmcid"], s.get("fig_id", "")))
    for skip in skips:
        report.skip_reasons[skip["reason"]] += 1
    atomic_write_lines(out_path, (line for _, line in emitted))
    if skip_log_path is not None:
        atomic_write_lines(
            skip_log_path, (json.dumps(s, ensure_ascii=False) for s in skips))

    report.wall_time = time.monotonic() - start
    return report
