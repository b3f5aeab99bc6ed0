"""Walk article package directories, parse them in the `batch` process
pool, and emit one JSON object per article to a JSONL corpus file.

Per-article failures are caught and become skip-log entries, never run
aborts, and print nothing: the skip row is their record. Packages are
enumerated in pmcid order and their results come back in that order, so
both outputs stream to disk as they arrive and their bytes are identical
for any worker count.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path

from . import jats
from .batch import XML_BYTES_PER_PROCESS, atomic_lines, ordered_map
from .corpus import corpus_line
from .imageindex import entry_is, index_listing, split_name

SKIP_MALFORMED_XML = "malformed_xml"
SKIP_NO_FIGURES = "no_figures"
SKIP_MISSING_MEDIA = "missing_media"
SKIP_NO_UNIQUE_ID = "no_unique_fig_id"
SKIP_UNDECODABLE_NAME = "undecodable_name"
SKIP_REASONS = (SKIP_MALFORMED_XML, SKIP_NO_FIGURES, SKIP_MISSING_MEDIA, SKIP_NO_UNIQUE_ID,
                SKIP_UNDECODABLE_NAME)
# The skip reason of each figure the JATS walk drops.
_DROP_REASONS = {jats.DROP_NO_ID: SKIP_NO_UNIQUE_ID, jats.DROP_NO_GRAPHIC: SKIP_MISSING_MEDIA,
                 jats.DROP_EMPTY_CAPTION: SKIP_NO_FIGURES}


class RootNotFound(FileNotFoundError):
    pass


@dataclass
class ArticlePackage:
    """The package directory root/pmcid: the name of its XML file (None when
    it has none) and of each image file, by stem. Holding names, not paths,
    keeps a package small and cheap to send to a pool process."""

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
    """An iterator over every package directory under root, ordered by pmcid.

    A package is a direct subdirectory of root; its name is the pmcid.
    Its images are its direct children, indexed by stem; packages without
    an XML file are yielded with xml_path=None. Root is checked and listed
    by this call, so a missing root raises RootNotFound at once; each
    package is listed when the iterator reaches it.
    """
    root = Path(root)
    if not root.is_dir():
        raise RootNotFound(str(root))
    try:
        with os.scandir(root) as listing:
            names = sorted(entry.name for entry in listing if entry_is(entry.is_dir))
    except PermissionError as exc:
        raise PermissionError(f"cannot list {root}") from exc
    return (_package(root, name) for name in names)


def _package(root: Path, name: str) -> ArticlePackage:
    with os.scandir(root / name) as listing:
        entries = list(listing)
    xml_name = min((e.name for e in entries if split_name(e.name)[1] == ".xml"),
                   default=None)
    return ArticlePackage(root, name, xml_name, index_listing(entries))


def _process_package(package: ArticlePackage):
    """Returns ("ok", pmcid, json_line, n_pairs, fig_skips) or
    ("skip", pmcid, reason). The corpus line is serialized here, so a pool
    process sends back one string per article instead of a nested dict."""
    # A name that is not UTF-8 lists with surrogate escapes, which no output can hold.
    shown = os.fsencode(package.pmcid).decode("utf-8", "backslashreplace")
    if shown != package.pmcid:
        return ("skip", shown, SKIP_UNDECODABLE_NAME)
    xml_path = package.xml_path
    if xml_path is None:
        return ("skip", package.pmcid, SKIP_MALFORMED_XML)
    try:
        record = jats.parse_article(xml_path.read_bytes())
    except jats.NoFigures:
        return ("skip", package.pmcid, SKIP_NO_FIGURES)
    except Exception:  # MalformedXml, MissingPmcid or any other fault
        return ("skip", package.pmcid, SKIP_MALFORMED_XML)

    resolved, unresolved = jats.extract_pairs(record, package.image_names)
    fig_skips = [(fig.fig_id, SKIP_MISSING_MEDIA) for fig in unresolved]
    fig_skips += [(fig_id, _DROP_REASONS[reason]) for fig_id, reason in record.dropped_figures]
    if not resolved:
        return ("skip", package.pmcid, SKIP_MISSING_MEDIA)
    for fig in resolved:
        fig.image = f"{package.pmcid}/{package.image_names[fig.graphic_ref]}"
    record.figures = resolved
    return ("ok", package.pmcid, corpus_line(record), len(resolved), fig_skips)


def run_pipeline(root, out_path, skip_log_path=None, workers: int = 1) -> IngestReport:
    """Parse every package under root and write the corpus JSONL.

    Output order is ascending pmcid regardless of completion order; skip
    reasons go to the sidecar skip log, an article's rows ordered by fig_id.
    Packages are listed, and each article's lines written, as the run
    reaches them, so of the corpus only its sorted package names are held
    whole. Per-article exceptions never abort the run. Up to `workers`
    processes parse, each given at least XML_BYTES_PER_PROCESS of XML (see
    batch.ordered_map); below that the parse is serial.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    start = time.monotonic()
    packages = enumerate_packages(root)
    report = IngestReport()

    skip_log = nullcontext() if skip_log_path is None else atomic_lines(skip_log_path)
    with atomic_lines(out_path) as write_line, skip_log as write_skip:
        for outcome in ordered_map(_process_package, packages, workers,
                                   files=lambda package: [package.xml_path],
                                   bytes_per_process=XML_BYTES_PER_PROCESS):
            report.articles_seen += 1
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
