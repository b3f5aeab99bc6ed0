"""Seeded input generators for the three benchmark workloads.

Every function here is a pure function of its seed: the same seed writes the
same bytes. The program under test only ever sees the files written here.
"""

from __future__ import annotations

import json
import os
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from figurelink import synth
from figurelink.evaluate import MODALITY_TEXT, EmbeddingStore, write_store

# Same fault roles, at the same article indices, as synth.make_corpus.
FAULT_ROLES = {3: "malformed_xml", 7: "no_figures", 12: "missing_xml", 17: "missing_media"}

CORPUS_ARTICLES = 2000
CORPUS_FIGURES = 3
CORPUS_PARAGRAPHS = 24
PANELS_ARTICLES = 300
PROBE_ARTICLES = 8
EMBED_SIZES = (1000, 4000)
EMBED_DIM = 256
EMBED_NOISE = 4.0
INFONCE_N = 2048
INFONCE_TAU = 0.07

_VOCAB = (
    "cells tissue expression protein gene mice patients tumor cancer signaling "
    "pathway receptor antibody staining analysis samples control group treatment "
    "response increased decreased significant levels activity binding domain "
    "mutation variant sequence transcription regulation cellular membrane nuclear "
    "cytoplasmic mitochondrial inflammation immune infection viral bacterial "
    "clinical cohort survival outcome imaging microscopy fluorescence confocal "
    "section histology lesion margin infiltration marker phenotype genotype "
    "knockout wild type mutant dose time course concentration inhibitor agonist "
    "in vitro in vivo culture medium assay western blot quantification shown "
    "observed compared relative baseline measured detected reduced enhanced "
    "consistent with previous reports suggesting role of the and in for with "
    "a an to from by was were is are that which this these at as on"
).split()


@dataclass
class CorpusTruth:
    """What ingest must report for a generated package tree."""

    articles_seen: int
    articles_emitted: int
    skipped_no_figures: int
    skipped_malformed: int
    pairs_emitted: int
    # pmcid -> number of figures, for the articles ingest must emit
    emitted_figures: dict[str, int] = field(default_factory=dict)

    def counters(self) -> dict:
        return {"articles_seen": self.articles_seen,
                "articles_emitted": self.articles_emitted,
                "skipped_no_figures": self.skipped_no_figures,
                "skipped_malformed": self.skipped_malformed,
                "pairs_emitted": self.pairs_emitted}


def _truth_from_roles(roles: dict[str, str], figures: dict[str, int]) -> CorpusTruth:
    good = {p: figures[p] for p, r in roles.items() if r == "good"}
    # The report counts a missing_media article as a no-figures skip.
    return CorpusTruth(
        articles_seen=len(roles),
        articles_emitted=len(good),
        skipped_no_figures=sum(r in ("no_figures", "missing_media") for r in roles.values()),
        skipped_malformed=sum(r in ("malformed_xml", "missing_xml") for r in roles.values()),
        pairs_emitted=sum(good.values()),
        emitted_figures=good,
    )


# ---------------------------------------------------------------- corpus

def _words(rng: random.Random, n: int) -> str:
    return " ".join(rng.choices(_VOCAB, k=n))


def _wrapped(text: str, indent: str = "\n        ") -> str:
    # Real JATS paragraphs carry hard line breaks and indentation.
    words = text.split(" ")
    return indent.join(" ".join(words[i:i + 12]) for i in range(0, len(words), 12))


def _citance(rng: random.Random, n_figs: int) -> str:
    fig = rng.randint(1, n_figs)
    kind = rng.randrange(4)
    if kind == 0:
        return f"as shown in Fig. {fig}{rng.choice('ABC')}"
    if kind == 1:
        return f"(Figure {fig}A–C)"
    if kind == 2:
        return f"(Figs. {fig} and {n_figs})"
    return f"(Fig. {fig})"


@dataclass
class _TextPool:
    """Paragraphs, phrases and references drawn once per corpus; articles
    sample from them, which keeps generation cheap next to parsing."""

    paragraphs: list[str]
    phrases: list[str]
    references: list[str]

    @classmethod
    def draw(cls, rng: random.Random, size: int = 400) -> "_TextPool":
        return cls([_wrapped(_words(rng, rng.randint(70, 110))) for _ in range(size)],
                   [_words(rng, 20) for _ in range(size)],
                   [f'<mixed-citation publication-type="journal">{_words(rng, 18)}. '
                    f"<source>{_words(rng, 3)}</source> <year>{rng.randint(1990, 2022)}</year>."
                    "</mixed-citation>" for _ in range(size)])


def _jats_article(rng: random.Random, pool: _TextPool, pmcid: str, pmid: str,
                  n_figs: int) -> str:
    out = ['<?xml version="1.0" encoding="UTF-8"?>\n'
           '<!DOCTYPE article PUBLIC "-//NLM//DTD JATS (Z39.96) Journal Archiving and '
           'Interchange DTD v1.2 20190208//EN" "JATS-archivearticle1.dtd">\n'
           '<article xmlns:xlink="http://www.w3.org/1999/xlink" article-type="research-article">\n'
           "  <front>\n    <journal-meta><journal-title-group><journal-title>"
           "Journal of Synthetic Biomedicine</journal-title></journal-title-group>"
           "<issn pub-type=\"epub\">0000-0000</issn></journal-meta>\n    <article-meta>\n"
           f'      <article-id pub-id-type="pmid">{pmid}</article-id>\n'
           f'      <article-id pub-id-type="pmc">{pmcid[3:]}</article-id>\n'
           f'      <article-id pub-id-type="doi">10.0000/synth.{pmid}</article-id>\n'
           f"      <title-group><article-title>{_words(rng, 14)}</article-title></title-group>\n"
           "      <contrib-group>\n"]
    for a in range(rng.randint(4, 8)):
        out.append(f'        <contrib contrib-type="author"><name><surname>{_words(rng, 1).title()}'
                   f"</surname><given-names>{'ABCDEFGH'[a]}.</given-names></name></contrib>\n")
    out.append("      </contrib-group>\n      <abstract>\n")
    for para in rng.choices(pool.paragraphs, k=2):
        out.append(f"        <p>{para}</p>\n")
    out.append("      </abstract>\n    </article-meta>\n  </front>\n  <body>\n")
    sections = ("Introduction", "Materials and methods", "Results", "Discussion")
    per_sec = CORPUS_PARAGRAPHS // len(sections)
    for s, title in enumerate(sections):
        out.append(f'    <sec id="s{s + 1}">\n      <title>{title}</title>\n')
        for para in rng.choices(pool.paragraphs, k=per_sec):
            if n_figs and rng.random() < 0.4:
                para += f" {_citance(rng, n_figs)}. Further {rng.choice(pool.phrases)}"
            out.append(f"      <p>{para}.</p>\n")
        out.append("    </sec>\n")
    for j in range(1, n_figs + 1):
        parts = [_words(rng, 10) + "."]
        for lab in "ABCD"[:rng.randint(2, 4)]:
            parts.append(f"({lab}) {_words(rng, rng.randint(8, 20))}.")
        out.append(f'    <fig id="F{j}" position="float">\n      <label>Figure {j}</label>\n'
                   f"      <caption><title>{_words(rng, 6)}</title>\n"
                   f"        <p>{_wrapped(' '.join(parts))}</p>\n      </caption>\n"
                   f'      <graphic xlink:href="{_graphic(pmcid, j)}.jpg"/>\n    </fig>\n')
    out.append("  </body>\n  <back>\n    <ref-list>\n")
    for r, ref in enumerate(rng.choices(pool.references, k=rng.randint(20, 40))):
        out.append(f'      <ref id="R{r + 1}">{ref}</ref>\n')
    out.append("    </ref-list>\n  </back>\n</article>\n")
    return "".join(out)


def _graphic(pmcid: str, j: int) -> str:
    return f"{pmcid.lower()}_fig{j}"


_PLACEHOLDER_PGM = b"P5\n8 8\n255\n" + bytes(range(0, 256, 4))


def make_text_corpus(root: Path, seed: int, n_articles: int = CORPUS_ARTICLES) -> CorpusTruth:
    """Article packages with realistic-size JATS XML and placeholder media.

    Each good package holds one ~30 KB XML file with CORPUS_FIGURES figures
    and one 8x8 PGM per figure. The PGMs are hard links to one placeholder
    file, since ingest only lists media names. The fault packages of
    synth.make_corpus are planted at the same indices.
    """
    rng = random.Random(seed)
    pool = _TextPool.draw(rng)
    packages = Path(root) / "packages"
    packages.mkdir(parents=True)
    placeholder = Path(root) / "placeholder.pgm"
    placeholder.write_bytes(_PLACEHOLDER_PGM)
    roles: dict[str, str] = {}
    figures: dict[str, int] = {}
    for i in range(n_articles):
        pmcid = f"PMC{1000 + i}"
        pkg = packages / pmcid
        pkg.mkdir()
        role = roles[pmcid] = FAULT_ROLES.get(i, "good")
        if role == "malformed_xml":
            (pkg / f"{pmcid}.xml").write_text("<article><front><unclosed></article>")
            continue
        if role == "missing_xml":
            (pkg / "notes.txt").write_text("no xml here")
            continue
        n_figs = 0 if role == "no_figures" else CORPUS_FIGURES
        figures[pmcid] = n_figs
        xml = _jats_article(rng, pool, pmcid, str(9000 + i), n_figs)
        (pkg / f"{pmcid}.xml").write_text(xml, encoding="utf-8")
        if role == "good":
            for j in range(1, n_figs + 1):
                os.link(placeholder, pkg / f"{_graphic(pmcid, j)}.pgm")
    return _truth_from_roles(roles, figures)


# ---------------------------------------------------------------- panels

def make_panels_corpus(root: Path, seed: int, n_articles: int = PANELS_ARTICLES) -> CorpusTruth:
    """synth.make_corpus: compound RGB figures with OCR sidecars."""
    truth = synth.make_corpus(root, n_articles, seed=seed)
    roles = {a.pmcid: a.role for a in truth.articles}
    figures = {a.pmcid: a.n_figures for a in truth.articles}
    ours = _truth_from_roles(roles, figures)
    if ours.counters() != {k: getattr(truth, k) for k in ours.counters()}:
        raise RuntimeError("synth.make_corpus truth disagrees with its article roles")
    return ours


def make_probe(root: Path, packages: Path, ocr: Path, truth: CorpusTruth) -> list[str]:
    """Copy the first PROBE_ARTICLES good packages and truncate one PPM.

    Returns the pmcids copied. The truncated file keeps its header and loses
    the second half of its pixel data, as an interrupted download would.
    """
    pmcids = sorted(truth.emitted_figures)[:PROBE_ARTICLES]
    (root / "ocr").mkdir(parents=True)
    for pmcid in pmcids:
        shutil.copytree(packages / pmcid, root / "packages" / pmcid)
        for image in (packages / pmcid).glob("*.ppm"):
            shutil.copy(ocr / f"{image.stem}.json", root / "ocr")
    victim = sorted((root / "packages" / pmcids[0]).glob("*.ppm"))[0]
    data = victim.read_bytes()
    victim.write_bytes(data[:len(data) // 2])
    return pmcids


# ---------------------------------------------------------------- embed

CLASSES = [
    {"class_name": "light microscopy",
     "prompt_templates": ["a {} image", "this is a {} figure", "a panel showing {}"]},
    {"class_name": "radiology scan",
     "prompt_templates": ["a {} image", "this is a {} figure", "a panel showing {}"]},
]
TAXONOMY_TYPES = 10
TAXONOMY_KEYWORDS = 3
SMALL_TAG, CLASSIFY_TAG = (f"n{n // 1000}k" for n in EMBED_SIZES)


@dataclass
class EmbedInputs:
    """The generated vectors, kept for the oracles."""

    stores: dict[str, tuple[EmbeddingStore, EmbeddingStore]]  # tag -> (images, texts)
    text: EmbeddingStore
    labels: dict[str, str]
    taxonomy: list[dict]
    batch_images: np.ndarray
    batch_texts: np.ndarray


def store_files(tag: str) -> tuple[str, str]:
    return f"img_{tag}.emb", f"txt_{tag}.emb"


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def make_embed_inputs(root: Path, seed: int) -> EmbedInputs:
    """Paired EMB1 stores at each EMBED_SIZES, a text-embedding file keyed by
    prompt and keyword text, class/label/taxonomy JSON, and an InfoNCE batch.

    File names are relative to root; see store_files for the stores.
    """
    root = Path(root)
    root.mkdir(parents=True)
    rng = np.random.default_rng(seed)
    stores = {}
    for n, tag in zip(EMBED_SIZES, (SMALL_TAG, CLASSIFY_TAG)):
        stores[tag] = synth.paired_stores(rng, n, EMBED_DIM, noise=EMBED_NOISE)[:2]
        for store, name in zip(stores[tag], store_files(tag)):
            write_store(root / name, store)

    # Text embeddings: each class's prompts sit near a class direction, and
    # the labels follow a noisy projection of each image on the class axis.
    class_dirs = _unit(rng.standard_normal((len(CLASSES), EMBED_DIM)))
    text_ids, text_vecs = [], []
    for spec, direction in zip(CLASSES, class_dirs):
        for template in spec["prompt_templates"]:
            text_ids.append(template.format(spec["class_name"]))
            text_vecs.append(direction + 0.3 * rng.standard_normal(EMBED_DIM) / np.sqrt(EMBED_DIM))
    taxonomy = []
    for t in range(TAXONOMY_TYPES):
        keywords = [f"type {t} keyword {k}" for k in range(TAXONOMY_KEYWORDS)]
        taxonomy.append({"type_name": f"type_{t}", "keywords": keywords})
        for kw in keywords:
            text_ids.append(kw)
            text_vecs.append(rng.standard_normal(EMBED_DIM))
    text = EmbeddingStore.from_raw(text_ids, np.array(text_vecs), MODALITY_TEXT)
    write_store(root / "text.emb", text)
    (root / "classes.json").write_text(json.dumps(CLASSES, indent=1))
    (root / "taxonomy.json").write_text(json.dumps(taxonomy, indent=1))

    images = stores[CLASSIFY_TAG][0]
    axis = class_dirs[1] - class_dirs[0]
    margin = images.vectors.astype(np.float64) @ axis
    noisy = margin + 0.5 * margin.std() * rng.standard_normal(images.n)
    labels = {i: CLASSES[int(v > 0)]["class_name"] for i, v in zip(images.ids, noisy)}
    (root / "labels.json").write_text(json.dumps(labels, indent=1))

    batch_images = rng.standard_normal((INFONCE_N, EMBED_DIM))
    batch_texts = batch_images + rng.standard_normal((INFONCE_N, EMBED_DIM))
    np.savez(root / "infonce.npz", images=batch_images, texts=batch_texts)
    return EmbedInputs(stores, text, labels, taxonomy, batch_images, batch_texts)
