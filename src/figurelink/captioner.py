"""Split compound-figure captions into labeled sub-captions and pull
figure-citing sentences (citances) out of article body text.

All functions here are pure. The label-marker grammar is `_PATTERNS`, which
tests/test_captioner.py scores on the captions in tests/fixtures/captions_40.json.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

ROMAN = {"i": 1, "ii": 2, "iii": 3, "iv": 4, "v": 5,
         "vi": 6, "vii": 7, "viii": 8, "ix": 9, "x": 10}

# First detected label must canonicalize to one of these, else the caption
# is treated as unlabeled (precision guard against mid-sentence parentheses).
SEQUENCE_STARTERS = {"A", "I", "1"}

SENTENCE_ABBREVIATIONS = {"Fig.", "Figs.", "al.", "e.g.", "i.e.", "vs.", "No.", "ca."}


# Label-marker patterns, in order: at one position an earlier pattern wins.
_PATTERNS = [(name, re.compile(regex)) for name, regex in [
    ("paren_range", r"\(\s*(?P<lo>[A-Za-z0-9])\s*[\u2013\u2014-]\s*(?P<hi>[A-Za-z0-9])\s*\)"),
    ("paren", r"\(\s*(?P<tok>[A-Za-z][0-9]?|[0-9]{1,2}|[ivxIVX]{2,4})\s*\)"),
    ("bare_range", r"(?P<lo>[A-Za-z0-9])\s*[\u2013\u2014-]\s*(?P<hi>[A-Za-z0-9])\s*[):.:]"),
    ("bare", r"(?P<tok>[A-Za-z][0-9]?|[0-9]{1,2}|[ivxIVX]{2,4})[.):]"),
]]


@dataclass
class SubCaption:
    label: str | None
    text: str
    char_span: tuple[int, int]
    marker_span: tuple[int, int]


@dataclass
class Marker:
    labels: list[str]
    span: tuple[int, int]       # the label marker itself, e.g. "(A)"
    text_span: tuple[int, int]  # the sub-caption text that follows


@dataclass
class SplitResult:
    preamble: str
    subcaptions: list[SubCaption]
    markers: list[Marker] = field(default_factory=list)


@dataclass
class Citance:
    sentence: str
    target_fig_id: str
    label_refs: list[str]


def canonical_label(token: str) -> str | None:
    """Map a raw marker token to its canonical form ('a' -> 'A', 'ii' -> 'II')."""
    tok = token.strip()
    if not tok:
        return None
    low = tok.lower()
    if len(tok) > 1 and low in ROMAN:
        return tok.upper()
    if tok.isdigit():
        return str(int(tok))
    if re.fullmatch(r"[A-Za-z][0-9]?", tok):
        return tok.upper()
    return None


def _expand_range(lo: str, hi: str) -> list[str] | None:
    if lo.isalpha() and hi.isalpha():
        a, b = ord(lo.upper()), ord(hi.upper())
        if a < b <= a + 10:
            return [chr(c) for c in range(a, b + 1)]
    elif lo.isdigit() and hi.isdigit():
        a, b = int(lo), int(hi)
        if a < b <= a + 10:
            return [str(v) for v in range(a, b + 1)]
    return None


def _boundary_ok(caption: str, start: int, end: int, name: str) -> bool:
    if start > 0 and not caption[start - 1].isspace():
        return False
    if name.startswith("bare"):
        # Bare markers like "A." need following whitespace plus content.
        if end >= len(caption) or not caption[end].isspace():
            return False
    return True


def _find_markers(caption: str):
    found = []
    taken = bytearray(len(caption))  # 1 at each position a marker holds
    for name, pattern in _PATTERNS:
        for m in pattern.finditer(caption):
            if 1 in taken[m.start():m.end()]:
                continue
            if not _boundary_ok(caption, m.start(), m.end(), name):
                continue
            groups = m.groupdict()
            if "lo" in groups and groups.get("lo") is not None:
                labels = _expand_range(groups["lo"], groups["hi"])
                if labels is None:
                    continue
            else:
                lab = canonical_label(groups["tok"])
                if lab is None:
                    continue
                labels = [lab]
            found.append((m.start(), m.end(), labels))
            taken[m.start():m.end()] = b"\x01" * (m.end() - m.start())
    found.sort()
    return found


def split_caption(caption: str) -> SplitResult:
    """Split a caption into preamble and label-keyed sub-captions.

    Captions with no recognizable labels come back whole: preamble is the
    full text and the sub-caption list is empty. Ranges like "(A-C)" expand
    to individual labels sharing one text span.
    """
    if not caption:
        raise ValueError("caption must be non-empty")
    candidates = _find_markers(caption)
    if not candidates:
        return SplitResult(caption, [])
    first_labels = candidates[0][2]
    if first_labels[0] not in SEQUENCE_STARTERS:
        return SplitResult(caption, [])

    markers: list[Marker] = []
    seen: set[str] = set()
    for start, end, labels in candidates:
        fresh = [lab for lab in labels if lab not in seen]
        if len(fresh) != len(labels):
            continue  # repeated label: not a marker, stays inside prior text
        seen.update(labels)
        markers.append(Marker(labels, (start, end), (end, end)))

    subcaptions: list[SubCaption] = []
    for i, marker in enumerate(markers):
        text_start = marker.span[1]
        text_end = markers[i + 1].span[0] if i + 1 < len(markers) else len(caption)
        segment = caption[text_start:text_end]
        lead = len(segment) - len(segment.lstrip())
        trail = len(segment) - len(segment.rstrip())
        span = (text_start + lead, text_end - trail)
        if span[0] > span[1]:
            span = (text_start, text_start)
        marker.text_span = span
        text = caption[span[0]:span[1]]
        for lab in marker.labels:
            subcaptions.append(SubCaption(lab, text, span, marker.span))

    preamble = caption[:markers[0].span[0]].strip()
    return SplitResult(preamble, subcaptions, markers)


def split_sentences(text: str) -> list[str]:
    """Sentence boundaries: '.', '!' or '?' followed by whitespace and an
    uppercase letter, unless the preceding token is a known abbreviation."""
    boundaries = [0]
    # Each match is the whole token that ends at a boundary.
    for m in re.finditer(r"(?<!\S)\S*[.!?](?=\s+[A-Z])", text):
        if m.group() not in SENTENCE_ABBREVIATIONS:
            boundaries.append(m.end())
    boundaries.append(len(text))
    sentences = []
    for a, b in zip(boundaries, boundaries[1:]):
        s = text[a:b].strip()
        if s:
            sentences.append(s)
    return sentences


_FIG_REF = re.compile(
    r"\b[Ff]ig(?:ure|ures|s)?\.?\s*"
    r"(?P<refs>\d+[A-Za-z]?(?:\s*[–—-]\s*[A-Za-z0-9]+)?"
    r"(?:\s*(?:,|and|&)\s*\d+[A-Za-z]?(?:\s*[–—-]\s*[A-Za-z0-9]+)?)*)"
)
_REF_TOKEN = re.compile(
    r"(?P<num>\d+)(?P<letter>[A-Za-z]?)"
    r"(?:\s*[–—-]\s*(?P<num2>\d*)(?P<letter2>[A-Za-z]?))?"
)


def can_cite_figure(text: str) -> bool:
    """Whether text holds "Fig" or "fig". Every _FIG_REF match starts with
    one of these, so a paragraph without them yields no citance."""
    return "Fig" in text or "fig" in text


def _number(digits: str) -> str:
    """str(int(digits)) for a run of decimal digits of any length: int()
    refuses one over sys.get_int_max_str_digits() digits (at least 640)."""
    return str(int(digits)) if len(digits) <= 640 else digits.lstrip("0") or "0"


def _figure_number(entry) -> str | None:
    for source in (entry.label_text or "", entry.fig_id):
        m = re.search(r"(\d+)\s*$", source)
        if m:
            return _number(m.group(1))
    return None


def _parse_ref_tokens(refs: str, numbers: list[str]):
    """Yield (figure_number, panel_labels) for each token in a reference run;
    a range yields those it spans of numbers, sorted by (length, digits)."""
    for m in _REF_TOKEN.finditer(refs):
        num, letter = m.group("num"), m.group("letter")
        num2, letter2 = m.group("num2"), m.group("letter2")
        if letter and letter2 and not num2:
            # panel range on one figure: "2A-C"
            labels = _expand_range(letter, letter2) or [letter.upper()]
            yield _number(num), [lab for lab in labels]
        elif num2:
            # figure range: "2-4"
            low, high = _number(num), _number(num2)
            yield from ((n, []) for n in numbers
                        if (len(low), low) <= (len(n), n) <= (len(high), high))
        else:
            yield _number(num), [letter.upper()] if letter else []


def extract_citances(body_paragraphs: list[str], fig_entries) -> list[Citance]:
    """Find sentences citing any of the given figures.

    A sentence citing several figures yields one Citance per target; panel
    letters attached to the figure number land in label_refs.
    """
    number_to_id = {}
    for entry in fig_entries:
        num = _figure_number(entry)
        if num is not None and num not in number_to_id:
            number_to_id[num] = entry.fig_id
    numbers = sorted(number_to_id, key=lambda n: (len(n), n))
    citances: list[Citance] = []
    for para in body_paragraphs:
        for sentence in split_sentences(para):
            per_target: dict[str, list[str]] = {}
            for m in _FIG_REF.finditer(sentence):
                for num, labels in _parse_ref_tokens(m.group("refs"), numbers):
                    fig_id = number_to_id.get(num)
                    if fig_id is None:
                        continue
                    refs = per_target.setdefault(fig_id, [])
                    for lab in labels:
                        if lab not in refs:
                            refs.append(lab)
            for fig_id, labels in per_target.items():
                citances.append(Citance(sentence, fig_id, labels))
    return citances


def split_citances(citances: list[Citance], labels: list[str]):
    """Assign citances to panel labels.

    Citances naming a panel map to it; citances with no panel letter are
    figure-level evidence and map to every label. Returns (mapping, unknown)
    where unknown holds (citance, label) pairs naming undeclared panels.
    """
    mapping: dict[str, list[Citance]] = {lab: [] for lab in labels}
    unknown: list[tuple[Citance, str]] = []
    for citance in citances:
        if not citance.label_refs:
            for lab in labels:
                mapping[lab].append(citance)
            continue
        for lab in citance.label_refs:
            if lab in mapping:
                mapping[lab].append(citance)
            else:
                unknown.append((citance, lab))
    return mapping, unknown
