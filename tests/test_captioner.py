"""Caption splitting, sentence segmentation, and citance extraction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from figurelink.captioner import (
    Citance,
    canonical_label,
    extract_citances,
    split_caption,
    split_citances,
    split_sentences,
)
from figurelink.jats import FigureEntry


class TestCanonicalLabel:
    def test_letters_uppercase(self):
        assert canonical_label("a") == "A"
        assert canonical_label("D") == "D"

    def test_roman_numerals(self):
        assert canonical_label("ii") == "II"
        assert canonical_label("iv") == "IV"

    def test_digits_pass_through(self):
        assert canonical_label("3") == "3"

    def test_garbage_rejected(self):
        assert canonical_label("") is None
        assert canonical_label("  ") is None


class TestSplitCaption:
    def test_simple_paren_style(self):
        result = split_caption("(A) First panel. (B) Second panel.")
        assert result.preamble == ""
        assert [s.label for s in result.subcaptions] == ["A", "B"]
        assert result.subcaptions[0].text == "First panel."
        assert result.subcaptions[1].text == "Second panel."

    def test_preamble_preserved(self):
        result = split_caption("Study overview. (A) Design. (B) Outcomes.")
        assert result.preamble == "Study overview."
        assert [s.label for s in result.subcaptions] == ["A", "B"]

    def test_range_expansion_shares_span(self):
        result = split_caption("(A–C) Triplicate images. (D) Quantification.")
        labels = [s.label for s in result.subcaptions]
        assert labels == ["A", "B", "C", "D"]
        spans = {s.char_span for s in result.subcaptions[:3]}
        assert len(spans) == 1

    def test_unlabeled_caption_returned_whole(self):
        text = "Axial CT image showing the lesion."
        result = split_caption(text)
        assert result.preamble == text
        assert result.subcaptions == []

    def test_first_label_guard(self):
        # A mid-caption parenthetical that is not a plausible sequence start
        # must not trigger splitting.
        text = "(B) cells were sorted before analysis."
        result = split_caption(text)
        assert result.subcaptions == []

    def test_lowercase_and_roman_styles(self):
        result = split_caption("(a) Before. (b) After.")
        assert [s.label for s in result.subcaptions] == ["A", "B"]
        result = split_caption("(i) control group. (ii) treated group.")
        assert [s.label for s in result.subcaptions] == ["I", "II"]

    def test_spans_are_faithful_slices(self):
        caption = "Workflow. (A) Sampling sites. (B) Processing steps."
        result = split_caption(caption)
        for sub in result.subcaptions:
            lo, hi = sub.char_span
            assert caption[lo:hi] == sub.text
            mlo, mhi = sub.marker_span
            assert caption[mlo:mhi].strip().startswith("(")

    def test_empty_caption_rejected(self):
        with pytest.raises(ValueError):
            split_caption("")

    def test_fixture_agreement_at_least_90_percent(self, caption_cases):
        agree = 0
        for case in caption_cases:
            result = split_caption(case.caption)
            predicted = {(s.label, s.char_span) for s in result.subcaptions}
            expected = set(case.expected)
            ok = predicted == expected
            if ok and not case.expected:
                ok = result.preamble == case.preamble
            agree += ok
        assert agree / len(caption_cases) >= 0.90

    def test_conservation_on_fixture(self, caption_cases):
        # Preamble plus markers plus sub-caption texts must account for every
        # non-whitespace character of the original caption.
        for case in caption_cases:
            result = split_caption(case.caption)
            rebuilt = len("".join(result.preamble.split()))
            for marker in result.markers:
                rebuilt += len("".join(
                    case.caption[marker.span[0]:marker.span[1]].split()))
                rebuilt += len("".join(
                    case.caption[marker.text_span[0]:marker.text_span[1]].split()))
            if not result.markers:
                rebuilt = len("".join(result.preamble.split()))
            assert rebuilt == len("".join(case.caption.split()))


def _random_caption(rng) -> str:
    words = ["lorem", "ipsum", "alpha", "beta", "x1", "40", "cells", "min",
             "vs.", "Fig.", "(n=3)", "p<0.05", "control", "e.g.", "group"]
    styles = ["({})", "{})", "{}.", "{}:"]
    parts = []
    if rng.random() < 0.4:
        parts.append(" ".join(rng.choice(words, size=int(rng.integers(2, 8)))))
    style = styles[int(rng.integers(len(styles)))]
    n_markers = int(rng.integers(0, 5))
    for i in range(n_markers):
        parts.append(style.format(chr(ord("A") + i)))
        parts.append(" ".join(rng.choice(words, size=int(rng.integers(1, 9)))))
    text = " ".join(parts).strip()
    return text or "placeholder caption"


class TestConservationFuzz:
    def test_10k_random_captions_conserve_characters(self):
        rng = np.random.default_rng(1234)
        for _ in range(10_000):
            caption = _random_caption(rng)
            result = split_caption(caption)
            total = len("".join(caption.split()))
            got = len("".join(result.preamble.split()))
            for marker in result.markers:
                got += len("".join(
                    caption[marker.span[0]:marker.span[1]].split()))
                got += len("".join(
                    caption[marker.text_span[0]:marker.text_span[1]].split()))
            assert got == total, caption


def _non_whitespace(text: str) -> int:
    return len("".join(text.split()))


# Captions built from pieces that each marker pattern can match (parenthesized
# and bare labels, ranges, roman numerals, repeats), caption words, Unicode
# whitespace and arbitrary text, so that markers, near-misses and noise meet.
_MARKER_PIECES = st.builds(
    str.format,
    st.sampled_from(["({})", "( {} )", "{})", "{}.", "{}:", "[{}]"]),
    st.sampled_from(["A", "a", "B", "c", "D", "A1", "1", "2", "12", "i", "ii", "iv",
                     "IX", "A-C", "a\u2013d", "1-3", "B \u2014 E", "Z-A"]))
_CAPTION_PIECES = st.one_of(
    _MARKER_PIECES,
    st.sampled_from(["lorem", "cells", "Fig.", "(n=3)", "p<0.05", "e.g.", "vs.", "x1"]),
    st.sampled_from([" ", "  ", "\n", "\t", "\u00a0", "\u2003", "\x1c"]),
    st.text(max_size=5),
)


class TestConservationProperty:
    @settings(max_examples=500, deadline=None)
    @given(st.lists(_CAPTION_PIECES, min_size=1, max_size=24).map("".join)
           .filter(bool))
    def test_split_conserves_non_whitespace_characters(self, caption):
        # Preamble, marker spans and sub-caption text spans together hold
        # every non-whitespace character of the caption, each exactly once.
        result = split_caption(caption)
        got = _non_whitespace(result.preamble)
        for marker in result.markers:
            for start, end in (marker.span, marker.text_span):
                got += _non_whitespace(caption[start:end])
        assert got == _non_whitespace(caption)
        edges = [i for marker in result.markers for i in (*marker.span, *marker.text_span)]
        assert edges == sorted(edges)


class TestSentences:
    def test_basic_split(self):
        text = "First sentence. Second sentence. Third."
        assert split_sentences(text) == [
            "First sentence.", "Second sentence.", "Third."]

    def test_abbreviations_not_split(self):
        text = "As shown in Fig. 2, the effect was large. See also et al. reports."
        sentences = split_sentences(text)
        assert sentences[0] == "As shown in Fig. 2, the effect was large."

    def test_question_and_exclamation(self):
        assert len(split_sentences("Is it real? It is! Confirmed.")) == 3


class TestCitances:
    FIGS = [FigureEntry("f1", "c", "g1", label_text="Figure 1"),
            FigureEntry("f2", "c", "g2", label_text="Figure 2")]

    def test_simple_reference(self):
        paragraphs = ["The lesion grew over time (Fig. 1). No change elsewhere."]
        cites = extract_citances(paragraphs, self.FIGS)
        assert len(cites) == 1
        assert cites[0].target_fig_id == "f1"
        assert cites[0].label_refs == []

    def test_panel_reference_with_range(self):
        paragraphs = ["Staining increased (Fig. 2B–D) in all animals."]
        cites = extract_citances(paragraphs, self.FIGS)
        assert len(cites) == 1
        assert cites[0].target_fig_id == "f2"
        assert cites[0].label_refs == ["B", "C", "D"]

    def test_conjunction_hits_both_figures(self):
        paragraphs = ["Results appear in Figs. 1 and 2 for both cohorts."]
        cites = extract_citances(paragraphs, self.FIGS)
        assert {c.target_fig_id for c in cites} == {"f1", "f2"}

    def test_unknown_figure_ignored(self):
        paragraphs = ["An effect was seen (Fig. 9)."]
        assert extract_citances(paragraphs, self.FIGS) == []

    def test_figure_range_cites_the_figures_it_spans_in_order(self):
        figs = [FigureEntry("f10", "c", "g10", label_text="Figure 10"), *self.FIGS,
                FigureEntry("f3", "c", "g3", label_text="Figure 03")]
        paragraphs = ["Seen in Figs. 2-10 alike.", "Not in Figs. 3-1 at all.",
                      "Also (Figs. 01–2)."]
        assert [(c.sentence[:4], c.target_fig_id) for c in extract_citances(paragraphs, figs)] \
            == [("Seen", "f2"), ("Seen", "f3"), ("Seen", "f10"), ("Also", "f1"), ("Also", "f2")]

    @pytest.mark.parametrize("digits", [4301, 100_000])
    def test_numbers_past_the_int_digit_limit(self, digits):
        # int() refuses a run of over 4300 digits. Such a number is still
        # a figure's number, and a range up to it spans the figures below.
        huge = "9" * digits
        figs = [*self.FIGS, FigureEntry("fx", "c", "gx", label_text="Figure 0" + huge)]
        paragraphs = [f"Seen (Fig. 1{huge}).", f"Seen (Figs. 2-{huge}).", f"Seen (Fig. {huge}B)."]
        assert [(c.target_fig_id, c.label_refs) for c in extract_citances(paragraphs, figs)] \
            == [("f2", []), ("fx", []), ("fx", ["B"])]

    def test_split_citances_routing(self):
        cites = [
            Citance("s1", "f1", ["A"]),
            Citance("s2", "f1", []),
            Citance("s3", "f1", ["Q"]),
        ]
        mapping, unknown = split_citances(cites, ["A", "B"])
        assert [c.sentence for c in mapping["A"]] == ["s1", "s2"]
        assert [c.sentence for c in mapping["B"]] == ["s2"]
        assert [(c.sentence, lab) for c, lab in unknown] == [("s3", "Q")]
