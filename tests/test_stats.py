"""Corpus statistics against brute-force recounts."""

import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from figurelink.stats import PERCENTILES, _fraction, _percentile_map, corpus_stats, percentile
from figurelink.synth import make_stats_corpus
from figurelink.vision.images import RasterImage, save_image
from test_imports import jsonl_lines


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("statscorpus")
    truth = make_stats_corpus(root, n_pairs=1000, n_images=120, seed=0)
    return truth


def brute_force(truth):
    """Recount tokens and image sides straight from the files."""
    tokens = []
    images = []
    for line in jsonl_lines(truth.jsonl_path):
        obj = json.loads(line)
        for fig in obj["figures"]:
            tokens.append(len(fig["caption"].split()))
            images.append(fig["image"])
    sides = []
    for image in images:
        path = truth.images_dir / image
        # pgm header: P5, "W H", maxval
        lines = path.read_bytes().split(b"\n", 3)
        w, h = map(int, lines[1].split())
        sides.append((w, h))
    return tokens, sides


class TestCorpusStats:
    def test_counts_match_brute_force(self, corpus):
        report = corpus_stats(corpus.jsonl_path, corpus.images_dir)
        tokens, sides = brute_force(corpus)
        assert report.n_captions == len(tokens)
        assert report.n_images == len(sides)
        assert report.n_unreadable_images == 0

    def test_percentiles_match_numpy_recount(self, corpus):
        report = corpus_stats(corpus.jsonl_path, corpus.images_dir)
        tokens, sides = brute_force(corpus)
        for name, q in [("p5", 5), ("p25", 25), ("p50", 50),
                        ("p75", 75), ("p95", 95)]:
            assert report.caption_token_percentiles[name] == pytest.approx(
                float(np.percentile(tokens, q)), abs=1e-9)
            min_sides = [min(w, h) for w, h in sides]
            assert report.image_min_side_percentiles[name] == pytest.approx(
                float(np.percentile(min_sides, q)), abs=1e-9)

    def test_fractions_match_brute_force(self, corpus):
        report = corpus_stats(corpus.jsonl_path, corpus.images_dir)
        tokens, sides = brute_force(corpus)
        within = sum(t <= report.caption_token_budget for t in tokens) / len(tokens)
        assert report.fraction_captions_within_budget == pytest.approx(within)
        above = sum(min(w, h) > report.min_side_threshold
                    for w, h in sides) / len(sides)
        assert report.fraction_images_min_side_above_threshold == pytest.approx(above)

    def test_medians_near_design_targets(self, corpus):
        # the generator plants token median 40 and side median 400
        report = corpus_stats(corpus.jsonl_path, corpus.images_dir)
        assert report.caption_token_percentiles["p50"] == pytest.approx(40, rel=0.05)
        assert report.image_min_side_percentiles["p50"] == pytest.approx(
            333, rel=0.10)  # median of min(U[200,600], U[200,600])

    def test_captions_only_mode(self, corpus):
        report = corpus_stats(corpus.jsonl_path, images_root=None)
        assert report.n_captions > 0
        assert report.n_images == 0
        assert report.image_min_side_percentiles["p50"] is None

    def test_unreadable_images_counted(self, tmp_path):
        media = tmp_path / "media"
        media.mkdir()
        save_image(media / "ok.pgm",
                   RasterImage(np.full((50, 60), 90, dtype=np.uint8)))
        (media / "bad.pgm").write_bytes(b"P5 garbage")
        rows = [
            {"pmcid": "PMC1", "pmid": "1",
             "figures": [{"fig_id": "f1", "graphic_ref": "ok", "image": "ok.pgm",
                          "caption": "one two three", "label_text": None},
                         {"fig_id": "f2", "graphic_ref": "bad", "image": "bad.pgm",
                          "caption": "four five", "label_text": None}],
             "body_paragraphs": []},
        ]
        path = tmp_path / "pairs.jsonl"
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        report = corpus_stats(path, media)
        assert report.n_images == 1
        assert report.n_unreadable_images == 1

    def test_each_image_is_read_at_its_recorded_path(self, tmp_path):
        # Package-style tree, where three packages each hold a fig1: every
        # figure is measured from its own file, and a path that names no
        # file is unreadable although other packages hold its stem.
        root = tmp_path / "packages"
        heights = {"PMC0/media/fig1.pgm": 20, "PMC1/media/fig1.pgm": 21, "PMC2/fig1.pgm": 22}
        for image, height in heights.items():
            (root / image).parent.mkdir(parents=True, exist_ok=True)
            save_image(root / image, RasterImage(np.full((height, 30), 90, dtype=np.uint8)))
        (root / "PMC0" / "media" / "fig3.pgm").write_bytes(b"P5 garbage")
        figures = [{"fig_id": f"f{k}", "graphic_ref": image.rsplit("/", 1)[1][:-4],
                    "image": image, "caption": "a b", "label_text": None}
                   for k, image in enumerate([*heights, "PMC0/media/fig3.pgm",
                                              "PMC3/fig1.pgm"])]
        path = tmp_path / "pairs.jsonl"
        path.write_text(json.dumps({"pmid": None, "pmcid": "PMC1", "figures": figures,
                                    "body_paragraphs": []}) + "\n")
        report = corpus_stats(path, root)
        assert report.n_images == 3
        assert report.n_unreadable_images == 2
        assert report.n_images + report.n_unreadable_images == report.n_captions
        assert report.image_height_percentiles == {
            "p5": 20.1, "p25": 20.5, "p50": 21.0, "p75": 21.5, "p95": 21.9}

    def test_vars_round_trips_through_json(self, corpus):
        report = corpus_stats(corpus.jsonl_path, corpus.images_dir)
        obj = json.loads(json.dumps(vars(report)))
        assert obj["n_captions"] == report.n_captions
        assert obj["caption_token_budget"] == 256
        assert obj["min_side_threshold"] == 336


# Integer lists with many ties: few distinct values, or runs of one value.
TIED = st.one_of(st.lists(st.integers(0, 6), min_size=1, max_size=80),
                 st.lists(st.tuples(st.integers(0, 10**6), st.integers(1, 30)), min_size=1,
                          max_size=8).map(lambda runs: [v for v, n in runs for _ in range(n)]))


class TestCounts:
    @settings(max_examples=400, deadline=None)
    @given(TIED, st.randoms(use_true_random=False))
    def test_percentiles_of_the_counts_equal_those_of_the_sorted_list(self, values, rng):
        rng.shuffle(values)
        got = _percentile_map(Counter(values))
        assert {k: v.hex() for k, v in got.items()} == {
            f"p{p}": percentile(sorted(values), p).hex() for p in PERCENTILES}

    @settings(max_examples=200, deadline=None)
    @given(TIED)
    def test_fraction_of_the_counts_equals_that_of_the_list(self, values):
        assert _fraction(Counter(values), lambda v: v <= 3) == (
            sum(1 for v in values if v <= 3) / len(values))

    def test_no_values_give_none(self):
        assert _percentile_map(Counter()) == dict.fromkeys((f"p{p}" for p in PERCENTILES))
        assert _fraction(Counter(), lambda v: True) is None
