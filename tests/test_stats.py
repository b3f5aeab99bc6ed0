"""Corpus statistics against brute-force recounts."""

import json

import numpy as np
import pytest

from figurelink.stats import corpus_stats
from figurelink.synth import make_stats_corpus
from figurelink.vision.images import RasterImage, save_image


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("statscorpus")
    truth = make_stats_corpus(root, n_pairs=1000, n_images=120, seed=0)
    return truth


def brute_force(truth):
    """Recount tokens and image sides straight from the files."""
    tokens = []
    refs = []
    for line in truth.jsonl_path.read_text().splitlines():
        obj = json.loads(line)
        for fig in obj["figures"]:
            tokens.append(len(fig["caption"].split()))
            refs.append(fig["graphic_ref"])
    sides = []
    for ref in refs:
        path = truth.images_dir / f"{ref}.pgm"
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
             "figures": [{"fig_id": "f1", "graphic_ref": "ok",
                          "caption": "one two three", "label_text": None},
                         {"fig_id": "f2", "graphic_ref": "bad",
                          "caption": "four five", "label_text": None}],
             "body_paragraphs": []},
        ]
        path = tmp_path / "pairs.jsonl"
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        report = corpus_stats(path, media)
        assert report.n_images == 1
        assert report.n_unreadable_images == 1

    def test_images_found_anywhere_under_root(self, tmp_path):
        # package-style tree: each image sits in its own nested directory
        root = tmp_path / "packages"
        refs = ["p1_fig1", "p1_fig2", "p2_fig1"]
        for k, ref in enumerate(refs):
            pkg = root / f"PMC{k}" / "media"
            pkg.mkdir(parents=True)
            save_image(pkg / f"{ref}.pgm",
                       RasterImage(np.full((20 + k, 30), 90, dtype=np.uint8)))
        (root / "PMC0" / "media" / "p1_fig3.pgm").write_bytes(b"P5 garbage")
        figures = [{"fig_id": f"f{k}", "graphic_ref": ref, "caption": "a b", "label_text": None}
                   for k, ref in enumerate(refs + ["p1_fig3", "absent"])]
        path = tmp_path / "pairs.jsonl"
        path.write_text(json.dumps({"pmid": None, "pmcid": "PMC1", "figures": figures,
                                    "body_paragraphs": []}) + "\n")
        report = corpus_stats(path, root)
        assert report.n_images == 3
        assert report.n_unreadable_images == 2
        assert report.n_images + report.n_unreadable_images == report.n_captions
        assert report.image_min_side_percentiles["p50"] == 21

    def test_vars_round_trips_through_json(self, corpus):
        report = corpus_stats(corpus.jsonl_path, corpus.images_dir)
        obj = json.loads(json.dumps(vars(report)))
        assert obj["n_captions"] == report.n_captions
        assert obj["caption_token_budget"] == 256
        assert obj["min_side_threshold"] == 336
