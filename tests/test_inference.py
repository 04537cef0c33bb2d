"""Per-level softmax and the three decoders."""

import re
import tracemalloc
import warnings

import numpy as np
import pytest

import oracles
from helpers import random_taxonomy
from semtree import (
    CorruptEncoding,
    LabelError,
    LevelProbabilities,
    NEG_INF,
    ParameterError,
    PartitionedScores,
    ShapeError,
    SyntheticTreeSpec,
    Taxonomy,
    UnsupportedMaskValue,
    beam_decode,
    encode,
    generate_synthetic,
    levenshtein_decode,
    naive_decode,
    partition_scores,
    softmax_levels,
)
from semtree import transforms
from semtree.inference import _path_scores, _ranked, _scan_levels


def random_probs(rng, enc, batch=3):
    scores = rng.standard_normal((batch, enc.num_classes), dtype=np.float32)
    return softmax_levels(partition_scores(enc, scores))


def tied_probs(rng, enc, batch=3):
    """Probabilities from scores 0 or 1, so that many path scores tie exactly."""
    scores = rng.integers(0, 2, size=(batch, enc.num_classes)).astype(np.float32)
    return softmax_levels(partition_scores(enc, scores))


def log_probs(probs):
    with np.errstate(divide="ignore"):
        return np.log(probs.data.astype(np.float64))


class TestSoftmaxLevels:
    def test_rows_sum_to_one(self, toy_encoding):
        rng = np.random.default_rng(31)
        probs = random_probs(rng, toy_encoding, batch=6)
        assert (probs.batch_size, probs.num_levels, probs.num_classes) == (6, 3, 9)
        np.testing.assert_allclose(probs.data.sum(axis=2), 1.0, rtol=1e-6)

    def test_masked_entries_exactly_zero(self, toy_encoding):
        rng = np.random.default_rng(32)
        probs = random_probs(rng, toy_encoding, batch=2)
        masked = np.broadcast_to(toy_encoding.masks, probs.data.shape)
        assert (probs.data[masked] == 0.0).all()

    def test_matches_dense_reference(self):
        rng = np.random.default_rng(33)
        for _ in range(15):
            tax = random_taxonomy(rng, max_classes=90, max_depth=5)
            enc = encode(tax)
            depths = [oracles.depth_of(tax.parents, c) for c in range(enc.num_classes)]
            scores = rng.standard_normal((2, enc.num_classes), dtype=np.float32)
            probs = softmax_levels(partition_scores(enc, scores))
            for i in range(2):
                for l in range(enc.num_levels):
                    members = [c for c in range(enc.num_classes) if depths[c] == l]
                    want = oracles.softmax_dense(
                        scores[i].astype(np.float64), members
                    )
                    np.testing.assert_allclose(
                        probs.data[i, l], want, rtol=1e-6, atol=0
                    )

    def test_preserves_dtype(self, toy_encoding):
        rng = np.random.default_rng(34)
        probs = random_probs(rng, toy_encoding)
        assert probs.data.dtype == np.float32

    @pytest.mark.parametrize("dtype", [np.complex128, bool, object])
    def test_refuses_non_real_dtypes(self, toy_encoding, dtype):
        scores = np.arange(18, dtype=np.float64).reshape(2, 9)
        data = partition_scores(toy_encoding, scores).data.astype(dtype)
        with pytest.raises(ShapeError, match=re.escape(str(np.dtype(dtype)))):
            softmax_levels(PartitionedScores(data=data))

    def test_stable_for_large_scores(self, toy_encoding):
        scores = np.full((1, 9), 3.0e4, dtype=np.float32)
        probs = softmax_levels(partition_scores(toy_encoding, scores))
        assert np.isfinite(probs.data).all()
        np.testing.assert_allclose(probs.data.sum(axis=2), 1.0, rtol=1e-6)

    def test_nan_masking_equals_neg_inf_masking(self, toy_encoding):
        scores = np.arange(9, dtype=np.float32).reshape(1, 9)
        a = softmax_levels(partition_scores(toy_encoding, scores))
        b = softmax_levels(
            partition_scores(toy_encoding, scores, mask_value=float("nan"))
        )
        np.testing.assert_array_equal(a.data, b.data)

    def test_finite_masking_rejected(self, toy_encoding):
        parts = partition_scores(
            toy_encoding, np.zeros((1, 9), dtype=np.float32), mask_value=-1e9
        )
        with pytest.raises(UnsupportedMaskValue):
            softmax_levels(parts)

    @pytest.mark.parametrize(
        "dtype", [np.float16, np.float32, np.float64, np.longdouble, np.int64]
    )
    @pytest.mark.parametrize("mask_value", [NEG_INF, float("nan")])
    def test_bit_identical_to_three_temporary_reference(self, dtype, mask_value):
        rng = np.random.default_rng(50)
        data = (rng.standard_normal((4, 5, 11)) * 6).astype(dtype)
        if np.issubdtype(dtype, np.floating):
            # Mask about half the entries, leaving each slice one live class.
            masked = rng.random(data.shape) < 0.5
            live = rng.integers(0, 11, size=(4, 5))
            masked[np.arange(4)[:, None], np.arange(5), live] = False
            data[masked] = mask_value
        parts = PartitionedScores(data=data, mask_value=mask_value)
        got = softmax_levels(parts).data
        want = oracles.softmax_levels_reference(parts)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    def test_peak_is_the_output(self):
        # Three (b, L, n) temporaries peaked at 2.0x the output.
        enc = encode(generate_synthetic(SyntheticTreeSpec(10_000, 8, seed=0)))
        rng = np.random.default_rng(54)
        scores = rng.standard_normal((64, enc.num_classes), dtype=np.float32)
        parts = partition_scores(enc, scores)
        tracemalloc.start()
        try:
            probs = softmax_levels(parts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * probs.data.nbytes

    def test_fully_masked_level_rejected(self):
        parts = PartitionedScores(data=np.full((1, 1, 3), -np.inf))
        with pytest.raises(CorruptEncoding):
            softmax_levels(parts)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_live_score_rejected(self, toy_encoding, value):
        scores = np.arange(18, dtype=np.float64).reshape(2, 9)
        data = partition_scores(toy_encoding, scores).data.copy()
        data[1, 1, 4] = value  # class 5 sits on level 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                ParameterError, match=r"sample 1, level 2: a live score is NaN or \+inf"
            ):
                softmax_levels(PartitionedScores(data=data))

    @pytest.mark.parametrize(
        "mask_value, fill",
        [(NEG_INF, [-np.inf, np.nan, -np.inf]), (float("nan"), [np.nan] * 3)],
        ids=["neg-inf-and-nan", "all-nan"],
    )
    def test_slice_of_masks_and_nan_rejected(self, mask_value, fill):
        data = np.zeros((2, 3, 3))
        data[1, 2] = fill
        parts = PartitionedScores(data=data, mask_value=mask_value)
        with pytest.raises(CorruptEncoding, match="sample 1, level 3: every class"):
            softmax_levels(parts)


class TestNaiveDecode:
    def test_picks_per_level_argmax(self, toy_encoding):
        scores = np.arange(9, dtype=np.float32).reshape(1, 9)
        probs = softmax_levels(partition_scores(toy_encoding, scores))
        np.testing.assert_array_equal(naive_decode(probs), [[1, 5, 8]])

    def test_tie_goes_to_smaller_class(self, toy_encoding):
        scores = np.zeros((1, 9), dtype=np.float32)
        probs = softmax_levels(partition_scores(toy_encoding, scores))
        np.testing.assert_array_equal(naive_decode(probs), [[0, 2, 6]])

    def test_may_mix_branches(self, toy_encoding):
        # Root 2 wins level one but a child of 4 wins level three.
        scores = np.array([[0.0, 9.0, 0.0, 0.0, 1.0, 0.5, 7.0, 0.0, 0.0]], dtype=np.float32)
        probs = softmax_levels(partition_scores(toy_encoding, scores))
        seq = naive_decode(probs)[0]
        assert seq[0] == 1 and seq[2] == 6

    def test_rejects_nan_probability(self, toy_encoding):
        # All NaN once decoded silently to [[0, 0]]; one NaN beside real
        # probabilities is found too.
        with pytest.raises(ParameterError, match="sample 0, level 1, class 1"):
            naive_decode(LevelProbabilities(data=np.full((1, 2, 3), np.nan)))
        data = random_probs(np.random.default_rng(50), toy_encoding).data.copy()
        data[2, 1, 4] = np.nan
        with pytest.raises(ParameterError, match="sample 2, level 2, class 5"):
            naive_decode(LevelProbabilities(data=data))

    def test_rejects_wrong_rank(self):
        # A 2-d input once raised NumPy's AxisError.
        with pytest.raises(ShapeError, match="3-d"):
            naive_decode(LevelProbabilities(data=np.zeros((2, 3))))


DECODERS = {
    "naive": lambda enc, probs: naive_decode(probs),
    "beam": lambda enc, probs: beam_decode(enc, probs, k=2),
    "levenshtein": lambda enc, probs: levenshtein_decode(
        enc, np.zeros((probs.batch_size, enc.num_levels), dtype=np.int64), k=2, probs=probs
    ),
}


@pytest.mark.parametrize("decoder", DECODERS)
@pytest.mark.parametrize("dtype", [np.complex128, bool, object])
def test_decoders_refuse_non_real_probabilities(toy_encoding, decoder, dtype):
    # Cast to float64, complex probabilities would lose their imaginary
    # parts, and bool ones would make class 1 the top path here, scoring 0.0.
    probs = random_probs(np.random.default_rng(41), toy_encoding)
    bad = LevelProbabilities(data=probs.data.astype(dtype))
    with pytest.raises(ShapeError, match=re.escape(str(np.dtype(dtype)))):
        DECODERS[decoder](toy_encoding, bad)


class TestBeamDecode:
    def test_paths_are_valid(self):
        rng = np.random.default_rng(35)
        for _ in range(10):
            tax = random_taxonomy(rng, max_classes=60, max_depth=5)
            enc = encode(tax)
            probs = random_probs(rng, enc, batch=2)
            for sample in beam_decode(enc, probs, k=4):
                assert sample
                for hyp in sample:
                    want = oracles.path_of(tax.parents, hyp.classes[-1])
                    assert list(hyp.classes) == want

    def test_results_sorted_and_unique(self):
        rng = np.random.default_rng(36)
        tax = random_taxonomy(rng, max_classes=60, max_depth=5)
        enc = encode(tax)
        probs = random_probs(rng, enc, batch=2)
        for sample in beam_decode(enc, probs, k=6):
            keys = [(-h.score, h.classes) for h in sample]
            assert keys == sorted(keys)
            assert len({h.classes for h in sample}) == len(sample)

    def test_full_width_equals_exhaustive_ranking(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            tax = random_taxonomy(rng, max_classes=50, max_depth=5)
            enc = encode(tax)
            probs = random_probs(rng, enc, batch=2)
            with np.errstate(divide="ignore"):
                logp = np.log(probs.data.astype(np.float64))
            decoded = beam_decode(enc, probs, k=enc.num_classes)
            for i, sample in enumerate(decoded):
                want = oracles.exhaustive_ranking(
                    tax.parents, logp[i], k=enc.num_classes
                )
                assert len(sample) == len(want)
                for hyp, (score, classes) in zip(sample, want):
                    assert hyp.classes == classes
                    assert hyp.score == score  # bit-identical accumulation

    def test_top_one_equals_exhaustive_top(self):
        rng = np.random.default_rng(38)
        for _ in range(10):
            tax = random_taxonomy(rng, max_classes=40, max_depth=4)
            enc = encode(tax)
            probs = random_probs(rng, enc, batch=1)
            with np.errstate(divide="ignore"):
                logp = np.log(probs.data.astype(np.float64))
            top = beam_decode(enc, probs, k=enc.num_classes)[0][0]
            want = oracles.exhaustive_ranking(tax.parents, logp[0], k=1)[0]
            assert top.classes == want[1]

    def test_small_width_equals_exhaustive_top_k(self):
        # Log probabilities are at most 0, so every ancestor of a top-k path
        # is in the top k of its own level and a width-k beam never prunes
        # it. The mean is not monotone that way, so it needs every path.
        rng = np.random.default_rng(48)
        straddled = {False: 0, True: 0}
        for _ in range(100):
            tax = random_taxonomy(rng, max_classes=50, max_depth=5)
            enc = encode(tax)
            probs = tied_probs(rng, enc, batch=2)
            logp = log_probs(probs)
            k = int(rng.integers(1, 8))
            for norm in (False, True):
                decoded = beam_decode(enc, probs, k=k, length_normalize=norm)
                for i, sample in enumerate(decoded):
                    want = oracles.exhaustive_ranking(
                        tax.parents, logp[i], k=k + 1, length_normalize=norm
                    )
                    assert [(h.score, h.classes) for h in sample] == want[:k]
                    if len(want) > k:
                        (s0, c0), (s1, c1) = want[k - 1 : k + 1]
                        tie = s0 / len(c0) == s1 / len(c1) if norm else s0 == s1
                        straddled[norm] += tie
        assert all(straddled.values())  # some ties cross the k-th place

    def test_length_normalization_changes_ranking_rule(self):
        rng = np.random.default_rng(39)
        tax = random_taxonomy(rng, max_classes=50, max_depth=5)
        enc = encode(tax)
        probs = random_probs(rng, enc, batch=2)
        with np.errstate(divide="ignore"):
            logp = np.log(probs.data.astype(np.float64))
        decoded = beam_decode(enc, probs, k=enc.num_classes, length_normalize=True)
        for i, sample in enumerate(decoded):
            want = oracles.exhaustive_ranking(
                tax.parents, logp[i], k=enc.num_classes, length_normalize=True
            )
            assert [h.classes for h in sample] == [w[1] for w in want]

    def test_toy_ranking(self, toy_encoding):
        scores = np.arange(9, dtype=np.float32).reshape(1, 9)
        probs = softmax_levels(partition_scores(toy_encoding, scores))
        top = beam_decode(toy_encoding, probs, k=2)[0]
        assert top[0].classes == (1,)
        assert top[1].classes == (1, 5)

    def test_bad_width(self, toy_encoding):
        rng = np.random.default_rng(40)
        probs = random_probs(rng, toy_encoding)
        with pytest.raises(ParameterError):
            beam_decode(toy_encoding, probs, k=0)

    @pytest.mark.parametrize("k", [2.5, np.float64(2.0), None, "2"])
    def test_non_integer_width(self, toy_encoding, k):
        probs = random_probs(np.random.default_rng(40), toy_encoding)
        with pytest.raises(ParameterError, match="integer"):
            beam_decode(toy_encoding, probs, k=k)

    def test_shape_mismatch(self, toy_encoding):
        probs = LevelProbabilities(data=np.zeros((1, 2, 9)))
        with pytest.raises(ShapeError):
            beam_decode(toy_encoding, probs, k=1)

    def test_rejects_nan_probability(self, toy_encoding):
        rng = np.random.default_rng(49)
        data = random_probs(rng, toy_encoding).data.copy()
        data[1, 1, 4] = np.nan  # class 5 sits on level 2
        with pytest.raises(ParameterError, match="sample 1, level 2, class 5"):
            beam_decode(toy_encoding, LevelProbabilities(data=data), k=2)


def quantised_probs(rng, enc, batch):
    """Own-level probabilities from a few values, zero among them, so that
    many path scores tie exactly and some are -inf; 0 elsewhere."""
    n = enc.num_classes
    dtype = np.float32 if rng.random() < 0.5 else np.float64
    data = np.zeros((batch, enc.num_levels, n), dtype=dtype)
    values = [0.0, 0.125, 0.25, 0.5, 1.0]
    data[:, enc.level_of, np.arange(n)] = rng.choice(values, size=(batch, n))
    return LevelProbabilities(data=data)


class TestPrunedBeam:
    """Unnormalized, the beam keeps k paths a level; the full route scores
    and ranks all n. They must agree bit for bit."""

    def test_equals_the_full_ranking_on_random_forests(self):
        rng = np.random.default_rng(53)
        for _ in range(150):
            depth = int(rng.integers(1, 7))  # depth 1: every class a root
            tax = random_taxonomy(rng, max_classes=60, max_depth=depth)
            enc = encode(tax)
            n = enc.num_classes
            probs = quantised_probs(rng, enc, batch=int(rng.integers(1, 5)))
            logp = log_probs(probs)
            score = _path_scores(enc, probs.data, 0)
            for k in {1, 2, int(rng.integers(1, n + 3)), n, n + 2}:
                got = beam_decode(enc, probs, k)
                assert got == _ranked(enc, -score, None, k, score=score)
                for i, sample in enumerate(got):
                    want = oracles.exhaustive_ranking(tax.parents, logp[i], k)
                    assert [(h.score, h.classes) for h in sample] == want

    @pytest.mark.parametrize("value", [np.nan, -0.25, 1.5])
    def test_rejects_a_bad_probability_as_the_full_route_does(
        self, monkeypatch, toy_encoding, value
    ):
        # Two threads take samples 0-1 and 2-3; the first bad entry, in
        # sample 1, is reported, not the one in sample 3.
        monkeypatch.setattr(transforms, "_workers", lambda: 2)
        data = random_probs(np.random.default_rng(54), toy_encoding, batch=4).data
        data = data.copy()
        data[1, 2, 7] = value  # class 8 sits on level 3
        data[3, 0, 0] = value
        probs = LevelProbabilities(data=data)
        messages = []
        for norm in (False, True):
            with pytest.raises(ParameterError, match="sample 1, level 3, class 8") as e:
                beam_decode(toy_encoding, probs, k=2, length_normalize=norm)
            messages.append(str(e.value))
        assert messages[0] == messages[1]

    @pytest.mark.parametrize("norm", [False, True])
    def test_empty_batch(self, toy_encoding, norm):
        probs = LevelProbabilities(data=np.zeros((0, 3, 9)))
        assert beam_decode(toy_encoding, probs, k=2, length_normalize=norm) == []


class TestLevenshteinFunction:
    """The edit distance that the decoder tests take as their reference."""

    def test_known_pairs(self):
        assert oracles.lev_table("kitten", "sitting") == 3
        assert oracles.lev_table([1, 2, 3], [1, 2, 3]) == 0
        assert oracles.lev_table([], [1, 2]) == 2
        assert oracles.lev_table([5], []) == 1

    def test_symmetry(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            a = rng.integers(0, 4, size=7).tolist()
            b = rng.integers(0, 4, size=3).tolist()
            assert oracles.lev_table(a, b) == oracles.lev_table(b, a)


def chain_with_forest(rng, depth, extra=40):
    """A chain of ``depth`` classes with a random forest of ``extra`` classes
    grafted on anywhere above the chain's last level, ids shuffled."""
    parents, level = list(range(-1, depth - 1)), list(range(depth))
    for _ in range(extra):
        shallow = [c for c in range(len(parents)) if level[c] < depth - 1]
        p = -1 if not shallow or rng.random() < 0.1 else int(rng.choice(shallow))
        parents.append(p)
        level.append(level[p] + 1 if p >= 0 else 0)
    perm = rng.permutation(len(parents))
    relabeled = np.full(len(parents), -1, dtype=np.int64)
    for c, p in enumerate(parents):
        if p >= 0:
            relabeled[perm[c]] = perm[p]
    return Taxonomy(parents=relabeled)


def hard_naive_sequences(rng, tax, depth):
    """Random sequences, one class repeated throughout, and real paths padded
    with repeats of their last class."""
    n = len(tax.parents)
    rows = [rng.integers(0, n, size=depth) for _ in range(3)]
    rows += [np.full(depth, rng.integers(n)) for _ in range(2)]
    deepest = max(range(n), key=lambda c: oracles.depth_of(tax.parents, c))
    for c in rng.integers(0, n, size=3).tolist() + [deepest]:
        path = oracles.path_of(tax.parents, c)
        rows.append(np.array(path + path[-1:] * (depth - len(path))))
    return np.stack(rows)


class TestBitParallelScan:
    """The scan's words are uint8 up to 8 levels, then uint16, uint32, uint64
    and past 64 levels Python ints: each side of every boundary is checked
    against the int16 DP."""

    @pytest.mark.parametrize("depth", [1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 80])
    def test_equals_the_dp_at_every_word_boundary(self, depth):
        rng = np.random.default_rng(60 + depth)
        tax = chain_with_forest(rng, depth)
        enc = encode(tax)
        assert enc.num_levels == depth
        naive = hard_naive_sequences(rng, tax, depth)
        got = _scan_levels(enc, naive)
        want = oracles.scan_levels_reference(enc, naive)
        assert got.dtype == want.dtype == np.int16
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("with_probs", [False, True])
    def test_decoder_past_64_levels_matches_scan(self, with_probs):
        rng = np.random.default_rng(62)
        tax = chain_with_forest(rng, 65)
        enc = encode(tax)
        naive = hard_naive_sequences(rng, tax, 65)[[0, 3, 5]]
        probs = random_probs(rng, enc, batch=3)
        logp = log_probs(probs)
        k = enc.num_classes
        decoded = levenshtein_decode(enc, naive, k, probs=probs if with_probs else None)
        for i, sample in enumerate(decoded):
            want = oracles.nearest_paths(
                tax.parents, naive[i].tolist(), k, logp=logp[i] if with_probs else None
            )
            if with_probs:
                got = [(h.distance, h.score, h.classes) for h in sample]
            else:
                got = [(h.distance, h.classes) for h in sample]
            assert got == want


class TestLevenshteinDecode:
    def test_full_ranking_matches_scan(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            tax = random_taxonomy(rng, max_classes=40, max_depth=5)
            enc = encode(tax)
            probs = random_probs(rng, enc, batch=2)
            naive = naive_decode(probs)
            decoded = levenshtein_decode(enc, naive, k=enc.num_classes)
            for i, sample in enumerate(decoded):
                want = oracles.nearest_paths(
                    tax.parents, naive[i].tolist(), k=enc.num_classes
                )
                assert [(h.distance, h.classes) for h in sample] == want

    def test_full_ranking_with_probs_matches_scan(self):
        rng = np.random.default_rng(44)
        for _ in range(10):
            tax = random_taxonomy(rng, max_classes=40, max_depth=5)
            enc = encode(tax)
            probs = random_probs(rng, enc, batch=2)
            with np.errstate(divide="ignore"):
                logp = np.log(probs.data.astype(np.float64))
            naive = naive_decode(probs)
            decoded = levenshtein_decode(enc, naive, k=enc.num_classes, probs=probs)
            for i, sample in enumerate(decoded):
                want = oracles.nearest_paths(
                    tax.parents, naive[i].tolist(), k=enc.num_classes, logp=logp[i]
                )
                got = [(h.distance, h.score, h.classes) for h in sample]
                assert got == want

    def test_small_k_matches_scan(self):
        rng = np.random.default_rng(46)
        straddled = {False: 0, True: 0}
        # 100 small forests, then the benchmark's 10k x 8 tree, where the
        # paths tied at the k-th distance run thousands wide.
        for trial in range(101):
            big = trial == 100
            if big:
                tax = generate_synthetic(SyntheticTreeSpec(10_000, 8, seed=0))
            else:
                tax = random_taxonomy(rng, max_classes=40, max_depth=5)
            enc = encode(tax)
            batch = 2 if big else 3
            if trial % 2:
                probs = tied_probs(rng, enc, batch)
                naive = naive_decode(probs)
            else:
                probs = random_probs(rng, enc, batch)
                naive = rng.integers(0, enc.num_classes, size=(batch, enc.num_levels))
            logp = log_probs(probs)
            k = 5 if big else int(rng.integers(1, 8))
            for with_probs in (False, True):
                decoded = levenshtein_decode(
                    enc, naive, k=k, probs=probs if with_probs else None
                )
                for i, sample in enumerate(decoded):
                    want = oracles.nearest_paths(
                        tax.parents,
                        naive[i].tolist(),
                        k=k + 1,
                        logp=logp[i] if with_probs else None,
                    )
                    if with_probs:
                        got = [(h.distance, h.score, h.classes) for h in sample]
                    else:
                        got = [(h.distance, h.classes) for h in sample]
                    assert got == want[:k]
                    # A tie on everything but the path crosses the k-th place.
                    tie = len(want) > k and want[k][:-1] == want[k - 1][:-1]
                    straddled[with_probs] += tie
        assert all(straddled.values())

    def test_no_batch_limit(self):
        # 128 samples over 10,000 classes: 1.28M sequence pairs.
        enc = encode(generate_synthetic(SyntheticTreeSpec(10_000, 8, seed=0)))
        rng = np.random.default_rng(47)
        probs = random_probs(rng, enc, batch=128)
        naive = naive_decode(probs)
        decoded = levenshtein_decode(enc, naive, k=3, probs=probs)
        assert len(decoded) == 128
        for i, sample in enumerate(decoded):
            alone = LevelProbabilities(data=probs.data[i : i + 1])
            (want,) = levenshtein_decode(enc, naive[i : i + 1], 3, probs=alone)
            assert sample == want

    def test_distances_verified_per_path(self, toy_encoding):
        rng = np.random.default_rng(45)
        probs = random_probs(rng, toy_encoding, batch=3)
        naive = naive_decode(probs)
        for i, sample in enumerate(levenshtein_decode(toy_encoding, naive, k=4)):
            for hyp in sample:
                assert hyp.distance == oracles.lev_table(
                    naive[i].tolist(), list(hyp.classes)
                )

    def test_exact_naive_path_wins_when_valid(self, toy_encoding):
        # Scores that make the naive sequence the real path 1 -> 4 -> 7.
        scores = np.array([[9, 0, 0, 9, 0, 0, 9, 0, 0]], dtype=np.float32)
        probs = softmax_levels(partition_scores(toy_encoding, scores))
        naive = naive_decode(probs)
        top = levenshtein_decode(toy_encoding, naive, k=1)[0][0]
        assert top.classes == (0, 3, 6)
        assert top.distance == 0

    def test_bad_k(self, toy_encoding):
        with pytest.raises(ParameterError):
            levenshtein_decode(toy_encoding, np.zeros((1, 3), dtype=np.int64), k=0)

    @pytest.mark.parametrize("k", [2.5, np.float64(2.0), None, "2"])
    def test_non_integer_k(self, toy_encoding, k):
        naive = np.zeros((1, 3), dtype=np.int64)
        with pytest.raises(ParameterError, match="integer"):
            levenshtein_decode(toy_encoding, naive, k=k)

    def test_wrong_shape(self, toy_encoding):
        with pytest.raises(ShapeError):
            levenshtein_decode(toy_encoding, np.zeros((1, 2), dtype=np.int64), k=1)

    def test_out_of_range_entry(self, toy_encoding):
        naive = np.array([[0, 2, 9]])
        with pytest.raises(LabelError):
            levenshtein_decode(toy_encoding, naive, k=1)

    def test_non_integer_entries(self, toy_encoding):
        naive = np.array([[0.5, 3.0, 6.0]])
        with pytest.raises(ShapeError, match="integers"):
            levenshtein_decode(toy_encoding, naive, k=1)

    def test_rejects_probability_outside_unit_interval(self, toy_encoding):
        rng = np.random.default_rng(50)
        probs = random_probs(rng, toy_encoding)
        naive = naive_decode(probs)
        data = probs.data.copy()
        data[2, 2, 7] = 1.5  # class 8 sits on level 3
        with pytest.raises(ParameterError, match="sample 2, level 3, class 8"):
            levenshtein_decode(
                toy_encoding, naive, k=2, probs=LevelProbabilities(data=data)
            )


def test_second_call_on_one_encoding_is_identical():
    # The first decode on an encoding computes its level layout, the
    # decoders' one derived index besides level_of; the second reads it back.
    rng = np.random.default_rng(52)
    for _ in range(10):
        tax = random_taxonomy(rng, max_classes=80, max_depth=6)
        probs = tied_probs(rng, encode(tax))
        naive = naive_decode(probs)
        for decode in (
            lambda enc: beam_decode(enc, probs, k=4),
            lambda enc: beam_decode(enc, probs, k=4, length_normalize=True),
            lambda enc: levenshtein_decode(enc, naive, k=4),
            lambda enc: levenshtein_decode(enc, naive, k=4, probs=probs),
        ):
            enc = encode(tax)
            first = decode(enc)
            assert set(vars(enc)) == {"masks", "paths", "level_of", "_layout"}
            assert decode(enc) == first

