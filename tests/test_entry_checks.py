"""The entry checks: every public array argument is refused, with an error
naming it, when its dtype, number of dimensions or length is wrong, and
an id out of range names the row it sits in."""

import dataclasses
import inspect
import typing

import numpy as np
import pytest

import semtree
from semtree import (
    FlatTrainingSet,
    LabelError,
    LevelProbabilities,
    ParameterError,
    PartitionedScores,
    PathLabels,
    ShapeError,
    beam_decode,
    cross_entropy,
    flatten_for_training,
    levenshtein_decode,
    map_labels,
    naive_decode,
    partition_scores,
    softmax_levels,
)
from semtree import fileio

TOY_LABELS = np.array([3, 6, 1])  # paths of 2, 3 and 1 classes: 6 rows

# The types of argument that carry arrays no constructor has checked.
# Taxonomy and TreeEncoding check their own arrays when they are made.
ARRAY_TYPES = (
    np.ndarray,
    PartitionedScores,
    PathLabels,
    FlatTrainingSet,
    LevelProbabilities,
)

# Public functions that take an array but are not among the entry points
# checked here, and why.
NOT_GATED = {
    "display_ids": "shifts ids of any shape to their 1-based form",
    "class_depths": "checks its parents as Taxonomy does, with ParameterError",
}


def _inputs(enc):
    scores = np.random.default_rng(7).standard_normal((3, 9), dtype=np.float32)
    parts = partition_scores(enc, scores)
    paths = map_labels(enc, TOY_LABELS)
    flat = flatten_for_training(parts, paths)
    probs = softmax_levels(parts)
    return scores, parts, paths, flat, probs, naive_decode(probs)


def _entries(enc, tmp_path):
    """(function, the name its errors give the argument, a valid value of
    it, a call with that argument replaced) for every array argument."""
    scores, parts, paths, flat, probs, naive = _inputs(enc)
    return [
        (partition_scores, "scores", scores, lambda a: partition_scores(enc, a)),
        (map_labels, "labels", TOY_LABELS, lambda a: map_labels(enc, a)),
        (
            flatten_for_training,
            "partitioned scores",
            parts.data,
            lambda a: flatten_for_training(PartitionedScores(data=a), paths),
        ),
        (
            flatten_for_training,
            "path labels",
            paths.data,
            lambda a: flatten_for_training(parts, PathLabels(data=a)),
        ),
        (
            cross_entropy,
            "rows",
            flat.rows,
            lambda a: cross_entropy(dataclasses.replace(flat, rows=a)),
        ),
        (
            cross_entropy,
            "labels",
            flat.labels,
            lambda a: cross_entropy(dataclasses.replace(flat, labels=a)),
        ),
        (
            cross_entropy,
            "origin",
            flat.origin,
            lambda a: cross_entropy(dataclasses.replace(flat, origin=a)),
        ),
        (
            softmax_levels,
            "scores",
            parts.data,
            lambda a: softmax_levels(PartitionedScores(data=a)),
        ),
        (
            naive_decode,
            "probabilities",
            probs.data,
            lambda a: naive_decode(LevelProbabilities(data=a)),
        ),
        (
            beam_decode,
            "probabilities",
            probs.data,
            lambda a: beam_decode(enc, LevelProbabilities(data=a), 2),
        ),
        (
            levenshtein_decode,
            "naive sequences",
            naive,
            lambda a: levenshtein_decode(enc, a, 2),
        ),
        (
            levenshtein_decode,
            "probabilities",
            probs.data,
            lambda a: levenshtein_decode(
                enc, naive, 2, probs=LevelProbabilities(data=a)
            ),
        ),
        (
            fileio.write_scores,
            "scores",
            scores,
            lambda a: fileio.write_scores(a, tmp_path / "scores.bin"),
        ),
        (
            fileio.write_labels,
            "labels",
            TOY_LABELS,
            lambda a: fileio.write_labels(a, tmp_path / "labels.bin"),
        ),
    ]


def _bad_values(good):
    """``good`` as bool, with one dimension too many and one too few."""
    return [np.zeros(good.shape, dtype=bool), good[..., None], good[0]]


def _fault(name, bad, call):
    """None if ``call(bad)`` raises ``ShapeError`` naming the argument,
    else what it did instead."""
    try:
        call(bad)
    except Exception as e:  # reported, so that every case shows at once
        if isinstance(e, ShapeError) and str(e).startswith(f"{name} must be"):
            return None
        return f"{type(e).__name__}: {e}"
    return "no error"


def _takes_array(fn) -> bool:
    for param in inspect.signature(fn).parameters.values():
        kinds = (param.annotation, *typing.get_args(param.annotation))
        if any(kind in ARRAY_TYPES for kind in kinds):
            return True
    return False


def test_every_array_argument_is_checked_where_it_enters(toy_encoding, tmp_path):
    entries = _entries(toy_encoding, tmp_path)
    public = [getattr(semtree, name) for name in semtree.__all__]
    takes_arrays = {
        fn.__name__ for fn in public if inspect.isfunction(fn) and _takes_array(fn)
    }
    assert takes_arrays - set(NOT_GATED) == {
        fn.__name__ for fn, *_ in entries if fn.__module__ != "semtree.fileio"
    }

    cases = [
        (fn, name, bad, call)
        for fn, name, good, call in entries
        for bad in _bad_values(good)
    ]
    for fn, name, good, call in entries:
        if (fn, name) == (cross_entropy, "labels"):
            # (R, 1) labels were broadcast against the rows into an (R, R)
            # loss; a count other than the rows' failed while indexing.
            for bad in (good[:, None], good[:-1], np.append(good, 0)):
                cases.append((fn, name, bad, call))
        if (fn, name) == (cross_entropy, "origin"):
            # The loss groups rows by the level in their origin, so it wants
            # one (sample, level) pair per row.
            for bad in (good[:-1], np.vstack((good, good[:1])), good[:, :1]):
                cases.append((fn, name, bad, call))
    missed = [
        (fn.__name__, name, str(bad.dtype), np.shape(bad), fault)
        for fn, name, bad, call in cases
        if (fault := _fault(name, bad, call))
    ]
    assert missed == []
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("entry", ["map_labels", "cross_entropy", "levenshtein"])
def test_label_error_names_the_row_of_the_first_bad_id(toy_encoding, entry):
    # Row 1 holds the first bad id in row-major order; row 2 holds another.
    if entry == "map_labels":
        with pytest.raises(LabelError) as info:
            map_labels(toy_encoding, np.array([0, 9, -1]))
    elif entry == "cross_entropy":
        flat = _inputs(toy_encoding)[3]
        labels = flat.labels.copy()
        labels[1], labels[2] = 9, -1
        with pytest.raises(LabelError) as info:
            cross_entropy(dataclasses.replace(flat, labels=labels))
    else:
        naive = np.array([[0, 2, 6], [0, 3, 9], [-1, 0, 0]])
        with pytest.raises(LabelError) as info:
            levenshtein_decode(toy_encoding, naive, 1)
    assert (info.value.batch_index, info.value.value) == (1, 9)
    assert info.value.num_classes == 9


@pytest.mark.parametrize("decode", [beam_decode, levenshtein_decode])
def test_decoders_refuse_a_bool_width(toy_encoding, decode):
    # True passed the integer check, then failed inside the ranking.
    _, _, _, _, probs, naive = _inputs(toy_encoding)
    arg = probs if decode is beam_decode else naive
    with pytest.raises(ParameterError, match="must be an integer of at least 1"):
        decode(toy_encoding, arg, True)


@pytest.mark.parametrize("mask_value", [None, "x", "-inf", 1j])
def test_partition_refuses_a_mask_value_that_is_not_a_number(toy_encoding, mask_value):
    scores = np.zeros((1, 9))
    with pytest.raises(ParameterError, match="mask value must be a real number"):
        partition_scores(toy_encoding, scores, mask_value=mask_value)
