"""Row blocks on helper threads: the same results and errors at any thread count."""

import concurrent.futures
import dataclasses
import functools
import itertools
import multiprocessing
import sys
import threading
import time

import numpy as np
import pytest

import oracles
from helpers import TOY_PARENTS, random_taxonomy
from semtree import (
    CorruptEncoding,
    InconsistentRow,
    LevelProbabilities,
    ParameterError,
    PartitionedScores,
    ShapeError,
    SyntheticTreeSpec,
    Taxonomy,
    beam_decode,
    cross_entropy,
    encode,
    flatten_for_training,
    generate_synthetic,
    levenshtein_decode,
    map_labels,
    naive_decode,
    partition_scores,
    softmax_levels,
    transforms,
    tree,
)

# (threads, entries per block): one block on one thread is the whole-batch
# computation; the others cut every input into many blocks.
WHOLE = (1, 1 << 62)
SETTINGS = [(1, 64), (4, 64), (4, 1 << 12), (4, None)]
SETTING_IDS = ["1-thread-tiny", "4-threads-tiny", "4-threads-small", "4-threads"]


def use(monkeypatch, threads, block):
    monkeypatch.setattr(transforms, "_workers", lambda: threads)
    if block is not None:
        monkeypatch.setattr(tree, "_BLOCK_ENTRIES", block)


def run_all(enc, scores, labels):
    """Every blocked kernel on one batch, each output as plain data."""
    parts = partition_scores(enc, scores)
    nan_parts = partition_scores(enc, scores, mask_value=float("nan"))
    flat = flatten_for_training(parts, map_labels(enc, labels))
    loss = cross_entropy(flat)
    probs = softmax_levels(parts)
    naive = naive_decode(probs)
    ints = PartitionedScores(
        data=np.where(np.isinf(parts.data), -(2**40), parts.data * 100).astype(np.int64)
    )
    return {
        "partition": parts.data,
        "partition-nan": nan_parts.data,
        "flat-rows": flat.rows,
        "flat-labels": flat.labels,
        "flat-origin": flat.origin,
        "loss-per-row": loss.per_row,
        "loss-value": loss.value,
        "softmax": probs.data,
        "softmax-nan-masked": softmax_levels(nan_parts).data,
        "softmax-int": softmax_levels(ints).data,
        "naive": naive,
        "beam": beam_decode(enc, probs, 4),
        "beam-normalized": beam_decode(enc, probs, 4, length_normalize=True),
        "lev": levenshtein_decode(enc, naive, 4),
        "lev-probs": levenshtein_decode(enc, naive, 4, probs=probs),
    }


@functools.cache
def inputs(name):
    rng = np.random.default_rng(list(name.encode()))
    if name == "toy":
        enc, batch = encode(Taxonomy(parents=TOY_PARENTS)), 5
    elif name == "10k":
        enc = encode(generate_synthetic(SyntheticTreeSpec(10_000, 8, seed=0)))
        batch = 64
    else:
        enc, batch = encode(random_taxonomy(rng, max_classes=300, max_depth=6)), 23
    scores = rng.standard_normal((batch, enc.num_classes), dtype=np.float32)
    labels = rng.integers(0, enc.num_classes, size=batch)
    return enc, scores, labels


def assert_same(got, want):
    assert got.keys() == want.keys()
    for key in want:
        if isinstance(want[key], np.ndarray):
            assert got[key].dtype == want[key].dtype, key
            assert np.array_equal(got[key], want[key], equal_nan=True), key
        else:
            assert got[key] == want[key], key


@pytest.mark.parametrize("setting", SETTINGS, ids=SETTING_IDS)
@pytest.mark.parametrize("name", ["toy", "fuzz-0", "fuzz-1", "10k"])
def test_every_kernel_equals_one_whole_block(monkeypatch, name, setting):
    enc, scores, labels = inputs(name)
    if name == "fuzz-1":
        scores = scores.astype(np.float64) * 30
    use(monkeypatch, *WHOLE)
    want = run_all(enc, scores, labels)
    use(monkeypatch, *setting)
    assert_same(run_all(enc, scores, labels), want)


# fuzz-0's 23 rows hold 378 entries each, so blocks of 2,000 entries on one
# thread are four of five rows and a short last one of three.
SHORT_LAST = (1, 2_000)


@pytest.mark.parametrize(
    "setting", SETTINGS + [SHORT_LAST], ids=SETTING_IDS + ["1-thread-short-last"]
)
def test_blocks_match_the_references(monkeypatch, setting):
    use(monkeypatch, *setting)
    enc, scores, _ = inputs("fuzz-0")
    assert scores.shape == (23, 63) and enc.num_levels == 6
    for batch in (scores, scores[:, ::-1], np.asfortranarray(scores)):
        want = oracles.partition_by_columns(enc, batch, -np.inf)
        assert np.array_equal(partition_scores(enc, batch).data, want)
    parts = partition_scores(enc, scores)
    want = oracles.softmax_levels_reference(parts)
    assert np.array_equal(softmax_levels(parts).data, want)


def test_random_forests_at_every_thread_count(monkeypatch):
    rng = np.random.default_rng(72)
    monkeypatch.setattr(tree, "_BLOCK_ENTRIES", 256)
    for _ in range(12):
        enc = encode(random_taxonomy(rng, max_classes=120, max_depth=7))
        scores = rng.standard_normal((int(rng.integers(1, 40)), enc.num_classes))
        labels = rng.integers(0, enc.num_classes, size=scores.shape[0])
        results = []
        for threads in (1, 2, 3):
            monkeypatch.setattr(transforms, "_workers", lambda t=threads: t)
            results.append(run_all(enc, scores, labels))
        assert_same(results[1], results[0])
        assert_same(results[2], results[0])


# -- errors ------------------------------------------------------------------


def error_of(call):
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


def probabilities(batch=12):
    enc = encode(Taxonomy(parents=TOY_PARENTS))
    scores = np.random.default_rng(73).standard_normal((batch, 9))
    return enc, softmax_levels(partition_scores(enc, scores)).data


def spoiled_softmax(faults):
    """Toy scores (12, 3, 9) with each (sample, level, kind) fault set."""
    enc, _ = probabilities()
    scores = np.random.default_rng(74).standard_normal((12, 9))
    data = partition_scores(enc, scores).data.copy()
    live = enc.level_of == np.arange(3)[:, None]  # (L, n)
    for s, l, kind in faults:
        if kind == "dead":
            data[s, l] = -np.inf
        else:
            data[s, l, np.flatnonzero(live[l])[0]] = np.nan
    return PartitionedScores(data=data)


def spoiled_probabilities(samples):
    enc, data = probabilities()
    data = data.copy()
    for s in samples:
        data[s, 2, 6] = 1.5  # class 7 sits on level 3
    return enc, LevelProbabilities(data=data)


def nan_probabilities(samples):
    enc, data = probabilities()
    data = data.copy()
    for s in samples:
        data[s, 1, 3] = np.nan
    return LevelProbabilities(data=data)


def spoiled_flat(faults):
    """Toy training rows of 12 samples with each (row, value) fault set in a
    live entry other than the row's label."""
    enc = encode(Taxonomy(parents=TOY_PARENTS))
    rng = np.random.default_rng(75)
    parts = partition_scores(enc, rng.standard_normal((12, 9)))
    flat = flatten_for_training(parts, map_labels(enc, rng.integers(0, 9, size=12)))
    rows = flat.rows.copy()
    for i, value in faults:
        live = np.flatnonzero(rows[i] != -np.inf)
        rows[i, live[live != flat.labels[i]][0]] = value
    return dataclasses.replace(flat, rows=rows)


CASES = {
    "softmax-dead-last": (
        lambda: softmax_levels(spoiled_softmax([(11, 2, "dead")])),
        CorruptEncoding,
        "sample 11, level 3: every class is masked out",
    ),
    "softmax-nan-last": (
        lambda: softmax_levels(spoiled_softmax([(11, 2, "nan")])),
        ParameterError,
        "sample 11, level 3: a live score is NaN or +inf",
    ),
    "softmax-two-nan": (
        lambda: softmax_levels(spoiled_softmax([(4, 1, "nan"), (10, 0, "nan")])),
        ParameterError,
        "sample 4, level 2: a live score is NaN or +inf",
    ),
    "softmax-dead-after-nan": (
        lambda: softmax_levels(spoiled_softmax([(1, 0, "nan"), (10, 2, "dead")])),
        CorruptEncoding,
        "sample 10, level 3: every class is masked out",
    ),
    "softmax-nan-after-dead": (
        lambda: softmax_levels(spoiled_softmax([(2, 1, "dead"), (9, 0, "nan")])),
        CorruptEncoding,
        "sample 2, level 2: every class is masked out",
    ),
    "loss-nan-then-inf": (
        lambda: cross_entropy(spoiled_flat([(5, np.nan), (21, np.inf)])),
        InconsistentRow,
        "row 5 produced a non-finite loss",
    ),
    "loss-inf-then-nan": (
        lambda: cross_entropy(spoiled_flat([(21, np.nan), (9, np.inf)])),
        InconsistentRow,
        "row 9 produced a non-finite loss",
    ),
    "naive-last": (
        lambda: naive_decode(nan_probabilities([11])),
        ParameterError,
        "sample 11, level 2, class 4: probability is NaN",
    ),
    "naive-two": (
        lambda: naive_decode(nan_probabilities([3, 9])),
        ParameterError,
        "sample 3, level 2, class 4: probability is NaN",
    ),
    "beam-last": (
        lambda: beam_decode(*spoiled_probabilities([11]), 3),
        ParameterError,
        "sample 11, level 3, class 7: probability 1.5 is outside [0, 1]",
    ),
    "beam-two": (
        lambda: beam_decode(*spoiled_probabilities([5, 10]), 3),
        ParameterError,
        "sample 5, level 3, class 7: probability 1.5 is outside [0, 1]",
    ),
    "lev-two": (
        lambda: levenshtein_decode(
            encode(Taxonomy(parents=TOY_PARENTS)),
            np.zeros((12, 3), dtype=np.int64),
            3,
            probs=spoiled_probabilities([6, 11])[1],
        ),
        ParameterError,
        "sample 6, level 3, class 7: probability 1.5 is outside [0, 1]",
    ),
}


@pytest.mark.parametrize("setting", SETTINGS[:3], ids=SETTING_IDS[:3])
@pytest.mark.parametrize("case", CASES)
def test_errors_name_the_first_fault_at_any_thread_count(monkeypatch, case, setting):
    call, kind, message = CASES[case]
    use(monkeypatch, *WHOLE)
    want = error_of(call)
    assert want == (kind, message)
    use(monkeypatch, 4, 9)  # toy rows of 9 entries: one row per block
    assert error_of(call) == want
    use(monkeypatch, *setting)
    assert error_of(call) == want


def test_every_block_runs_and_the_first_failure_is_raised(monkeypatch):
    use(monkeypatch, 4, 10)
    ran, lock = [], threading.Lock()

    def fn(lo, hi):
        with lock:
            ran.append((lo, hi))
        if lo >= 30:
            raise ValueError(f"block at {lo}")
        return lo

    with pytest.raises(ValueError) as info:
        transforms._for_row_blocks(100, 1, fn)
    ran.sort()
    # 10 blocks of 10 rows become 12, the next multiple of 4 threads.
    assert len(ran) == 12 and ran[0][0] == 0 and ran[-1][1] == 100
    assert all(a[1] == b[0] for a, b in zip(ran, ran[1:]))
    assert str(info.value) == f"block at {min(lo for lo, _ in ran if lo >= 30)}"
    ran.clear()
    assert transforms._for_row_blocks(30, 1, fn) == [0, 7, 15, 22]


def test_the_loss_caps_its_runs_in_flight(monkeypatch):
    # The loss makes one scratch set per run; more CPUs than _LOSS_RUNS
    # must not put more of its runs in flight.
    enc, scores, labels = inputs("10k")
    flat = flatten_for_training(partition_scores(enc, scores), map_labels(enc, labels))
    want = oracles.cross_entropy_whole_matrix(flat.rows, flat.labels)
    use(monkeypatch, 8, 3 * enc.num_classes)
    lock, now, most, gather = threading.Lock(), [0], [0], transforms._gather_by_level

    def spy(*args):
        with lock:
            now[0] += 1
            most[0] = max(most[0], now[0])
        time.sleep(0.001)  # long enough for the runs to overlap
        with lock:
            now[0] -= 1
        return gather(*args)

    monkeypatch.setattr(transforms, "_gather_by_level", spy)
    np.testing.assert_array_equal(cross_entropy(flat).per_row, want)
    assert 1 < most[0] <= transforms._LOSS_RUNS
    # The loss and the runner read the thread count apart; whatever each
    # reads, no two runs may share a scratch set.
    counts = itertools.cycle([1, 8])
    monkeypatch.setattr(transforms, "_workers", lambda: next(counts))
    for _ in range(4):
        np.testing.assert_array_equal(cross_entropy(flat).per_row, want)


@pytest.mark.skipif(
    int(np.__version__.split(".")[0]) < 2, reason="NumPy 1 keeps error state per thread"
)
def test_blocks_run_under_the_callers_error_state(monkeypatch):
    use(monkeypatch, 4, 10)

    def fn(lo, hi):
        time.sleep(0.01)  # long enough for the helper threads to take blocks
        return threading.get_ident(), np.geterr()["divide"]

    with np.errstate(divide="raise"):
        seen = transforms._for_row_blocks(100, 1, fn)
    assert len({thread for thread, _ in seen}) > 1
    assert {state for _, state in seen} == {"raise"}


def test_softmax_refuses_other_than_three_dimensions():
    with pytest.raises(ShapeError, match="3-d"):
        softmax_levels(PartitionedScores(data=np.zeros((2, 9))))


# -- helper threads ------------------------------------------------------------


def test_one_thread_starts_no_thread(monkeypatch):
    use(monkeypatch, 1, 64)
    started, start = [], threading.Thread.start
    monkeypatch.setattr(
        threading.Thread, "start", lambda self: (started.append(self), start(self))
    )
    enc, scores, labels = inputs("10k")
    run_all(enc, scores[:8], labels[:8])
    assert started == []


def test_no_more_helpers_than_blocks(monkeypatch):
    use(monkeypatch, 8, None)
    started, start = [], threading.Thread.start
    monkeypatch.setattr(
        threading.Thread, "start", lambda self: (started.append(self), start(self))
    )
    assert transforms._for_row_blocks(2, tree._BLOCK_ENTRIES, lambda lo, hi: lo) == [0, 1]
    assert len(started) == 1


def test_no_helper_outlives_the_call(monkeypatch):
    use(monkeypatch, 3, 64)
    seen, blocks = set(), transforms._for_row_blocks

    def spy(num_rows, row_entries, fn, **kwargs):
        def block(lo, hi):
            seen.add(threading.current_thread())
            time.sleep(0.001)  # long enough for the helpers to take blocks
            return fn(lo, hi)

        return blocks(num_rows, row_entries, block, **kwargs)

    monkeypatch.setattr(transforms, "_for_row_blocks", spy)
    enc, scores, _ = inputs("10k")
    partition_scores(enc, scores)
    caller = threading.current_thread()
    assert len(seen) > 1
    assert seen & set(threading.enumerate()) == {caller}


def test_no_helper_outlives_a_loss_call(monkeypatch):
    enc, scores, labels = inputs("10k")
    flat = flatten_for_training(partition_scores(enc, scores), map_labels(enc, labels))
    use(monkeypatch, 3, 64)
    seen, blocks = [], transforms._for_row_blocks

    def spy(num_rows, row_entries, fn, **kwargs):
        def block(lo, hi):
            seen.append(threading.current_thread())
            time.sleep(0.001)  # long enough for the helpers to take blocks
            return fn(lo, hi)

        return blocks(num_rows, row_entries, block, **kwargs)

    monkeypatch.setattr(transforms, "_for_row_blocks", spy)
    want = oracles.cross_entropy_whole_matrix(flat.rows, flat.labels)
    np.testing.assert_array_equal(cross_entropy(flat).per_row, want)
    caller = threading.current_thread()
    assert len(set(seen)) > 1
    assert set(seen) & set(threading.enumerate()) == {caller}


def test_loss_scratch_is_never_shared_under_forced_switches(monkeypatch):
    # More threads than cores and a switch at almost every bytecode: a
    # scratch taken by two runs of blocks at once would mix their rows.
    enc, scores, labels = inputs("10k")
    flat = flatten_for_training(partition_scores(enc, scores), map_labels(enc, labels))
    want = oracles.cross_entropy_whole_matrix(flat.rows, flat.labels)
    use(monkeypatch, 8, 3 * enc.num_classes)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            np.testing.assert_array_equal(cross_entropy(flat).per_row, want)
    finally:
        sys.setswitchinterval(interval)


def test_concurrent_callers_each_get_their_own_helpers(monkeypatch):
    enc, scores, _ = inputs("fuzz-0")
    use(monkeypatch, *WHOLE)
    want = partition_scores(enc, scores).data
    use(monkeypatch, 3, 64)
    with concurrent.futures.ThreadPoolExecutor(2) as callers:
        tasks = [callers.submit(partition_scores, enc, scores) for _ in range(2)]
        for task in tasks:
            assert np.array_equal(task.result(timeout=60).data, want)


def test_a_helpers_failure_of_any_kind_reaches_the_caller(monkeypatch):
    use(monkeypatch, 4, 10)

    def fn(lo, hi):
        time.sleep(0.001)
        raise SystemExit(lo)  # not an Exception: would end a helper silently

    with pytest.raises(SystemExit) as info:
        transforms._for_row_blocks(100, 1, fn)
    assert info.value.code == 0


def decode_in_child(enc, probs, want):
    got = beam_decode(enc, probs, 5)
    raise SystemExit(0 if got == want else 3)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="no fork here"
)
def test_a_forked_child_decodes_after_the_parent_ran_blocks(monkeypatch):
    use(monkeypatch, 2, None)
    enc, scores, _ = inputs("10k")
    probs = softmax_levels(partition_scores(enc, scores))
    want = beam_decode(enc, probs, 5)  # on the parent's helper threads
    child = multiprocessing.get_context("fork").Process(
        target=decode_in_child, args=(enc, probs, want)
    )
    child.start()
    child.join(timeout=120)
    alive = child.is_alive()
    if alive:
        child.kill()
        child.join(timeout=10)
    assert not alive
    assert child.exitcode == 0
