"""Encoding construction, validation, and the binary encoding format."""

import dataclasses
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import semtree as st
import oracles
from semtree import fileio
from helpers import TOY_MASKS, TOY_PARENTS, TOY_PATHS_DISPLAY, random_taxonomy


class TestTaxonomy:
    def test_rejects_empty(self):
        with pytest.raises(st.ParameterError):
            st.Taxonomy(parents=np.array([], dtype=np.int32))

    def test_rejects_parent_out_of_range(self):
        with pytest.raises(st.ParameterError):
            st.Taxonomy(parents=np.array([-1, 5]))
        with pytest.raises(st.ParameterError):
            st.Taxonomy(parents=np.array([-1, -2]))

    def test_rejects_parent_that_wraps_in_int32(self):
        with pytest.raises(st.ParameterError):
            st.Taxonomy(parents=np.array([-1, 2**32]))

    def test_rejects_non_integer_parents(self):
        with pytest.raises(st.ParameterError):
            st.Taxonomy(parents=np.array([-1, 0.5]))

    def test_rejects_matrix(self):
        with pytest.raises(st.ParameterError):
            st.Taxonomy(parents=np.zeros((2, 2), dtype=np.int32))

    def test_equality(self):
        a = st.Taxonomy(parents=TOY_PARENTS)
        b = st.Taxonomy(parents=TOY_PARENTS.copy())
        assert a == b
        assert a != st.Taxonomy(parents=np.array([-1, 0]))
        assert a != object() and object() != a


class TestEncode:
    def test_toy_masks(self, toy_encoding):
        np.testing.assert_array_equal(toy_encoding.masks, TOY_MASKS)

    def test_toy_paths(self, toy_encoding):
        np.testing.assert_array_equal(
            st.display_ids(toy_encoding.paths), TOY_PATHS_DISPLAY
        )

    def test_toy_dimensions(self, toy_encoding):
        assert toy_encoding.num_classes == 9
        assert toy_encoding.num_levels == 3
        np.testing.assert_array_equal(
            toy_encoding.level_of, [0, 0, 1, 1, 1, 1, 2, 2, 2]
        )

    def test_deterministic(self, toy_taxonomy):
        assert st.encode(toy_taxonomy) == st.encode(toy_taxonomy)

    def test_equality_holds_one_block_at_a_time(self, full_scale_tree):
        # Whole-matrix comparisons held a (L, n) and an (n, L) temporary,
        # 2.35 MB each at this scale.
        enc = full_scale_tree["encoding"]
        copy = st.TreeEncoding(masks=enc.masks.copy(), paths=enc.paths.copy())
        tracemalloc.start()
        try:
            assert enc == copy
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_one_differing_entry_in_the_last_block_is_unequal(self, full_scale_tree):
        enc = full_scale_tree["encoding"]
        masks, paths = enc.masks.copy(), enc.paths.copy()
        masks[-1, -1] = ~masks[-1, -1]
        assert enc != st.TreeEncoding(masks=masks, paths=enc.paths)
        paths[-1, -1] += 1
        assert enc != st.TreeEncoding(masks=enc.masks, paths=paths)

    def test_peak_at_c08_holds_two_levels_of_rows(self, full_scale_tree):
        # Besides the two matrices (11.8 MB), encode holds the depths, the
        # level order and the rows of two levels: 15.9 MB. A level-ordered
        # copy of the whole path matrix, then permuted, peaked at 24.5 MB.
        taxonomy = full_scale_tree["taxonomy"]
        tracemalloc.start()
        try:
            enc = st.encode(taxonomy)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert enc == full_scale_tree["encoding"]
        assert peak <= 17_000_000

    def test_a_different_level_count_is_unequal(self, toy_encoding):
        deeper = st.TreeEncoding(
            masks=np.vstack((toy_encoding.masks, np.ones((1, 9), dtype=bool))),
            paths=np.hstack((toy_encoding.paths, np.full((9, 1), st.PAD))),
        )
        assert toy_encoding != deeper and deeper != toy_encoding
        assert toy_encoding != object() and object() != toy_encoding

    def test_single_class(self):
        enc = st.encode(st.Taxonomy(parents=np.array([-1])))
        assert enc.num_levels == 1
        np.testing.assert_array_equal(enc.masks, [[False]])
        np.testing.assert_array_equal(enc.paths, [[0]])

    def test_forest_of_roots(self):
        enc = st.encode(st.Taxonomy(parents=np.full(4, -1)))
        assert enc.num_levels == 1
        assert not enc.masks.any()

    def test_chain(self):
        n = 6
        enc = st.encode(st.Taxonomy(parents=np.arange(-1, n - 1)))
        assert enc.num_levels == n
        np.testing.assert_array_equal(enc.paths[-1], np.arange(n))

    def test_child_with_smaller_id_than_parent(self):
        # class 0 under class 1, which is the root
        enc = st.encode(st.Taxonomy(parents=np.array([1, -1])))
        np.testing.assert_array_equal(enc.level_of, [1, 0])
        np.testing.assert_array_equal(enc.paths, [[1, 0], [1, -1]])

    def test_two_cycle_raises(self):
        with pytest.raises(st.CyclicTaxonomy):
            st.encode(st.Taxonomy(parents=np.array([1, 0])))

    def test_self_loop_raises(self):
        with pytest.raises(st.CyclicTaxonomy):
            st.encode(st.Taxonomy(parents=np.array([0])))

    def test_deep_cycle_raises(self):
        # 0 -> 1 -> 2 -> 3 -> 1
        with pytest.raises(st.CyclicTaxonomy):
            st.encode(st.Taxonomy(parents=np.array([1, 2, 3, 1])))

    def test_arrays_are_read_only(self, toy_encoding):
        with pytest.raises(ValueError):
            toy_encoding.masks[0, 0] = True
        with pytest.raises(ValueError):
            toy_encoding.paths[0, 0] = 5

    def test_matches_reference_construction(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            tax = random_taxonomy(rng, max_classes=200, max_depth=6)
            enc = st.encode(tax)
            np.testing.assert_array_equal(enc.masks, oracles.build_masks(tax.parents))
            np.testing.assert_array_equal(enc.paths, oracles.build_paths(tax.parents))

    def test_each_class_unmasked_exactly_once(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            enc = st.encode(random_taxonomy(rng, max_classes=400))
            np.testing.assert_array_equal(
                (~enc.masks).sum(axis=0), np.ones(enc.num_classes, dtype=np.intp)
            )

    def test_recover_parents_round_trip(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            tax = random_taxonomy(rng, max_classes=300)
            np.testing.assert_array_equal(
                st.recover_parents(st.encode(tax)), tax.parents
            )


class TestClassDepths:
    @pytest.mark.parametrize(
        "parents, named",
        [
            ([1, 0], 1),
            ([0], 1),
            ([1, 2, 3, 1], 2),
            ([-1, 2, 1, 1], 2),
            ([1, 2, 3, 2], 3),
            ([3, -1, 0, 2], 1),
        ],
    )
    def test_cycle_message_names_first_repeat(self, parents, named):
        # Walking from the smallest class that never reaches a root, the
        # error names the first class the walk visits twice.
        with pytest.raises(st.CyclicTaxonomy, match=rf"^cycle through class {named}$"):
            st.class_depths(np.array(parents, dtype=np.int32))

    @pytest.mark.parametrize("length", [2, 4, 8, 3, 5])
    def test_cycles_with_tails_name_the_first_repeat(self, length):
        # On a cycle of 2, 4 or 8 classes the pointers settle after a few
        # rounds; on one of 3 or 5 they move until the round bound. Tails
        # of classes hang below the cycle, next to a rooted tree, and ids
        # are shuffled so that the walk may start on a tail.
        rng = np.random.default_rng(length)
        tree_size, n = 12, length + 60
        parents = np.empty(n, dtype=np.int32)
        parents[:tree_size] = [-1] + [rng.integers(c) for c in range(1, tree_size)]
        cycle = np.arange(tree_size, tree_size + length)
        parents[cycle] = np.roll(cycle, -1)
        parents[tree_size + length :] = [
            rng.integers(tree_size, c) for c in range(tree_size + length, n)
        ]
        perm = rng.permutation(n)
        shuffled = np.full(n, -1, dtype=np.int32)
        has = parents >= 0
        shuffled[perm[has]] = perm[parents[has]]
        named = oracles.cycle_named(shuffled)
        with pytest.raises(st.CyclicTaxonomy, match=rf"^cycle through class {named + 1}$"):
            st.class_depths(shuffled)

    def test_rejects_parent_below_no_parent(self):
        # -3 would index from the end and give depths [0, 1, 2].
        with pytest.raises(st.ParameterError, match=r"^parent -3 of class 3 is not a class id$"):
            st.class_depths(np.array([-1, 0, -3], dtype=np.int32))

    def test_rejects_parent_past_the_last_class(self):
        with pytest.raises(st.ParameterError, match=r"^parent 3 of class 2 is not a class id$"):
            st.class_depths(np.array([-1, 3, 0], dtype=np.int32))

    @pytest.mark.parametrize(
        "parents", [np.array([[-1], [0]]), np.array([-1.0, 0.7])], ids=["2-d", "float"]
    )
    def test_refuses_what_taxonomy_refuses(self, parents):
        # Both once gave depths [0 1]: read flat, and 0.7 as parent 0.
        for make in (st.class_depths, lambda p: st.Taxonomy(parents=p)):
            with pytest.raises(st.ParameterError, match=r"^parents must be a 1-d integer array$"):
                make(parents)

    def test_matches_reference_on_shuffled_forests(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            tax = random_taxonomy(rng, max_classes=300, max_depth=int(rng.integers(1, 40)))
            expected = [oracles.depth_of(tax.parents, c) for c in range(tax.num_classes)]
            depths = st.class_depths(tax.parents)
            assert depths.dtype == np.int32
            np.testing.assert_array_equal(depths, expected)

    def test_deep_chain(self):
        # A 5,000-deep chain with shuffled ids: class order[i] sits at depth i.
        n = 5000
        order = np.random.default_rng(18).permutation(n)
        parents = np.full(n, -1, dtype=np.int32)
        parents[order[1:]] = order[:-1]
        expected = np.empty(n, dtype=np.int32)
        expected[order] = np.arange(n)
        np.testing.assert_array_equal(st.class_depths(parents), expected)


@hs.composite
def parent_arrays(draw):
    """Up to 24 classes with shuffled ids: a forest, or parents drawn from
    every id, which gives cycles and self-loops."""
    n = draw(hs.integers(1, 24))
    forest = draw(hs.booleans())
    parents = [draw(hs.integers(-1, c - 1 if forest else n - 1)) for c in range(n)]
    perm = draw(hs.permutations(range(n)))
    shuffled = np.full(n, -1, dtype=np.int32)
    for c, p in enumerate(parents):
        if p != -1:
            shuffled[perm[c]] = perm[p]
    return shuffled


@settings(max_examples=300, deadline=None)
@given(parents=parent_arrays())
def test_encode_fuzz_gives_a_valid_encoding_or_names_the_cycle(parents):
    named = oracles.cycle_named(parents)
    if named is not None:
        with pytest.raises(st.CyclicTaxonomy, match=rf"^cycle through class {named + 1}$"):
            st.encode(st.Taxonomy(parents=parents))
        return
    enc = st.encode(st.Taxonomy(parents=parents))
    assert st.validate(enc).ok
    expected = [oracles.depth_of(parents, c) for c in range(parents.size)]
    np.testing.assert_array_equal(enc.level_of, expected)


class TestValidate:
    def _rebuild(self, enc, **overrides):
        fields = dict(masks=enc.masks.copy(), paths=enc.paths.copy())
        fields.update(overrides)
        return st.TreeEncoding(**fields)

    def _kinds(self, enc):
        return {v.kind for v in st.validate(enc).violations}

    def test_valid_toy(self, toy_encoding):
        report = st.validate(toy_encoding)
        assert report.ok
        assert report.lines() == []

    def test_valid_random(self):
        rng = np.random.default_rng(14)
        for _ in range(15):
            assert st.validate(st.encode(random_taxonomy(rng, max_classes=300))).ok

    def test_double_unmask(self, toy_encoding):
        masks = toy_encoding.masks.copy()
        masks[0, 5] = False  # class 6 also unmasked at the root level
        enc = self._rebuild(toy_encoding, masks=masks)
        assert "unmask-count" in self._kinds(enc)

    def test_masked_at_own_level(self, toy_encoding):
        masks = toy_encoding.masks.copy()
        masks[1, 4] = True
        enc = self._rebuild(toy_encoding, masks=masks)
        # Masked at every level: unmask-count names it, and no other kind
        # repeats that.
        violations = st.validate(enc).violations
        assert [v.where for v in violations if v.kind == "unmask-count"] == [(4,)]
        assert "class 5 is unmasked in 0 level rows" in violations[0].message
        assert "level-mismatch" not in self._kinds(enc)

    def test_path_entry_out_of_range(self, toy_encoding):
        paths = toy_encoding.paths.copy()
        paths[6, 0] = 55
        enc = self._rebuild(toy_encoding, paths=paths)
        assert "path-range" in self._kinds(enc)

    def test_padding_tail_broken(self, toy_encoding):
        paths = toy_encoding.paths.copy()
        paths[0, 2] = 4
        enc = self._rebuild(toy_encoding, paths=paths)
        assert "path-pad-tail" in self._kinds(enc)

    def test_wrong_endpoint(self, toy_encoding):
        paths = toy_encoding.paths.copy()
        paths[2, 1] = 3
        enc = self._rebuild(toy_encoding, paths=paths)
        assert "path-endpoint" in self._kinds(enc)

    def test_broken_prefix(self, toy_encoding):
        paths = toy_encoding.paths.copy()
        paths[6, 0] = 1  # path claims root 2, parent row says root 1
        enc = self._rebuild(toy_encoding, paths=paths)
        assert "prefix" in self._kinds(enc)

    def test_shared_path_in_one_level(self):
        # A two-class chain where the root is unmasked at the child's level
        # alongside the child.
        enc = st.TreeEncoding(
            masks=np.array([[False, True], [False, False]]),
            paths=np.array([[0, -1], [0, 1]], dtype=np.int32),
        )
        report = st.validate(enc)
        assert not report.ok
        unmask = [v for v in report.violations if v.kind == "unmask-count"]
        assert [v.where for v in unmask] == [(0,)]
        assert "class 1 is unmasked in 2 level rows" in unmask[0].message
        assert "shared-path" not in self._kinds(enc)

    def test_shared_path_only_after_an_earlier_kind(self):
        # The reference scans for shared paths whatever came before; on
        # corrupted encodings a shared path never comes alone, so validate,
        # which has no such scan, still judges every encoding as it does.
        rng = np.random.default_rng(19)
        shared = 0
        for _ in range(600):
            enc = st.encode(random_taxonomy(rng, max_classes=30, max_depth=5))
            n, L = enc.num_classes, enc.num_levels
            masks, paths = enc.masks.copy(), enc.paths.copy()
            for _ in range(int(rng.integers(1, 4))):
                if rng.integers(2) == 0:
                    masks[rng.integers(L), rng.integers(n)] ^= True
                else:
                    paths[rng.integers(n), rng.integers(L)] = rng.integers(-2, n + 1)
            bad = self._rebuild(enc, masks=masks, paths=paths)
            kinds = [kind for kind, _, _ in oracles.validate_reference(bad)]
            assert st.validate(bad).ok == (kinds == [])
            if "shared-path" in kinds:
                shared += 1
                assert kinds[0] != "shared-path"
            if not kinds:
                for c in range(n):
                    (row,) = np.flatnonzero(~masks[:, c])
                    assert masks[row, paths[c, : bad.level_of[c]]].all()
        assert shared > 50

    def test_reports_match_the_whole_matrix_reference(self):
        # Seeded corruptions as above: every report must equal the
        # reference's, kind, where, message and order alike, less the two
        # kinds that only repeat others.
        rng = np.random.default_rng(23)
        kinds = set()
        for _ in range(1200):
            enc = st.encode(random_taxonomy(rng, max_classes=30, max_depth=5))
            n, L = enc.num_classes, enc.num_levels
            masks, paths = enc.masks.copy(), enc.paths.copy()
            for _ in range(int(rng.integers(0, 4))):
                if rng.integers(2) == 0:
                    masks[rng.integers(L), rng.integers(n)] ^= True
                else:
                    paths[rng.integers(n), rng.integers(L)] = rng.integers(-2, n + 1)
            bad = self._rebuild(enc, masks=masks, paths=paths)
            got = [(v.kind, v.where, v.message) for v in st.validate(bad).violations]
            want = oracles.validate_reference(bad)
            assert got == [t for t in want if t[0] not in ("level-mismatch", "shared-path")]
            unmasked = {where for kind, where, _ in got if kind == "unmask-count"}
            for kind, where, _ in want:
                assert kind != "level-mismatch" or where in unmasked
            kinds.update(kind for kind, _, _ in got)
        assert kinds == {
            "unmask-count", "path-range", "path-pad-tail", "path-endpoint", "prefix",
        }

    def test_messages_are_one_based(self, toy_encoding):
        paths = toy_encoding.paths.copy()
        paths[6, 0] = 55
        enc = self._rebuild(toy_encoding, paths=paths)
        report = st.validate(enc)
        assert any("row 7" in line for line in report.lines())

    def test_shape_mismatch_rejected_on_construction(self, toy_encoding):
        with pytest.raises(st.ParameterError):
            self._rebuild(toy_encoding, masks=toy_encoding.masks[:, :5].copy())

    def test_path_entry_that_wraps_in_int32_rejected(self, toy_encoding):
        paths = toy_encoding.paths.astype(np.int64)
        paths[4, 0] = 2**32 + 1  # would wrap to root 2, its true value
        with pytest.raises(st.ParameterError, match="paths entry 4294967297"):
            self._rebuild(toy_encoding, paths=paths)
        with pytest.raises(st.ParameterError, match="paths must be an integer array"):
            self._rebuild(toy_encoding, paths=toy_encoding.paths.astype(np.float64))

    def test_non_boolean_masks_rejected(self, toy_encoding):
        masks = np.where(toy_encoding.masks, 5, 0)  # would cast to the same bits
        with pytest.raises(st.ParameterError, match="masks must be a boolean"):
            self._rebuild(toy_encoding, masks=masks)

    def test_fixed_memory_at_c08(self, full_scale_tree):
        # Blocks of path rows; whole (n, L) temporaries peaked at 7.1 MB.
        # level_of (0.47 MB) is derived inside, as on a checked read.
        enc = full_scale_tree["encoding"]
        fresh = st.TreeEncoding(masks=enc.masks, paths=enc.paths)
        tracemalloc.start()
        try:
            report = st.validate(fresh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.ok
        assert peak <= 2_000_000


class TestStorage:
    def test_toy_closed_form(self, toy_encoding):
        assert st.storage_bytes(toy_encoding, 1, 8) == 243

    def test_formula(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            enc = st.encode(random_taxonomy(rng, max_classes=200))
            expected = (1 + 8) * enc.num_levels * enc.num_classes
            assert st.storage_bytes(enc, 1, 8) == expected
            assert st.storage_bytes(enc, 1, 4) == (1 + 4) * enc.num_levels * enc.num_classes

    def test_measured_is_sum_of_buffers(self, toy_encoding):
        expected = (
            toy_encoding.masks.nbytes
            + toy_encoding.paths.nbytes
            + toy_encoding.level_of.nbytes
        )
        assert st.measured_bytes(toy_encoding) == expected

    def test_bad_element_sizes(self, toy_encoding):
        with pytest.raises(st.ParameterError):
            st.storage_bytes(toy_encoding, 0, 8)
        with pytest.raises(st.ParameterError):
            st.storage_bytes(toy_encoding, 1, -1)


def shaped_forests(rng, count):
    """``count`` forests of up to 200 classes: in turn random ones, roots
    only, single chains and wide fans (one root over every other class)."""
    for i in range(count):
        n = int(rng.integers(1, 201))
        parents = np.full(n, -1)
        if i % 4 == 0:
            yield random_taxonomy(rng, max_classes=200, max_depth=6)
            continue
        if i % 4 == 2:
            chain = rng.permutation(n)
            parents[chain[1:]] = chain[:-1]
        elif i % 4 == 3:
            root = int(rng.integers(n))
            parents[:] = root
            parents[root] = -1
        yield st.Taxonomy(parents=parents)


class TestLevelLayout:
    def test_toy_layout(self, toy_encoding):
        # Paths in lexicographic order: 1, 1-3, 1-4, 1-4-7, 1-4-8, 1-4-9, 2,
        # 2-5, 2-6. The toy's classes are already in level order.
        order, starts, up, rank, *_, col = toy_encoding._layout
        np.testing.assert_array_equal(order, np.arange(9))
        np.testing.assert_array_equal(starts, [0, 2, 6, 9])
        np.testing.assert_array_equal(up, [-1, -1, 0, 0, 1, 1, 3, 3, 3])
        np.testing.assert_array_equal(rank, [0, 6, 1, 2, 7, 8, 3, 4, 5])
        np.testing.assert_array_equal(col, [0, 1, 2, 3, 4, 5, 6, 7, 8, -1])

    def test_matches_definition_on_random_forests(self):
        rng = np.random.default_rng(17)
        for tax in shaped_forests(rng, 240):
            enc = st.encode(tax)
            order, starts, up, rank, *_, col = enc._layout
            for d in range(enc.num_levels):
                np.testing.assert_array_equal(
                    order[starts[d] : starts[d + 1]], np.flatnonzero(enc.level_of == d)
                )
            parents = tax.parents[order]
            has = parents >= 0
            assert (up[~has] == -1).all()
            np.testing.assert_array_equal(order[up[has]], parents[has])
            paths = [tuple(oracles.path_of(tax.parents, c)) for c in order]
            lex = sorted(range(enc.num_classes), key=paths.__getitem__)
            np.testing.assert_array_equal(rank[lex], np.arange(enc.num_classes))
            np.testing.assert_array_equal(col[order], np.arange(enc.num_classes))
            assert col.size == enc.num_classes + 1 and col[st.NO_PARENT] == -1

    def test_rank_is_the_lexsort_on_the_benchmark_trees(self, full_scale_tree):
        spec = st.SyntheticTreeSpec(10_000, 8, seed=0)
        small = st.encode(st.generate_synthetic(spec))
        # A fresh copy, so the session's c08 encoding keeps no layout.
        for enc in (small, dataclasses.replace(full_scale_tree["encoding"])):
            rank = np.empty(enc.num_classes, dtype=np.intp)
            rank[np.lexsort(enc.paths.T[::-1])] = np.arange(enc.num_classes)
            np.testing.assert_array_equal(enc._layout.rank, rank[enc._layout.order])

    def test_arrays_are_read_only(self, toy_encoding):
        for a in toy_encoding._layout:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[...] = 0

    def test_children_index(self):
        rng = np.random.default_rng(18)
        for _ in range(20):
            enc = st.encode(random_taxonomy(rng, max_classes=200, max_depth=6))
            up, ptr, kids = enc._layout.up, enc._layout.ptr, enc._layout.kids
            assert len(ptr) == enc.num_classes + 1
            np.testing.assert_array_equal(kids[: ptr[0]], np.flatnonzero(up == -1))
            for j in range(enc.num_classes):
                np.testing.assert_array_equal(
                    kids[ptr[j] : ptr[j + 1]], np.flatnonzero(up == j)
                )

    def test_children_index_is_read_only(self, toy_encoding):
        ptr, kids = toy_encoding._layout.ptr, toy_encoding._layout.kids
        # Columns 0, 1 and 3 have children (2-3, 4-5 and 6-8).
        np.testing.assert_array_equal(ptr, [2, 4, 6, 6, 9, 9, 9, 9, 9, 9])
        np.testing.assert_array_equal(kids, np.arange(9))
        for a in (ptr, kids):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[...] = 0

    def test_equality_and_bytes_ignore_it(self, toy_taxonomy):
        a, b = st.encode(toy_taxonomy), st.encode(toy_taxonomy)
        data = st.serialize(a)
        assert a._layout is a._layout
        assert a == b and b == a
        assert st.serialize(a) == data

    def test_not_computed_by_encode_read_or_validate(self, toy_taxonomy, tmp_path):
        enc = st.encode(toy_taxonomy)
        assert st.validate(enc).ok
        p = tmp_path / "toy.enc"
        fileio.write_encoding(enc, p)
        read = fileio.read_encoding(p, check=True)
        assert "_layout" not in vars(enc)
        assert "_layout" not in vars(read)

    def test_replace_gets_a_fresh_layout(self, toy_encoding):
        old = toy_encoding._layout
        # 7, 8 and 9 under 3 in place of 4.
        other = st.encode(st.Taxonomy(parents=[-1, -1, 0, 0, 1, 1, 2, 2, 2]))
        new = dataclasses.replace(toy_encoding, masks=other.masks, paths=other.paths)
        assert "_layout" not in vars(new)
        assert "_layout" not in vars(dataclasses.replace(toy_encoding))
        for got, want in zip(new._layout, other._layout):
            np.testing.assert_array_equal(got, want)
        assert not np.array_equal(new._layout.up, old.up)


class TestDerivedLevels:
    def test_first_unmasked_row_of_each_column(self):
        rng = np.random.default_rng(29)
        for _ in range(40):
            L, n = (int(x) for x in rng.integers(1, 8, size=2))
            masks = rng.random((L, n)) < 0.7
            masks[:, 0] = True  # masked everywhere: row 0
            if L > 1:
                masks[:, -1] = [False, False] + [True] * (L - 2)  # unmasked twice
            enc = st.TreeEncoding(masks=masks, paths=np.zeros((n, L), dtype=np.int32))
            expected = []
            for c in range(n):
                rows = [l for l in range(L) if not masks[l, c]]
                expected.append(rows[0] if rows else 0)
            assert enc.level_of.dtype == np.int32
            np.testing.assert_array_equal(enc.level_of, expected)

    def test_derived_below_the_masks_at_c08(self, full_scale_tree):
        # The argmin over all of masks made a transposed copy of it.
        enc = full_scale_tree["encoding"]
        fresh = st.TreeEncoding(masks=enc.masks, paths=enc.paths)
        tracemalloc.start()
        try:
            level_of = fresh.level_of
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < enc.masks.nbytes
        np.testing.assert_array_equal(level_of, np.argmin(enc.masks, axis=0))

    def test_read_only(self, toy_encoding):
        level_of = toy_encoding.level_of
        assert not level_of.flags.writeable
        with pytest.raises(ValueError):
            level_of[0] = 2
        with pytest.raises(dataclasses.FrozenInstanceError):
            toy_encoding.level_of = np.zeros(9, dtype=np.int32)
        assert toy_encoding.level_of is level_of

    def test_not_computed_by_encode_or_an_unchecked_read(self, toy_taxonomy, tmp_path):
        enc = st.encode(toy_taxonomy)
        assert "level_of" not in vars(enc)
        p = tmp_path / "toy.enc"
        fileio.write_encoding(enc, p)
        assert "level_of" not in vars(fileio.read_encoding(p, check=False))
        assert "level_of" not in vars(enc)

    def test_equality_and_bytes_ignore_it(self, toy_taxonomy):
        a, b = st.encode(toy_taxonomy), st.encode(toy_taxonomy)
        data = st.serialize(b)
        a.level_of
        assert "level_of" in vars(a) and "level_of" not in vars(b)
        assert a == b and b == a
        assert st.serialize(a) == data

    def test_replace_gets_a_fresh_value(self, toy_encoding):
        assert toy_encoding.level_of[4] == 1
        masks = toy_encoding.masks.copy()
        masks[:, 4] = [False, True, True]  # class 5 moves up to the root level
        new = dataclasses.replace(toy_encoding, masks=masks)
        assert "level_of" not in vars(new)
        np.testing.assert_array_equal(new.level_of, [0, 0, 1, 1, 0, 1, 2, 2, 2])

    @pytest.mark.parametrize(
        "masks, paths",
        [
            (np.zeros((3, 0), dtype=bool), np.zeros((0, 3), dtype=np.int32)),
            (np.zeros((0, 4), dtype=bool), np.zeros((4, 0), dtype=np.int32)),
            (np.zeros(4, dtype=bool), np.zeros(4, dtype=np.int32)),
            (np.zeros((2, 3), dtype=bool), np.zeros((2, 3), dtype=np.int32)),
        ],
        ids=["no-classes", "no-levels", "1-d", "transposed"],
    )
    def test_constructor_refuses_bad_shapes(self, masks, paths):
        with pytest.raises(st.ParameterError):
            st.TreeEncoding(masks=masks, paths=paths)


class TestDisplayIds:
    def test_round_trip(self):
        a = np.array([[0, 3, -1], [2, -1, -1]])
        shown = st.display_ids(a)
        np.testing.assert_array_equal(shown, [[1, 4, -1], [3, -1, -1]])


class TestSerialization:
    def test_round_trip_toy(self, toy_encoding):
        assert st.deserialize(st.serialize(toy_encoding)) == toy_encoding

    def test_round_trip_random(self):
        rng = np.random.default_rng(16)
        for _ in range(15):
            enc = st.encode(random_taxonomy(rng, max_classes=300))
            assert st.deserialize(st.serialize(enc)) == enc

    def test_header_layout(self, toy_encoding):
        data = st.serialize(toy_encoding)
        magic, version, n, levels = struct.unpack_from("<4sHII", data)
        assert magic == b"HTRE"
        assert version == 1
        assert (n, levels) == (9, 3)

    def test_paths_stored_one_based(self, toy_encoding):
        data = st.serialize(toy_encoding)
        offset = struct.calcsize("<4sHII") + 3 * 9
        disk = np.frombuffer(data, dtype="<i4", count=27, offset=offset)
        np.testing.assert_array_equal(disk.reshape(9, 3), TOY_PATHS_DISPLAY)

    def test_bad_magic(self, toy_encoding):
        data = bytearray(st.serialize(toy_encoding))
        data[:4] = b"XXXX"
        with pytest.raises(st.FormatError, match="magic"):
            st.deserialize(bytes(data))

    def test_bad_version(self, toy_encoding):
        data = bytearray(st.serialize(toy_encoding))
        data[4:6] = struct.pack("<H", 9)
        with pytest.raises(st.FormatError, match="version"):
            st.deserialize(bytes(data))

    def test_truncated(self, toy_encoding):
        data = st.serialize(toy_encoding)
        with pytest.raises(st.FormatError):
            st.deserialize(data[:-3])
        with pytest.raises(st.FormatError):
            st.deserialize(data[:8])

    def test_trailing_bytes(self, toy_encoding):
        with pytest.raises(st.FormatError):
            st.deserialize(st.serialize(toy_encoding) + b"\x00")

    def test_mask_byte_out_of_range(self, toy_encoding):
        data = bytearray(st.serialize(toy_encoding))
        data[struct.calcsize("<4sHII")] = 2
        with pytest.raises(st.FormatError, match="mask"):
            st.deserialize(bytes(data))

    def test_path_id_out_of_range(self, toy_encoding):
        data = bytearray(st.serialize(toy_encoding))
        offset = struct.calcsize("<4sHII") + 3 * 9
        data[offset : offset + 4] = struct.pack("<i", 99)
        with pytest.raises(st.FormatError, match="path"):
            st.deserialize(bytes(data))

    def test_zero_dimension(self):
        with pytest.raises(st.FormatError):
            st.deserialize(struct.pack("<4sHII", b"HTRE", 1, 0, 3))

    def test_invalid_content_rejected_by_default(self, toy_encoding):
        paths = toy_encoding.paths.copy()
        paths[6, 0] = 1  # well-formed stream, broken prefix invariant
        bad = st.TreeEncoding(masks=toy_encoding.masks.copy(), paths=paths)
        data = st.serialize(bad)
        with pytest.raises(st.FormatError, match="invalid"):
            st.deserialize(data)
        loaded = st.deserialize(data, check=False)
        assert not st.validate(loaded).ok
