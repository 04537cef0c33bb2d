"""Encoding construction, validation, and the binary encoding format."""

import struct

import numpy as np
import pytest

import semtree as st
import oracles
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


class TestValidate:
    def _rebuild(self, enc, **overrides):
        fields = dict(
            num_classes=enc.num_classes,
            num_levels=enc.num_levels,
            masks=enc.masks.copy(),
            paths=enc.paths.copy(),
            level_of=enc.level_of.copy(),
        )
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

    def test_level_out_of_range(self, toy_encoding):
        level_of = toy_encoding.level_of.copy()
        level_of[3] = 7
        enc = self._rebuild(toy_encoding, level_of=level_of)
        assert self._kinds(enc) == {"level-range"}

    def test_double_unmask(self, toy_encoding):
        masks = toy_encoding.masks.copy()
        masks[0, 5] = False  # class 6 also unmasked at the root level
        enc = self._rebuild(toy_encoding, masks=masks)
        assert "unmask-count" in self._kinds(enc)

    def test_masked_at_own_level(self, toy_encoding):
        masks = toy_encoding.masks.copy()
        masks[1, 4] = True
        enc = self._rebuild(toy_encoding, masks=masks)
        kinds = self._kinds(enc)
        assert "level-mismatch" in kinds and "unmask-count" in kinds

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
        # A two-class chain where the child is unmasked at the root level
        # alongside its own parent.
        enc = st.TreeEncoding(
            num_classes=2,
            num_levels=2,
            masks=np.array([[False, False], [True, False]]),
            paths=np.array([[0, -1], [0, 1]], dtype=np.int32),
            level_of=np.array([0, 1], dtype=np.int32),
        )
        kinds = {v.kind for v in st.validate(enc).violations}
        assert "shared-path" in kinds

    def test_messages_are_one_based(self, toy_encoding):
        paths = toy_encoding.paths.copy()
        paths[6, 0] = 55
        enc = self._rebuild(toy_encoding, paths=paths)
        report = st.validate(enc)
        assert any("row 7" in line for line in report.lines())

    def test_shape_mismatch_rejected_on_construction(self, toy_encoding):
        with pytest.raises(st.ParameterError):
            self._rebuild(toy_encoding, masks=toy_encoding.masks[:, :5].copy())


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


class TestDisplayIds:
    def test_round_trip(self):
        a = np.array([[0, 3, -1], [2, -1, -1]])
        shown = st.display_ids(a)
        np.testing.assert_array_equal(shown, [[1, 4, -1], [3, -1, -1]])
        np.testing.assert_array_equal(st.from_display(shown), a)


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
        bad = st.TreeEncoding(
            num_classes=9,
            num_levels=3,
            masks=toy_encoding.masks.copy(),
            paths=paths,
            level_of=toy_encoding.level_of.copy(),
        )
        data = st.serialize(bad)
        with pytest.raises(st.FormatError, match="invalid"):
            st.deserialize(data)
        loaded = st.deserialize(data, check=False)
        assert not st.validate(loaded).ok
