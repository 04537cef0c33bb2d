"""Edge list parsing and the synthetic tree generator."""

import hashlib
import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

import oracles
from helpers import TOY_EDGE_LINES, TOY_PARENTS, random_taxonomy
from semtree import (
    CyclicTaxonomy,
    DanglingEdge,
    EdgeListError,
    MultipleParents,
    ParameterError,
    SemtreeError,
    SyntheticTreeSpec,
    Taxonomy,
    class_depths,
    encode,
    generate_synthetic,
    ingestion,
    parse_edge_list,
    transforms,
    write_edge_list,
)


class TestParseEdgeList:
    def test_toy_lines(self):
        parsed = parse_edge_list(TOY_EDGE_LINES)
        np.testing.assert_array_equal(parsed.taxonomy.parents, TOY_PARENTS)
        assert parsed.resolutions == ()

    def test_from_file(self, tmp_path):
        p = tmp_path / "edges.txt"
        p.write_text("\n".join(TOY_EDGE_LINES) + "\n")
        for source in (p, str(p), os.fsencode(p)):  # as open() takes a name
            parsed = parse_edge_list(source)
            np.testing.assert_array_equal(parsed.taxonomy.parents, TOY_PARENTS)

    def test_comments_and_blank_lines(self):
        lines = ["# a comment", "", "1", "2 1  # trailing comment", "   "]
        parsed = parse_edge_list(lines)
        np.testing.assert_array_equal(parsed.taxonomy.parents, [-1, 0])

    def test_spaces_or_tabs(self):
        for sep in (" ", "\t", "   "):
            parsed = parse_edge_list(["1", f"2{sep}1"])
            np.testing.assert_array_equal(parsed.taxonomy.parents, [-1, 0])

    def test_every_whitespace_str_split_knows_separates_ids(self):
        spaces = [chr(c) for c in range(0x110000) if chr(c).isspace()]
        for sep in spaces:
            parsed = parse_edge_list(["1", f"2{sep}1{sep}"])
            np.testing.assert_array_equal(parsed.taxonomy.parents, [-1, 0])
        with pytest.raises(EdgeListError, match="not an integer"):
            parse_edge_list(["1", "2\u200b1"])  # zero-width space is not whitespace

    def test_declaration_order_is_free(self):
        parsed = parse_edge_list(["2 1", "1"])
        np.testing.assert_array_equal(parsed.taxonomy.parents, [-1, 0])

    def test_duplicate_edge(self):
        with pytest.raises(EdgeListError, match="duplicate"):
            parse_edge_list(["1", "2 1", "2 1"])

    def test_duplicate_root_line(self):
        with pytest.raises(EdgeListError, match="duplicate"):
            parse_edge_list(["1", "1"])

    def test_too_many_fields(self):
        with pytest.raises(EdgeListError, match="fields"):
            parse_edge_list(["1 2 3"])

    def test_non_integer(self):
        with pytest.raises(EdgeListError, match="integer"):
            parse_edge_list(["one"])

    def test_zero_id(self):
        with pytest.raises(EdgeListError, match="start at 1"):
            parse_edge_list(["0"])

    def test_empty_input(self):
        with pytest.raises(EdgeListError):
            parse_edge_list(["# nothing here"])

    def test_undeclared_parent(self):
        with pytest.raises(DanglingEdge, match="parent 3"):
            parse_edge_list(["1", "2 3"])

    def test_gap_in_ids(self):
        with pytest.raises(EdgeListError, match="contiguous"):
            parse_edge_list(["1", "3 1"])

    def test_cycle(self):
        with pytest.raises(CyclicTaxonomy):
            parse_edge_list(["1 2", "2 1"])

    def test_self_edge(self):
        with pytest.raises(CyclicTaxonomy):
            parse_edge_list(["1 1"])

    def test_unknown_policy(self):
        with pytest.raises(ParameterError):
            parse_edge_list(["1"], policy="vote")

    def test_empty_sources(self, tmp_path):
        p = tmp_path / "empty.txt"
        p.write_text("")
        for source in ([], iter(()), p):
            with pytest.raises(EdgeListError, match="declares no classes"):
                parse_edge_list(source)

    def test_generator_read_once(self):
        parsed = parse_edge_list(line for line in TOY_EDGE_LINES)
        np.testing.assert_array_equal(parsed.taxonomy.parents, TOY_PARENTS)

    @pytest.mark.parametrize(
        "lines, at, kind",
        [([b"1", b"2 1"], 1, "bytes"), (["1", 2], 2, "int"), ([None], 1, "NoneType")],
    )
    def test_elements_that_are_not_str(self, lines, at, kind):
        for source in (lines, (line for line in lines)):
            with pytest.raises(
                ParameterError, match=f"^edge list element {at} must be a str, got {kind}$"
            ):
                parse_edge_list(source)

    # (bytes before the first bad one, its 1-based line): \r alone, \n and
    # \r\n each end a line, and the last case lies past the read buffers.
    @pytest.mark.parametrize(
        "head, line",
        [
            (b"", 1),
            (b"1\n2 ", 2),
            (b"1\r2 1\r", 3),
            (b"1\r\n2 1\r\n", 3),
            (b"1\r\r\n2 1\n\n3 1", 5),
            (b"1\n" + b"2 1\r" * 20_000, 20_002),
        ],
    )
    @pytest.mark.parametrize("bad", [b"\xff", b"\xc3(", b"\xe2\x82"])
    def test_file_that_is_not_utf8(self, tmp_path, head, line, bad):
        p = tmp_path / "edges.txt"
        p.write_bytes(head + bad + b"\n9 1\n")
        for source in (p, str(p), os.fsencode(p)):
            with pytest.raises(EdgeListError) as info:
                parse_edge_list(source)
            assert str(info.value) == f"{p}: line {line} is not UTF-8"


class TestMultiParent:
    LINES = ["1", "2", "3 1", "3 2"]

    def test_first_policy_keeps_first(self):
        parsed = parse_edge_list(self.LINES, policy="first")
        np.testing.assert_array_equal(parsed.taxonomy.parents, [-1, -1, 0])
        assert len(parsed.resolutions) == 1
        res = parsed.resolutions[0]
        assert (res.child, res.kept, res.dropped) == (2, 0, 1)

    def test_reject_policy(self):
        with pytest.raises(MultipleParents):
            parse_edge_list(self.LINES, policy="reject")

    def test_root_line_counts_as_assignment(self):
        parsed = parse_edge_list(["1", "2", "2 1"], policy="first")
        np.testing.assert_array_equal(parsed.taxonomy.parents, [-1, -1])
        res = parsed.resolutions[0]
        assert (res.child, res.kept, res.dropped) == (1, -1, 0)

    def test_reject_names_the_line(self):
        with pytest.raises(MultipleParents, match="line 4"):
            parse_edge_list(self.LINES, policy="reject")


# Spellings int() reads as the same id, and tokens it refuses or that
# str.split() breaks apart.
_ARABIC_INDIC = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))
_SPELLINGS = [
    str,
    lambda v: "+" + str(v),
    lambda v: "00" + str(v),
    lambda v: "_".join(str(v)),
    lambda v: str(v).translate(_ARABIC_INDIC),
]
_ODD_TOKENS = [
    "0", "-0", "-3", "+7", "007", "1_0", "1__0", "_1", "x", "1.5", "0x1",
    "\u0663", "\uff17", "9" * 19, "1" + "0" * 18, "9223372036854775808",
    "1" * 5000, "-" + "9" * 19, "1#2",
]
_SEPARATORS = [" ", "\t", "  ", "\xa0", "\u2003", "\u3000", "\x0b", "\x0c", "\x1c", "\x85"]


@hs.composite
def edge_lists(draw):
    """Lines of a shuffled forest or a parent array with cycles, then
    duplicated, re-parented, dropped, respelled and commented lines."""
    n = draw(hs.integers(0, 9))
    forest = draw(hs.booleans())
    parents = [draw(hs.integers(-1, c - 1 if forest else n - 1)) for c in range(n)]
    perm = draw(hs.permutations(range(n)))
    rows = [
        [perm[c] + 1] + ([perm[p] + 1] if p != -1 else []) for c, p in enumerate(parents)
    ]
    rows = draw(hs.permutations(rows))
    ids = hs.integers(1, n + 1)
    for _ in range(draw(hs.integers(0, 5))):
        what = draw(hs.sampled_from(
            ["dup", "parent", "root", "drop", "odd", "extra", "comment", "blank", "gap"]
        ))
        at = draw(hs.integers(0, len(rows)))
        if what == "dup" and rows:
            rows.insert(at, list(draw(hs.sampled_from(rows))))
        elif what == "parent":
            rows.insert(at, [draw(ids), draw(ids)])
        elif what == "root":
            rows.insert(at, [draw(ids)])
        elif what == "drop" and rows:
            rows.pop(at % len(rows))
        elif what == "odd" and rows and rows[at % len(rows)]:
            row = rows[at % len(rows)]
            row[draw(hs.integers(0, len(row) - 1))] = draw(hs.sampled_from(_ODD_TOKENS))
        elif what == "extra" and rows:
            rows[at % len(rows)].append(draw(ids))
        elif what == "comment":
            rows.insert(at, ["#", draw(ids), "# 3 # 4"])
        elif what == "blank":
            rows.insert(at, [])
        elif what == "gap":
            rows.insert(at, [n + draw(hs.integers(2, 4))])
    lines = []
    for row in rows:
        words = [
            draw(hs.sampled_from(_SPELLINGS))(w) if isinstance(w, int) and w > 0 else str(w)
            for w in row
        ]
        seps = [draw(hs.sampled_from(_SEPARATORS)) for _ in words]
        line = "".join(w + s for w, s in zip(words, seps))
        if draw(hs.booleans()):
            line = draw(hs.sampled_from(_SEPARATORS)) + line
        if draw(hs.integers(0, 4)) == 0:
            line += "# tail 1 2 3"
        lines.append(line)
    return lines


def _outcome(parse, source, policy):
    try:
        parsed = parse(source, policy)
    except SemtreeError as e:
        return type(e), str(e)
    parents = parsed.taxonomy.parents
    return parents.dtype, parents.tolist(), parsed.resolutions


# A dropped parent of 2**62 or more, whose id the arrays hold as a code.
_HUGE_DROPPED = ["2 1", "1", "2 9999999999999999999", "3 1"]


# What the fuzz tests draw: edge lists, line ends, file or iterable, two
# elements merged into one and whether the last line ends.
PARSE_CASES = dict(
    lines=edge_lists(),
    ends=hs.lists(hs.sampled_from(["\n", "\r\n", "\r"]), min_size=1),
    as_file=hs.booleans(),
    merge=hs.integers(-1, 9),
    last_end=hs.booleans(),
)


def check_parse_matches_the_line_loop(lines, ends, as_file, merge, last_end):
    """The parse and the line loop agree under both policies, on the lines
    written to a file or given as an iterable."""
    if as_file:
        text = "".join(line + ends[i % len(ends)] for i, line in enumerate(lines))
        if not last_end and lines:
            text = text[: -len(ends[(len(lines) - 1) % len(ends)])]
        with tempfile.TemporaryDirectory() as tmp:
            source = os.path.join(tmp, "edges.txt")
            with open(source, "w", encoding="utf-8", newline="") as f:
                f.write(text)
            for policy in ("first", "reject"):
                assert _outcome(parse_edge_list, source, policy) == _outcome(
                    oracles.parse_edge_list_reference, source, policy
                )
        return
    lines = list(lines)
    if 0 <= merge < len(lines) - 1:
        # One element holding two lines still counts as one line.
        lines[merge : merge + 2] = [lines[merge] + ends[0] + lines[merge + 1]]
    if last_end:
        lines = [line + "\n" for line in lines]
    for policy in ("first", "reject"):
        assert _outcome(parse_edge_list, lines, policy) == _outcome(
            oracles.parse_edge_list_reference, lines, policy
        )


@settings(max_examples=400, deadline=None)
@given(**PARSE_CASES)
@example(lines=_HUGE_DROPPED, ends=["\n"], as_file=True, merge=-1, last_end=True)
@example(lines=_HUGE_DROPPED, ends=["\n"], as_file=False, merge=-1, last_end=False)
def test_parse_fuzz_matches_the_line_loop(lines, ends, as_file, merge, last_end):
    check_parse_matches_the_line_loop(lines, ends, as_file, merge, last_end)


@pytest.mark.parametrize("as_file", [True, False], ids=["file", "lines"])
def test_dropped_huge_parents_cut_no_comments_again(as_file, tmp_path, monkeypatch):
    # Each dropped parent of 2**62 or more was read back from its block,
    # its comments cut again each time: quadratic in such lines.
    k = 2000
    lines = [str(c) for c in range(1, k + 1)]
    lines += [f"{c} {2**62 + c} # {c}" for c in range(1, k + 1)]
    source = lines
    if as_file:
        source = tmp_path / "edges.txt"
        source.write_text("".join(line + "\n" for line in lines))
    want = oracles.parse_edge_list_reference(source, "first")
    cuts, blocks = [], []
    sub, read_block = ingestion.re.sub, ingestion._read_block

    def cut(*args, **kwargs):
        cuts.append(args[2])
        return sub(*args, **kwargs)

    def spy(text):
        blocks.append(text)
        return read_block(text)

    with monkeypatch.context() as patch:
        patch.setattr(ingestion.re, "sub", cut)
        patch.setattr(ingestion, "_read_block", spy)
        parsed = parse_edge_list(source, "first")
    assert 1 <= len(cuts) <= len(blocks)
    assert parsed.resolutions == want.resolutions
    assert len(parsed.resolutions) == k
    assert parsed.resolutions[-1].dropped == 2**62 + k - 1


def test_full_scale_parse_peak(full_scale_tree, tmp_path):
    # 117,659 classes over 20 levels: a 1.4 MB file. The line loop
    # peaked at 36 MB under tracemalloc.
    p = tmp_path / "c08.edges"
    write_edge_list(full_scale_tree["taxonomy"], p)
    tracemalloc.start()
    try:
        parsed = parse_edge_list(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert parsed.taxonomy == full_scale_tree["taxonomy"]
    assert peak < 32 << 20


def test_full_scale_parse_frees_what_it_has_tokenised(full_scale_tree, tmp_path):
    # The per-character and per-token arrays are freed before the records
    # are matched; all of them stayed live to the end at 28.2 MB.
    p = tmp_path / "c08.edges"
    write_edge_list(full_scale_tree["taxonomy"], p)
    tracemalloc.start()
    try:
        parsed = parse_edge_list(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert parsed.taxonomy == full_scale_tree["taxonomy"]
    assert peak < 26_000_000


def _traced_parse_peak(full_scale_tree, tmp_path, monkeypatch, threads):
    monkeypatch.setattr(transforms, "_workers", lambda: threads)
    p = tmp_path / "c08.edges"
    write_edge_list(full_scale_tree["taxonomy"], p)
    tracemalloc.start()
    try:
        parsed = parse_edge_list(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert parsed.taxonomy == full_scale_tree["taxonomy"]
    return peak


@pytest.mark.parametrize("threads", [1, 2])
def test_full_scale_parse_peak_within_13_mb(full_scale_tree, tmp_path, monkeypatch, threads):
    # One block of lines a thread is tokenised at a time, so on one or two
    # threads the matching sets the peak: the text, the records (21 B a
    # line) and the id table traced 12.6 MB, and 13.5 MB when a record
    # also kept its first token's offset and its token count. Tokenising
    # the whole text at once peaked at 22.0 MB.
    assert _traced_parse_peak(full_scale_tree, tmp_path, monkeypatch, threads) <= 13_000_000


@pytest.mark.parametrize("threads", [16])
def test_full_scale_parse_peak_within_16_mb(full_scale_tree, tmp_path, monkeypatch, threads):
    # On 16 threads the 1.4 MB text is cut into 16 blocks, and all of them
    # may be tokenised at once, each holding up to about 13 B a character.
    # Where they overlap the peak is theirs, not the matching's: 12.6 MB
    # on a quiet 2-vCPU host, up to 14.6 MB under load or with fast thread
    # switching.
    assert _traced_parse_peak(full_scale_tree, tmp_path, monkeypatch, threads) <= 16_000_000


def test_full_scale_parse_equal_on_any_thread_count(full_scale_tree, tmp_path, monkeypatch):
    # Two classes of the first block get a second parent in the last one.
    p = tmp_path / "c08.edges"
    write_edge_list(full_scale_tree["taxonomy"], p)
    with open(p, "a", encoding="utf-8") as f:
        f.write("5 1\n7 7000\n")
    want = _outcome(oracles.parse_edge_list_reference, p, "first")
    assert len(want[2]) == 2
    for threads in (1, 2, 3):
        monkeypatch.setattr(transforms, "_workers", lambda t=threads: t)
        assert _outcome(parse_edge_list, p, "first") == want


class TestWriteEdgeList:
    def test_round_trip_toy(self, tmp_path):
        p = tmp_path / "toy.txt"
        write_edge_list(Taxonomy(parents=TOY_PARENTS), p)
        parsed = parse_edge_list(p)
        np.testing.assert_array_equal(parsed.taxonomy.parents, TOY_PARENTS)

    def test_round_trip_random(self, tmp_path):
        rng = np.random.default_rng(51)
        for i in range(10):
            tax = random_taxonomy(rng, max_classes=150)
            p = tmp_path / f"t{i}.txt"
            write_edge_list(tax, p)
            assert parse_edge_list(p).taxonomy == tax

    def test_bytes_equal_one_write_per_class(self, tmp_path, full_scale_tree):
        rng = np.random.default_rng(53)
        trees = {
            "one": Taxonomy(parents=np.array([-1])),
            "toy": Taxonomy(parents=TOY_PARENTS),
            "roots": Taxonomy(parents=np.full(12, -1)),
            "random": random_taxonomy(rng, max_classes=1500),
            "c08": full_scale_tree["taxonomy"],
        }
        for name, tax in trees.items():
            got, want = tmp_path / f"{name}.got", tmp_path / f"{name}.want"
            write_edge_list(tax, got)
            oracles.write_edge_list_reference(tax, want)
            assert got.read_bytes() == want.read_bytes(), name

    def test_output_is_one_based(self, tmp_path):
        p = tmp_path / "ids.txt"
        write_edge_list(Taxonomy(parents=np.array([-1, 0])), p)
        assert p.read_text() == "1\n2\t1\n"


class TestGenerateSynthetic:
    def test_exact_dimensions(self):
        for n, L in [(10, 4), (500, 8), (64, 1), (5, 5)]:
            enc = encode(generate_synthetic(SyntheticTreeSpec(n, L, seed=2)))
            assert enc.num_classes == n
            assert enc.num_levels == L

    def test_deterministic(self):
        spec = SyntheticTreeSpec(300, 7, seed=9)
        assert generate_synthetic(spec) == generate_synthetic(spec)

    def test_seed_changes_tree(self):
        a = generate_synthetic(SyntheticTreeSpec(300, 7, seed=1))
        b = generate_synthetic(SyntheticTreeSpec(300, 7, seed=2))
        assert a != b

    def test_depth_never_exceeds_levels(self):
        tax = generate_synthetic(SyntheticTreeSpec(400, 5, seed=3))
        assert class_depths(tax.parents).max() == 4

    def test_spine_reaches_bottom(self):
        tax = generate_synthetic(SyntheticTreeSpec(50, 6, seed=4))
        depths = class_depths(tax.parents)
        np.testing.assert_array_equal(depths[:6], np.arange(6))

    def test_single_level_is_all_roots(self):
        tax = generate_synthetic(SyntheticTreeSpec(12, 1, seed=5))
        assert (tax.parents == -1).all()

    # The benchmark's two trees and the ones the tests build. Their parents
    # must stay byte for byte the same: the benchmark compares runs across
    # versions, and test expectations were written against these trees.
    @pytest.mark.parametrize(
        "n, L, seed, digest",
        [
            (117_659, 20, 0, "c88239158700a3b9dbec6ea42eae9c92d850ccd8208b0b09793866cc64e51727"),
            # Seed 4 is the only c08 tree of seeds 0-5 whose draws take a
            # Lemire rejection, so it pins _draws's rejection step.
            (117_659, 20, 4, "02c360d95401952f0d583549656b4d8271ab61dc717a8b0d357ef2ce200df67b"),
            (10_000, 8, 0, "36c38cebfc54b045b42b0d3a9c0b601439f446585e8e7a7ff13260dedcb56620"),
            (5000, 20, 3, "ba00557c97cf4e883403275111600a8b54dfbf76f577005b0a63b24437f12375"),
            (2500, 10, 2, "6298e0d1266116a9fadbeefc52a4be68451ef8b192c41adcaa3765715b0e41cf"),
            (1000, 20, 1, "c6c673a55cda3c83e9ed7001041e2cae2c601569f3206d2f84fedcfeb4a3013a"),
            (800, 10, 0, "dbaf293e29cb1f7bde7fd809b75e19a5042985c394d1affac5b976d70a73141a"),
            (400, 5, 3, "fcf1bff1c92ea226b7bc63bf1944a26e90888de580b6ed344b519a30cd12442c"),
            (300, 7, 9, "dce6ebd689445bab3e4cc7d4ab59703b2422f8175165dcd5e67c94dd7d29a312"),
            (300, 6, 8, "7e044d4bbe9d13fd62748b75b1ef5380827c44c65973cfc6aabff9d28a4fefe3"),
        ],
    )
    def test_trees_are_pinned(self, n, L, seed, digest):
        tax = generate_synthetic(SyntheticTreeSpec(n, L, seed=seed))
        assert hashlib.sha256(tax.parents.tobytes()).hexdigest() == digest

    @settings(max_examples=300, deadline=None)
    @given(data=hs.data(), seed=hs.integers(0, 2**32 - 1))
    def test_matches_the_reference_loop(self, data, seed):
        n = data.draw(hs.integers(1, 400), label="n")
        L = data.draw(hs.integers(1, min(n, 12)), label="L")
        tax = generate_synthetic(SyntheticTreeSpec(n, L, seed=seed))
        np.testing.assert_array_equal(
            tax.parents, oracles.generate_synthetic_reference(n, L, seed)
        )

    def test_draws_match_the_generator(self):
        # About half of all draws of 2**31 + 1 are rejected; a chunk of 7
        # words puts refills between and inside draws.
        sizes = [1, 2, 3, 117_659, 2**31 + 1, 3 * 2**30, 2**32 - 1]
        for seed in range(200):
            random, integers = ingestion._draws(seed, chunk=7)
            rng = np.random.default_rng(seed)
            # A half kept by integers() must survive the random() after it.
            assert integers(3) == rng.integers(3)
            assert random() == rng.random()
            assert integers(5) == rng.integers(5)
            pick = np.random.default_rng([seed, 1])
            for k in pick.integers(len(sizes) + 1, size=60):
                if k == len(sizes):
                    assert random() == rng.random()
                else:
                    assert integers(sizes[k]) == rng.integers(sizes[k])

    @pytest.mark.parametrize(
        "seed", [-1, 1.5, "3", True, None, np.float64(2.0), np.int64(-2)]
    )
    @pytest.mark.parametrize("L", [1, 4])
    def test_seeds_that_are_not_counts(self, seed, L):
        # seed=None gave another tree on each call; -1, 1.5 and "3" failed
        # inside numpy, and True passed as 1.
        with pytest.raises(ParameterError, match="seed must be an integer of at least 0"):
            generate_synthetic(SyntheticTreeSpec(50, L, seed=seed))

    def test_numpy_integer_seed(self):
        a = generate_synthetic(SyntheticTreeSpec(50, 4, seed=np.uint64(3)))
        assert a == generate_synthetic(SyntheticTreeSpec(50, 4, seed=3))

    def test_too_few_classes(self):
        with pytest.raises(ParameterError):
            generate_synthetic(SyntheticTreeSpec(3, 4))

    def test_bad_dimensions(self):
        with pytest.raises(ParameterError):
            generate_synthetic(SyntheticTreeSpec(0, 1))
        with pytest.raises(ParameterError):
            generate_synthetic(SyntheticTreeSpec(5, 0))

    @pytest.mark.parametrize("n, L", [(10.0, 3), (10, 3.0), (10, True), (True, 1)])
    def test_counts_that_are_not_integers(self, n, L):
        # (10.0, 3) failed inside numpy; (10, True) built a one-level forest.
        with pytest.raises(ParameterError, match="must be an integer of at least 1"):
            generate_synthetic(SyntheticTreeSpec(n, L))

    def test_encodings_are_valid(self):
        from semtree import validate

        for seed in range(5):
            enc = encode(generate_synthetic(SyntheticTreeSpec(800, 10, seed=seed)))
            assert validate(enc).ok
