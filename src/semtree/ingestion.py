"""Reading, writing and generating class forests.

The on-disk form is a plain text edge list with 1-based class ids: a
line with a single id declares a root, a line with ``child parent``
declares an edge, ``#`` starts a comment. Ids must be contiguous from 1
so they can double as array indices.

``parse_edge_list`` reads a file, or an iterable's elements joined as
lines, as one text, and the lines that start in each range of about
``tree._BLOCK_ENTRIES`` characters as a block on one thread per CPU, so
the per-character and per-token arrays exist for one block per thread;
the records of all blocks (a line, two ids and a fault flag each) are
then joined and matched, and only an error reads its line's block again.

``generate_synthetic`` builds trees of a requested size and depth for
benchmarks: a spine guarantees one class per level, every other class
attaches below it, with every eligible parent equally likely. Its draws
are those of ``np.random.default_rng(seed)``, read from the bit
generator's raw words (``_draws``).
"""

import bisect
import itertools
import os
import re
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Union

import numpy as np

from . import transforms
from .errors import (
    DanglingEdge,
    EdgeListError,
    MultipleParents,
    ParameterError,
    SemtreeError,
)
from .transforms import _check_count
from .tree import NO_PARENT, Taxonomy, class_depths


class MultiParentResolution(NamedTuple):
    """One dropped parent assignment (0-based ids, NO_PARENT for a root line)."""

    child: int
    kept: int
    dropped: int


class ParsedTaxonomy(NamedTuple):
    taxonomy: Taxonomy
    resolutions: tuple[MultiParentResolution, ...]


# Non-ASCII whitespace, turned into spaces before the text becomes an
# array of character codes.
_NON_ASCII_SPACE = re.compile(r"[^\S\x00-\x7f]")
# int() values at or above _BIG get codes above it that keep their order;
# every id of at most _MAX_DIGITS digits lies below it.
_BIG = 1 << 62
_MAX_DIGITS = 18


def _char_codes(text: str) -> np.ndarray:
    """One uint8 per character of ``text``; non-ASCII characters become
    a space (whitespace) or ``?`` (anything else)."""
    if not text.isascii():
        text = _NON_ASCII_SPACE.sub(" ", text)
    return np.frombuffer(text.encode("ascii", "replace"), dtype=np.uint8)


def _token_values(text, codes, space, starts, stops):
    """Each token's id as an int64 code, which parsed, and the ids of
    ``_BIG`` and above as (token, id) pairs.

    Each token's last ``_MAX_DIGITS`` characters are read as digits by
    Horner's rule, one array step per digit position. Tokens that are
    longer or hold a character other than an ASCII digit then go through
    ``int()`` one by one, so they are accepted or refused exactly as
    ``int()`` does; values below 1 become at most 0 and those of ``_BIG``
    and above ``_BIG``, until the caller ranks them.
    """
    digits = codes - np.uint8(ord("0"))
    first = np.maximum(starts, stops - _MAX_DIGITS)
    values = np.zeros(starts.size, dtype=np.int64)
    pos = np.empty_like(stops)
    for back in range(int((stops - first).max(initial=0)), 0, -1):
        np.subtract(stops, back, out=pos)
        values *= 10
        values += np.where(pos >= first, digits.take(pos, mode="clip"), 0)
    odd = np.flatnonzero(~space & (digits > 9))
    plain = (stops - starts) <= _MAX_DIGITS
    plain[np.searchsorted(starts, odd, side="right") - 1] = False
    ok = np.ones(starts.size, dtype=bool)
    bigs = []
    for i in np.flatnonzero(~plain).tolist():
        try:
            value = int(text[starts[i] : stops[i]])
        except ValueError:
            ok[i], value = False, 0
        if value >= _BIG:
            bigs.append((i, value))
        values[i] = min(max(value, -1), _BIG)
    return values, ok, bigs


def _read_block(text):
    """The records of one block of whole lines, ``text``, its comments cut.

    Per non-blank line (a record): its line within the block, the value
    codes of its first two tokens (the second 0 for a bare id), and
    whether it has more than two tokens or either of its first two is not
    an id of at least 1. Then the block's line separator count and
    its ids of ``_BIG`` and above as (record, 0 for the child or 1 for
    the parent, id).
    """
    codes = _char_codes(text)
    # The ASCII characters str.split() splits on: \t to \r, \x1c to space.
    space = (codes - np.uint8(9) <= 4) | (codes - np.uint8(28) <= 4)
    ends = np.flatnonzero(codes == ord("\n"))
    bounds = np.diff(space.view(np.int8), prepend=np.int8(1), append=np.int8(1))
    starts = np.flatnonzero(bounds == -1).astype(np.int32)
    stops = np.flatnonzero(bounds == 1).astype(np.int32)
    del bounds
    values, ok, bigs = _token_values(text, codes, space, starts, stops)
    del codes, space, stops
    token_line = np.searchsorted(ends, starts).astype(np.int32)
    head = np.flatnonzero(np.diff(token_line, prepend=-1))
    fields = np.diff(head, append=starts.size)
    second = np.minimum(head + 1, starts.size - 1)  # in bounds for a last bare id
    bad = ~ok | (values < 1)
    paired = fields >= 2
    key = np.where(paired, values[second], 0)
    faulty = (fields > 2) | bad[head] | (paired & bad[second])
    huge = []
    for i, value in bigs:  # a third token or later only ever faults its line
        r = int(np.searchsorted(head, i, side="right")) - 1
        if i - head[r] < 2:
            huge.append((r, int(i - head[r]), value))
    records = [token_line[head], values[head], key, faulty]
    return records, ends.size, huge


def _text(source):
    """An edge list as one text: a file's, or an iterable's elements joined
    as lines, as ``parse_edge_list`` reads them."""
    if isinstance(source, (str, bytes, os.PathLike)):
        try:
            with open(source, "r", encoding="utf-8") as f:
                return f.read()
        except UnicodeDecodeError as e:  # its object is the whole file
            line = len(e.object[: e.start + 1].splitlines())  # at \r, \n and \r\n
            name = os.fsdecode(source)
            raise EdgeListError(f"{name}: line {line} is not UTF-8") from None
    lines = list(source)
    try:  # str.replace refuses any element that is not a str
        return "\n".join([str.replace(line, "\n", " ") for line in lines])
    except TypeError:
        i = next(i for i, line in enumerate(lines) if not isinstance(line, str))
        raise ParameterError(
            f"edge list element {i + 1} must be a str, got {type(lines[i]).__name__}"
        ) from None


def _records(source):
    """The records of an edge list, as ``_read_block`` gives them but with
    line numbers from the start of the source and the ids of ``_BIG`` and
    above ranked over the whole source as ``_BIG + i`` for ``big[i]``, then
    ``big`` and ``words(r)``, the tokens of record r's line, from its block.

    ``transforms._for_row_blocks`` cuts the ``_text`` as rows of one
    character (at least one: an empty text is one empty block), a block
    the lines that start in its rows, and their records are joined.
    """
    text = _text(source)

    def line_start(at):  # the first line start at or after ``at``
        return at and (text.find("\n", at - 1) + 1 or len(text))

    def block(lo, hi):
        part = text[line_start(lo) : line_start(hi)]
        return re.sub(r"#[^\n]*", "", part) if "#" in part else part

    spans, blocks, line_counts, bigs = zip(
        *transforms._for_row_blocks(
            max(1, len(text)), 1, lambda lo, hi: ((lo, hi), *_read_block(block(lo, hi)))
        )
    )
    first = np.cumsum([0] + [b[0].size for b in blocks])  # each block's first record
    before = np.cumsum([0, *line_counts])  # and its first line
    joined = []
    for i in range(4):  # a field at a time, so no record is held twice
        joined.append(np.concatenate([b[i] for b in blocks]))
        for b in blocks:
            b[i] = None
    line, child, key, faulty = joined
    for lo, hi, at in zip(first[:-1], first[1:], before):
        line[lo:hi] += at
    # Codes that keep the order of the ids of _BIG and above, over all blocks.
    big = sorted({value for huge in bigs for *_, value in huge})
    for lo, huge in zip(first.tolist(), bigs):
        for r, i, value in huge:
            (child, key)[i][lo + r] = _BIG + bisect.bisect_left(big, value)

    def words(r):
        k = int(np.searchsorted(first, r, side="right")) - 1
        return block(*spans[k]).split("\n")[line[r] - before[k]].split()

    return line, child, key, faulty, big, words


def parse_edge_list(
    source: Union[str, bytes, os.PathLike, Iterable[str]],
    policy: str = "first",
) -> ParsedTaxonomy:
    """Parse an edge list into a taxonomy.

    ``policy`` decides what happens when a class is assigned more than
    one parent: ``"first"`` keeps the earliest assignment and records
    the others, ``"reject"`` raises ``MultipleParents``. Exact duplicate
    lines are an error under either policy.

    A file (a ``str``, ``bytes`` or path-like name) is read once, as UTF-8
    text with universal newlines; an iterable's elements, which must be
    ``str`` (else ``ParameterError``), are joined as lines, an element's own
    newlines read as spaces. The lines that start in each character range of
    the text are read as a block on one thread per CPU: comments are cut
    from a block before array passes over its character codes find its
    tokens, their lines, values and every fault, with Python only for tokens
    ``int()`` must judge (signs, underscores, non-ASCII digits, over 18
    digits). Each line keeps its number, first two ids and a fault flag,
    matched by child id through a table of the ids unless one exceeds the
    number of lines. An error names the earliest faulty line, 1-based, with
    the fault a line-by-line reading would meet first there, read back from
    its block; then come an empty list, an undeclared parent and a gap in
    the ids, in that order. A non-UTF-8 file is refused first, naming its
    first bad byte's line.
    """
    if policy not in ("first", "reject"):
        raise ParameterError(f"unknown multi-parent policy {policy!r}")
    line, child, key, faulty, big, words = _records(source)

    m = child.size
    if m and child.max() > m:  # a gap in the ids: only a sort can match them
        ids, slot = np.unique(child, return_inverse=True)
    else:  # the ids index a table; faulty records' codes -1 and 0 share slot 0
        ids, slot = None, np.maximum(child, 0)
    count = np.bincount(slot)
    shared = np.flatnonzero(count[slot] > 1)  # records whose child others share
    first_of = np.arange(m)  # the record that first declared each child
    if shared.size:
        _, at, back = np.unique(slot[shared], return_index=True, return_inverse=True)
        first_of[shared] = shared[at][back]
    moved = shared[first_of[shared] != shared]  # the records that repeat a child
    repeat = np.zeros(m, dtype=bool)
    repeat[moved] = True
    duplicate = np.zeros(m, dtype=bool)
    duplicate[moved] = key[moved] == key[first_of[moved]]
    fault = faulty | duplicate
    if policy == "reject":
        fault |= repeat
    # A record's flags depend only on earlier records, and those before the
    # first flagged one are sound, so it is where the line loop would stop.
    if fault.any():
        r = int(np.argmax(fault))
        raise _line_error(
            int(line[r]) + 1, words(r), bool(key[first_of[r]]), bool(duplicate[r])
        )

    if not m:
        raise EdgeListError("edge list declares no classes")
    declared = ~repeat
    keys = key[declared]
    if ids is None:  # a key past the table is no id
        known = np.append(count, 0).take(keys, mode="clip") > 0
        ids = np.flatnonzero(count)
    else:
        known = np.isin(keys, ids)
    dangling = (keys > 0) & ~known
    if dangling.any():
        r = np.flatnonzero(declared)[np.argmax(keys == keys[dangling].min())]
        named_child, named_parent = map(int, words(r))
        raise DanglingEdge(
            f"parent {named_parent} of class {named_child} is never declared "
            f"as a class"
        )
    n = ids.size
    if ids[-1] != n:
        missing = int(np.argmax(ids != np.arange(1, n + 1))) + 1
        raise EdgeListError(
            f"class ids must be contiguous from 1: {n} classes declared "
            f"but id {missing} is missing"
        )

    parents = np.full(n, NO_PARENT, dtype=np.int32)
    parents[child[declared] - 1] = keys - 1  # a root's key 0 becomes NO_PARENT
    class_depths(parents)  # raises CyclicTaxonomy on a loop
    resolutions = map(
        MultiParentResolution._make,
        zip(
            (child[moved] - 1).tolist(),
            (key[first_of[moved]] - 1).tolist(),
            # A dropped parent of _BIG or more has the code of its id.
            [big[k - _BIG] - 1 if k >= _BIG else k - 1 for k in key[moved].tolist()],
        ),
    )
    return ParsedTaxonomy(
        taxonomy=Taxonomy(parents=parents),
        resolutions=tuple(resolutions),
    )


def _line_error(
    lineno: int, words: list[str], had_parent: bool, duplicate: bool
) -> SemtreeError:
    """The error the line-by-line reading raises on line ``lineno``.

    ``words`` are the line's tokens, its comment cut; ``had_parent`` tells
    whether the child's first declaration named a parent, and
    ``duplicate`` whether this line repeats it exactly.
    """
    if len(words) > 2:
        return EdgeListError(
            f"line {lineno}: expected 'child parent' or a bare root id, "
            f"got {len(words)} fields"
        )
    ids = []
    for token in words:
        try:
            value = int(token)
        except ValueError:
            return EdgeListError(f"line {lineno}: {token!r} is not an integer class id")
        if value < 1:
            return EdgeListError(f"line {lineno}: class ids start at 1, got {value}")
        ids.append(value)
    if duplicate:
        return EdgeListError(f"line {lineno}: duplicate declaration of class {ids[0]}")
    return MultipleParents(
        f"line {lineno}: class {ids[0]} already has "
        f"{'a parent' if had_parent else 'a root line'}, cannot also assign "
        f"{'parent ' + str(ids[1]) if len(ids) == 2 else 'root'}"
    )


def write_edge_list(taxonomy: Taxonomy, path: Union[str, os.PathLike]) -> None:
    """Write a taxonomy back out as a 1-based edge list.

    One line per class: ``child`` for a root, ``child<TAB>parent``
    otherwise.
    """
    with open(path, "w", encoding="utf-8") as f:
        for child, parent in enumerate(taxonomy.parents.tolist(), 1):
            if parent == NO_PARENT:
                f.write(f"{child}\n")
            else:
                f.write(f"{child}\t{parent + 1}\n")


@dataclass(frozen=True)
class SyntheticTreeSpec:
    """Shape of a generated forest."""

    num_classes: int
    num_levels: int
    seed: int = 0


# Raw words taken from the bit generator at a time, so that no list of
# one word per class is held.
_CHUNK = 4096
_LOW = (1 << 32) - 1


def _draws(seed: int, chunk: int = _CHUNK):
    """``(random, integers)``: the values that ``random()`` and
    ``integers(s)`` (for ``1 <= s <= 2**32``) of
    ``np.random.default_rng(seed)`` return, called in the same order,
    without a call into the ``Generator`` per draw.

    This relies on numpy's behaviour since 1.17: ``default_rng`` is
    PCG64, whose 64-bit words ``random_raw`` gives, and
    - ``random()`` is one whole word ``w``: ``(w >> 11) * 2.0**-53``;
    - ``integers(1)`` draws nothing;
    - any other ``integers(s)`` takes 32-bit halves, the low half of a
      word first and its high half kept for the next such draw (a
      ``random()`` between them leaves it kept), and applies Lemire's
      method: ``m = x * s`` is accepted when ``m % 2**32`` is at least
      ``(2**32 - s) % s``, else the next half is tried, and the result
      is ``m >> 32``.
    The trees pinned in the tests fail if a release changes any of it.
    """
    bitgen = np.random.default_rng(seed).bit_generator
    # An endless stream of words, taken ``chunk`` at a time as Python ints.
    next_word = itertools.chain.from_iterable(
        iter(lambda: bitgen.random_raw(chunk).tolist(), None)
    ).__next__
    half = None

    def random() -> float:
        return (next_word() >> 11) * 2.0**-53

    def integers(s: int) -> int:
        nonlocal half
        if s == 1:
            return 0
        while True:
            if half is None:
                word = next_word()
                x, half = word & _LOW, word >> 32
            else:
                x, half = half, None
            m = x * s
            # The threshold is below s, so only a rare low part below s
            # needs it worked out.
            if m & _LOW >= s or m & _LOW >= ((1 << 32) - s) % s:
                return m >> 32

    return random, integers


def generate_synthetic(spec: SyntheticTreeSpec) -> Taxonomy:
    """Generate a deterministic random tree with the requested dimensions.

    Classes ``0..num_levels-1`` form a spine with one class per level,
    so the encoding of the result always has exactly ``num_levels``
    levels; the rest attach at random to classes above the deepest
    level. Identical specs yield identical taxonomies: each class takes
    one ``random()`` for its depth and one ``integers()`` for its parent,
    the draws of ``np.random.default_rng(seed)`` read from the bit
    generator's raw words (see ``_draws``). Counts that
    are not integers of at least 1, a seed that is not an integer of at
    least 0, or fewer classes than levels raise ``ParameterError``.
    """
    n, L = spec.num_classes, spec.num_levels
    _check_count("number of classes", n)
    _check_count("number of levels", L)
    _check_count("seed", spec.seed, 0)
    if n < L:
        raise ParameterError(
            f"cannot reach depth {L} with only {n} classes"
        )
    parents = np.full(n, NO_PARENT, dtype=np.int32)
    if L == 1:
        return Taxonomy(parents=parents)  # a forest of roots
    parents[1:L] = np.arange(L - 1)

    random, integers = _draws(spec.seed)
    # pools[d] holds the classes at depth d that may still take children
    # (only depths up to L-2 may, so no child ever exceeds depth L-1);
    # bounds[d] counts the classes in pools 0..d. A class joins a deep
    # pool far more often than a shallow one, so keeping the counts costs
    # less than summing the pools again for each class.
    pools: list[list[int]] = [[d] for d in range(L - 1)]
    bounds = list(range(1, L))
    # Each class draws a depth weighted by its pool's size, then a class of
    # that pool, so every eligible parent is equally likely. One draw over
    # all of them would do the same, but give other trees for each seed.
    for c in range(L, n):
        d = bisect.bisect_right(bounds, random() * bounds[-1])
        pool = pools[d]
        parents[c] = pool[integers(len(pool))]
        if d + 1 <= L - 2:
            pools[d + 1].append(c)
            for j in range(d + 1, L - 1):
                bounds[j] += 1
    return Taxonomy(parents=parents)
