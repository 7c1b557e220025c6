import random

import pytest

from fracube.core import (
    CUBE_GROUP,
    Digit,
    DigitSet,
    _cell_permutations,
    _image,
    _orbit_images,
    apply_isometry,
    canonical_code,
    canonical_form,
    cell_index,
    digit_from_cell,
    parse_digitset,
    transform_code,
)
from fracube.errors import DuplicateDigit, InternalInconsistency, OutOfRange, ParseError

PLUS = "011_101_110_111_112_121_211"


def random_digitset(rng, n=3, size=7):
    return DigitSet.from_code(sum(1 << c for c in rng.sample(range(n ** 3), size)), n=n)


def test_cell_index_examples():
    assert cell_index(Digit(0, 0, 0), 3) == 0
    assert cell_index(Digit(2, 2, 2), 3) == 26
    assert cell_index(Digit(1, 0, 2), 3) == 19


def test_cell_index_bijection():
    for n in (2, 3, 4, 5):
        seen = {cell_index(digit_from_cell(c, n), n) for c in range(n ** 3)}
        assert seen == set(range(n ** 3))


def test_parse_compact_matches_listing():
    ds = parse_digitset("020_101_110_111_112_121_202")
    assert {tuple(d) for d in ds.digits} == {
        (0, 2, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1), (1, 1, 2), (1, 2, 1), (2, 0, 2)}
    cells = [cell_index(d, 3) for d in ds.digits]
    assert cells == sorted(cells)


def test_parse_braced_equals_compact():
    a = parse_digitset("{(0,2,0), (1,0,1), (1,1,0), (1,1,1), (1,1,2), (1,2,1), (2,0,2)}")
    b = parse_digitset("020_101_110_111_112_121_202")
    assert a == b
    # whitespace tolerance
    c = parse_digitset(" { (0,2,0),(1,0,1),(1,1,0),(1,1,1),(1,1,2),(1,2,1),(2,0,2) } ")
    assert c == b


def test_equal_sets_hash_equal():
    rows = [((0, 2, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1), (1, 1, 2), (1, 2, 1), (2, 0, 2)),
            ((0, 0, 0), (1, 1, 1)), ((3, 0, 1), (0, 3, 3), (2, 2, 0))]
    for digits in rows:
        n = 4 if any(3 in d for d in digits) else 3
        forms = [DigitSet.from_digits(reversed(digits), n=n),
                 DigitSet.from_code(DigitSet.from_digits(digits, n=n).code, n=n),
                 parse_digitset("_".join("".join(map(str, d)) for d in digits), n=n),
                 parse_digitset("{" + ", ".join(str(d) for d in digits) + "}", n=n)]
        assert len(set(forms)) == 1
        assert len({hash(ds) for ds in forms}) == 1
    # the same code at another order is another set
    assert DigitSet.from_code(3, n=3) != DigitSet.from_code(3, n=4)


def test_parse_singleton():
    assert parse_digitset("000").digits == (Digit(0, 0, 0),)


def test_parse_errors():
    with pytest.raises(DuplicateDigit):
        parse_digitset("000_000_111")
    with pytest.raises(OutOfRange):
        parse_digitset("003")
    with pytest.raises(ParseError):
        parse_digitset("00_111")
    with pytest.raises(ParseError):
        parse_digitset("\u00b200_111")  # superscript two: isdigit() but not int()
    with pytest.raises(ParseError):
        parse_digitset("{(0,0,0), nonsense}")
    with pytest.raises(ParseError):
        parse_digitset("")
    with pytest.raises(OutOfRange):
        parse_digitset("021", n=2)
    with pytest.raises(ParseError, match="unbalanced braces"):
        parse_digitset("{(0,0,0)")
    with pytest.raises(ParseError, match="at least one digit"):
        DigitSet.from_digits([])


def _reference_digits(digits, n: int) -> DigitSet:
    """A digit set through a dict of cells: each digit checked in turn, then sorted by cell index."""
    seen: dict[int, Digit] = {}
    for raw in digits:
        d = Digit(*raw)
        if not all(0 <= c < n for c in d):
            raise OutOfRange(f"digit {d} out of range for order {n}")
        c = cell_index(d, n)
        if c in seen:
            raise DuplicateDigit(f"digit {d} listed twice")
        seen[c] = d
    if not seen:
        raise ParseError("digit set must contain at least one digit")
    cells = sorted(seen)
    return DigitSet(n=n, digits=tuple(seen[c] for c in cells), code=sum(1 << c for c in cells))


def _reference_tokens(text: str) -> list[tuple[int, int, int]]:
    """The compact literal's tokens, one digit tuple each, character by character."""
    s = text.strip()
    if not s:
        raise ParseError("empty digit-set literal")
    digits = []
    for token in s.split("_"):
        if len(token) != 3 or not token.isdecimal():
            raise ParseError(f"malformed digit token {token!r}")
        digits.append(tuple(int(ch) for ch in token))
    return digits


def _outcome(build, *args):
    try:
        return build(*args)
    except (OutOfRange, DuplicateDigit, ParseError) as exc:
        return type(exc), str(exc)


def test_digit_checks_match_the_reference():
    # both literal forms and DigitSet.from_digits give the same digit set,
    # or the same error class and text, as the dict-of-cells reference
    cases = [("000_000_111", 3), ("003", 3), ("00_111", 3), ("\u00b200_111", 3), ("", 3),
             ("021", 2), ("000", 3), ("020_101_110_111_112_121_202", 3), (" 202_020 ", 3),
             ("000_900_00x", 3), ("110_330_110", 3), ("110_011_110_330", 4), ("_", 3),
             ("\uff11\uff10\uff10_000", 3), ("444_000", 5), ("444_000", 4)]
    rng = random.Random(13)
    for n in (2, 3, 4, 5):
        for _ in range(20):
            ds = random_digitset(rng, n=n, size=rng.randrange(1, min(n ** 3, 12)))
            digits = [f"{d.x}{d.y}{d.z}" for d in ds.digits]
            rng.shuffle(digits)
            cases.append(("_".join(digits), n))
            cases.append(("_".join(digits + digits[:1]), n))
    outcomes = []
    for text, n in cases:
        got = _outcome(parse_digitset, text, n)
        tokens = _outcome(_reference_tokens, text)
        if isinstance(tokens, list):
            assert got == _outcome(_reference_digits, tokens, n), (text, n)
            assert _outcome(DigitSet.from_digits, tokens, n) == got, (text, n)
            braced = "{" + ", ".join(f"({x},{y},{z})" for x, y, z in tokens) + "}"
            assert _outcome(parse_digitset, braced, n) == got, (text, n)
        else:
            assert got == tokens, (text, n)
        outcomes.append(got)
    errors = {got[0] for got in outcomes if not isinstance(got, DigitSet)}
    assert errors == {OutOfRange, DuplicateDigit, ParseError}
    assert _outcome(DigitSet.from_digits, [], 3) == _outcome(_reference_digits, [], 3)


def test_render_round_trip():
    rng = random.Random(11)
    for _ in range(50):
        ds = random_digitset(rng)
        assert parse_digitset(ds.render_compact()) == ds
        assert parse_digitset(ds.render_braced()) == ds
    small = random_digitset(rng, n=2, size=3)
    assert parse_digitset(small.render_compact(), n=2) == small


def test_group_has_48_distinct_elements():
    assert len(CUBE_GROUP) == 48
    assert len({(g.perm, g.flips) for g in CUBE_GROUP}) == 48


def test_group_closure_and_inverses():
    # the program reads the group through its cell tables: they hold the identity and are
    # closed under composition, and in a finite set closure gives the inverses
    for n in (2, 3):
        tables = {tuple(t) for t in _cell_permutations(n)}
        assert len(tables) == 48
        assert tuple(range(n ** 3)) in tables
        for g in tables:
            for h in tables:
                assert tuple(g[c] for c in h) in tables


def test_group_action_is_faithful_on_cells():
    # distinct group elements act differently on the 27 cells
    images = {tuple(transform_code(i, 1 << c, 3) for c in range(27)) for i in range(48)}
    assert len(images) == 48


def test_apply_isometry_examples():
    ds = parse_digitset("020_101_110_111_112_121_202")
    assert apply_isometry(CUBE_GROUP[0], ds) == ds
    flip_x = next(g for g in CUBE_GROUP if g.perm == (0, 1, 2) and g.flips == (True, False, False))
    assert apply_isometry(flip_x, parse_digitset("000")) == parse_digitset("200")
    plus = parse_digitset(PLUS)
    for g in CUBE_GROUP:
        assert apply_isometry(g, plus) == plus


def test_apply_isometry_preserves_size_and_inverts():
    rng = random.Random(3)
    tables = _cell_permutations(3)
    for _ in range(20):
        ds = random_digitset(rng)
        for i in rng.sample(range(48), 6):
            img = apply_isometry(CUBE_GROUP[i], ds)
            assert len(img) == len(ds)
            # the inverse is the element whose cell table undoes CUBE_GROUP[i]'s
            inv = next(g for g, t in zip(CUBE_GROUP, tables) if all(t[c] == j for j, c in enumerate(tables[i])))
            assert apply_isometry(inv, img) == ds


def test_offsets_map_to_offsets():
    offsets = [(a, b, c) for a in (-1, 0, 1) for b in (-1, 0, 1) for c in (-1, 0, 1)
               if (a, b, c) != (0, 0, 0)]
    for g in CUBE_GROUP:
        assert sorted(g.apply_offset(v) for v in offsets) == sorted(offsets)


def test_canonical_form_examples(monkeypatch):
    plus = canonical_form(parse_digitset(PLUS))
    assert plus.orbit_size == 1 and plus.stabilizer_size == 48

    corner = canonical_form(parse_digitset("000"))
    assert corner.canonical == parse_digitset("000")
    assert corner.orbit_size == 8
    # an image list that breaks orbit x stabilizer = 48 must not become a canonical form
    images = _orbit_images(1, 3)
    images[-1] = images[0]
    monkeypatch.setattr("fracube.core._orbit_images", lambda code, n: images)
    with pytest.raises(InternalInconsistency, match=r"orbit \d+ x stabilizer \d+ != 48"):
        canonical_form(parse_digitset("000"))


def test_canonical_form_invariance_and_idempotence():
    rng = random.Random(17)
    for _ in range(25):
        ds = random_digitset(rng)
        cf = canonical_form(ds)
        assert cf.orbit_size * cf.stabilizer_size == 48
        assert apply_isometry(cf.witness, ds) == cf.canonical
        again = canonical_form(cf.canonical)
        assert again.canonical == cf.canonical
        for g in CUBE_GROUP:
            assert canonical_form(apply_isometry(g, ds)).canonical == cf.canonical


def test_canonical_code_matches_canonical_form():
    rng = random.Random(23)
    for _ in range(50):
        ds = random_digitset(rng)
        assert canonical_code(ds.code, 3) == canonical_form(ds).canonical.code


def test_cell_permutations_follow_apply_digit():
    rng = random.Random(29)
    for n in (2, 3, 4, 5):
        cells = range(n ** 3)
        for g, table in zip(CUBE_GROUP, _cell_permutations(n)):
            assert table == [cell_index(g.apply_digit(digit_from_cell(c, n), n), n) for c in cells]
        for _ in range(5):
            ds = random_digitset(rng, n=n, size=rng.randint(1, n ** 3))
            for i, g in enumerate(CUBE_GROUP):
                assert transform_code(i, ds.code, n) == apply_isometry(g, ds).code


def test_slice_tables_match_the_48_images():
    # canonical_code and canonical_form read the packed slice tables; the
    # reference moves the code by every cell permutation
    rng = random.Random(31)
    stabilizers = set()
    for n in (2, 3, 4, 5):
        # every entry of every table: the same 9-bit value in each slice
        mask = (1 << n ** 3) - 1
        for code in {sum(v << lo for lo in range(0, n ** 3, 9)) & mask for v in range(1, 512)}:
            assert _orbit_images(code, n) == [_image(table, code) for table in _cell_permutations(n)]
        for size in range(1, n ** 3 + 1):
            code = random_digitset(rng, n=n, size=size).code
            # and the union of its images under the powers of one element, which that element fixes
            g = rng.randrange(48)
            sym, img = code, transform_code(g, code, n)
            while img != code:
                sym |= img
                img = transform_code(g, img, n)
            for ds in (DigitSet.from_code(code, n=n), DigitSet.from_code(sym, n=n)):
                images = [_image(table, ds.code) for table in _cell_permutations(n)]
                best = min(images)
                assert canonical_code(ds.code, n) == best
                cf = canonical_form(ds)
                assert cf.canonical.code == best
                assert cf.orbit_size == len(set(images))
                assert cf.stabilizer_size == images.count(ds.code)
                assert cf.witness == CUBE_GROUP[images.index(best)]
                stabilizers.add(cf.stabilizer_size)
    assert len(stabilizers) >= 5


def test_from_code_validation():
    with pytest.raises(OutOfRange):
        DigitSet.from_code(0)
    with pytest.raises(OutOfRange):
        DigitSet.from_code(1 << 27, n=3)
    with pytest.raises(OutOfRange):
        DigitSet.from_digits([(0, 0, 0)], n=7)
