"""Catalog parsing, serialization, and the built-in entries."""

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from nlgotz.catalog import (
    CatalogError,
    CatalogRecord,
    default_catalog,
    dumps_catalog,
    find_record,
    load_catalog,
    loads_catalog,
    save_catalog,
)
from nlgotz.bounds import ThreefoldInvariants, derive_subcanonical_invariants


def test_default_catalog_entries():
    records = default_catalog()
    names = [r.name for r in records]
    assert names == ["quadric", "cubic", "quartic", "quintic", "sextic", "p2-bundle-template"]
    for rec in records:
        rec.invariants.validate()
    quadric = find_record(records, "quadric").invariants
    assert quadric.is_quadric and quadric.pic_is_z
    assert quadric.subcanonical_e == -3 and quadric.h3 == 2
    assert (quadric.alpha, quadric.beta, quadric.a_adj, quadric.b_adj) == (4, 1, 4, 1)
    quintic = find_record(records, "quintic").invariants
    assert quintic.subcanonical_e == 0 and quintic.h3 == 5
    assert (quintic.alpha, quintic.beta, quintic.a_adj, quintic.b_adj) == (1, 1, 1, 1)
    sextic = find_record(records, "sextic").invariants
    assert sextic.subcanonical_e == 1 and sextic.beta == 2 and sextic.a_adj == 0
    bundle = find_record(records, "p2-bundle-template").invariants
    assert bundle.is_linear_p2_bundle and bundle.alpha == 4
    assert bundle.subcanonical_e is None


def test_find_record_error_lists_names():
    with pytest.raises(KeyError) as exc:
        find_record(default_catalog(), "nosuch")
    assert "quintic" in str(exc.value)


def test_round_trip_and_determinism():
    records = default_catalog()
    text = dumps_catalog(records)
    again = loads_catalog(text)
    assert again == records
    assert dumps_catalog(again) == text
    assert text.endswith("\n") and not text.endswith("\n\n")


def test_save_and_load(tmp_path):
    path = tmp_path / "cat.txt"
    save_catalog(default_catalog(), path)
    assert load_catalog(path) == default_catalog()


def test_parse_comments_blank_lines_and_order():
    text = """
# leading comment
name = thing
alpha = 2
# interior comment survives nothing
beta = 1
a_adj = 2
b_adj = 1


name = other
beta = 1
alpha = 1
a_adj = 1
b_adj = 1
pic_is_z = true
"""
    records = loads_catalog(text)
    assert [r.name for r in records] == ["thing", "other"]
    assert records[1].invariants.pic_is_z is True
    assert records[0].invariants.pic_is_z is False


def _record_text(**overrides):
    fields = dict(name="x", alpha="1", beta="1", a_adj="1", b_adj="1")
    fields.update(overrides)
    return "\n".join(f"{k} = {v}" for k, v in fields.items())


def test_parse_errors_carry_line_numbers():
    with pytest.raises(CatalogError, match="line 2: unknown key 'colour'"):
        loads_catalog("name = x\ncolour = blue\n")
    with pytest.raises(CatalogError, match="line 6: booleans"):
        loads_catalog(_record_text(pic_is_z="yes"))
    with pytest.raises(CatalogError, match="line 2: 'alpha' must be a decimal integer"):
        loads_catalog(_record_text(alpha="two"))
    with pytest.raises(CatalogError, match="expected 'key = value'"):
        loads_catalog("name = x\njust words\n")
    with pytest.raises(CatalogError, match="line 2: duplicate key 'name'"):
        loads_catalog("name = x\nname = y\n")
    with pytest.raises(CatalogError, match="missing key 'b_adj'"):
        loads_catalog("name = x\nalpha = 1\nbeta = 1\na_adj = 1\n")


def test_duplicate_names_rejected():
    text = _record_text() + "\n\n" + _record_text(alpha="2")
    with pytest.raises(CatalogError, match="duplicate name 'x'"):
        loads_catalog(text)


def test_invalid_invariants_rejected_with_context():
    with pytest.raises(CatalogError, match="alpha must be >= 1"):
        loads_catalog(_record_text(alpha="0"))


def test_p2_bundle_with_alpha_other_than_4_rejected():
    with pytest.raises(CatalogError, match="record starting at line 1: .*alpha = 4"):
        loads_catalog(_record_text(alpha="2", is_linear_p2_bundle="true"))


def test_quadric_with_other_invariants_rejected():
    quadric = dict(alpha="4", beta="1", a_adj="4", b_adj="1", is_quadric="true")
    assert loads_catalog(_record_text(**quadric))[0].invariants.is_quadric
    with pytest.raises(CatalogError, match="record starting at line 1: .*quadric has K = -3H"):
        loads_catalog(_record_text(**{**quadric, "beta": "2"}))
    with pytest.raises(CatalogError, match="record starting at line 1: .*a_adj = 4 forces"):
        loads_catalog(_record_text(a_adj="4"))


def test_subcanonical_cross_check():
    # e = 0 derives (1, 1, 1, 1); stating alpha = 2 must be caught
    with pytest.raises(CatalogError, match="disagree"):
        loads_catalog(_record_text(alpha="2", subcanonical_e="0"))
    # and the consistent version loads
    records = loads_catalog(_record_text(subcanonical_e="0"))
    assert records[0].invariants.subcanonical_e == 0


def test_underivable_subcanonical_degree_names_the_record():
    # e = 2 passes validation but has no derived invariants
    text = "# header\n\n" + _record_text(subcanonical_e="2")
    with pytest.raises(CatalogError, match="record starting at line 3: .*e <= 1"):
        loads_catalog(text)


def test_provenance_is_preserved():
    rec = CatalogRecord(
        invariants=ThreefoldInvariants(name="y", alpha=1, beta=1, a_adj=1, b_adj=1),
        provenance="hand-entered for a test",
    )
    out = loads_catalog(dumps_catalog([rec]))
    assert out[0].provenance == "hand-entered for a test"


# one line of text a catalog value can hold: stripped, nonempty, no line break
_values = (
    st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")), min_size=1)
    .map(str.strip)
    .filter(lambda v: v and v.splitlines() == [v])
)
# every line boundary str.splitlines knows, alone or doubled
_breaks = st.sampled_from(
    ("\n", "\r", "\r\n", "\n\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85")
    + ("\u2028", "\u2029")
)
# values a line cannot hold: padded by a space, a tab or a break, or broken inside
_padding = st.one_of(st.sampled_from((" ", "\t")), _breaks)
_unwritable = st.one_of(
    st.builds(str.__add__, _values, _padding),
    st.builds(str.__add__, _padding, _values),
    st.builds(lambda head, brk, tail: head + brk + tail, _values, _breaks, _values),
)


def _writable(value):
    """A `key = value` line gives back exactly `value`: no padding, no second line."""
    return value.strip() == value and value.splitlines() in ([], [value])


@st.composite
def _records(draw, values):
    e = draw(st.one_of(st.none(), st.integers(-3, 1)))
    if e is None:
        alpha, beta, a_adj, b_adj = (draw(st.integers(lo, 4)) for lo in (1, 1, 0, 1))
    else:
        alpha, beta, a_adj, b_adj = derive_subcanonical_invariants(e)
    shape = draw(st.sampled_from(("plain", "quadric", "bundle")))
    inv = ThreefoldInvariants(
        name=draw(values),
        alpha=alpha,
        beta=beta,
        a_adj=a_adj,
        b_adj=b_adj,
        subcanonical_e=e,
        h3=draw(st.one_of(st.none(), st.integers(1, 10**6))),
        pic_is_z=draw(st.booleans()),
        is_linear_p2_bundle=shape == "bundle",
        is_quadric=shape == "quadric",
        is_p3=draw(st.booleans()),
    )
    try:
        inv.validate()
    except ValueError:
        assume(False)
    return CatalogRecord(inv, draw(st.one_of(st.just(""), values)))


# half the catalogs hold only writable values, half may hold the others too
_catalogs = st.sampled_from((_values, st.one_of(_values, _unwritable))).flatmap(
    lambda values: st.lists(_records(values), max_size=4, unique_by=lambda rec: rec.name)
)


@given(_catalogs.map(tuple))
def test_dumps_then_loads_is_the_identity(records):
    if all(_writable(rec.name) and _writable(rec.provenance) for rec in records):
        assert loads_catalog(dumps_catalog(records)) == records
    else:
        # loads would trim, split or reject these values, so dumps refuses them
        with pytest.raises(CatalogError, match="surrounding whitespace or a line break"):
            dumps_catalog(records)


_INT_KEYS = ("alpha", "beta", "a_adj", "b_adj", "subcanonical_e", "h3")
_BOOL_KEYS = ("pic_is_z", "is_linear_p2_bundle", "is_quadric", "is_p3")
# (key, new value) replaces a value, (key, None) drops the key;
# subcanonical_e has a branch of its own, so that records often reach the
# cross-check against the derived invariants
_edits = st.one_of(
    st.tuples(st.just("subcanonical_e"), st.integers(-6, 6).map(str)),
    st.tuples(st.sampled_from(_INT_KEYS), st.integers(-6, 6).map(str)),
    st.tuples(st.sampled_from(_BOOL_KEYS), st.sampled_from(("true", "false", "yes"))),
    st.tuples(
        st.sampled_from(_INT_KEYS + _BOOL_KEYS + ("name", "provenance", "colour")), st.text()
    ),
    st.tuples(st.sampled_from(("name", "alpha", "beta", "a_adj", "b_adj")), st.none()),
)


@st.composite
def _catalog_texts(draw):
    """Paragraphs that start from a valid record and then get a few edits."""
    paragraphs = []
    for k in range(draw(st.integers(1, 3))):
        fields = dict(name=f"x{k}", alpha="1", beta="1", a_adj="1", b_adj="1")
        for key, value in draw(st.lists(_edits, max_size=3)):
            fields[key] = value
        lines = [f"{key} = {value}" for key, value in fields.items() if value is not None]
        if draw(st.booleans()):
            lines.append(draw(st.one_of(st.just("# comment"), st.text())))
        paragraphs.append("\n".join(draw(st.permutations(lines))))
    return "\n\n".join(paragraphs)


@given(st.one_of(_catalog_texts(), st.text()))
def test_fuzzed_text_raises_only_catalog_errors(text):
    try:
        loads_catalog(text)
    except CatalogError:
        pass
