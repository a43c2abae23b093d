"""Threefold invariant catalogs.

A catalog is a plain UTF-8 text file of key = value records, one record per
blank-line-separated paragraph, integers in decimal (ASCII digits after an
optional '-'), booleans spelled true or false, full-line comments starting
with '#'.  Unknown keys are errors: silent drift between a file and the
evaluator is worse than a loud parse failure.
Records whose subcanonical degree is present are cross-checked against the
derived invariants on load.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .invariants import ThreefoldInvariants, derive_subcanonical_invariants

__all__ = [
    "CatalogError",
    "CatalogRecord",
    "default_catalog",
    "loads_catalog",
    "load_catalog",
    "dumps_catalog",
    "find_record",
]

_REQUIRED = ("name", "alpha", "beta", "a_adj", "b_adj")
_INT_KEYS = ("alpha", "beta", "a_adj", "b_adj", "subcanonical_e", "h3")
_BOOL_KEYS = ("pic_is_z", "is_linear_p2_bundle", "is_quadric", "is_p3")
_ALL_KEYS = _REQUIRED + ("subcanonical_e", "h3", "provenance") + _BOOL_KEYS


class CatalogError(ValueError):
    """A malformed or inconsistent catalog, with the offending line."""


@dataclass(frozen=True)
class CatalogRecord:
    invariants: ThreefoldInvariants
    provenance: str = ""

    @property
    def name(self) -> str:
        return self.invariants.name


def _parse_bool(raw: str, line_no: int) -> bool:
    if raw == "true":
        return True
    if raw == "false":
        return False
    raise CatalogError(f"line {line_no}: booleans must be 'true' or 'false', got {raw!r}")


def _parse_int(raw: str, key: str, line_no: int) -> int:
    # int() alone would also take a sign '+', underscores and non-ASCII digits
    digits = raw[1:] if raw.startswith("-") else raw
    if not (digits.isascii() and digits.isdigit()):
        raise CatalogError(f"line {line_no}: '{key}' must be a decimal integer")
    return int(raw)


def _build_record(fields: dict[str, tuple[str, int]], first_line: int) -> CatalogRecord:
    for key in _REQUIRED:
        if key not in fields:
            raise CatalogError(f"record starting at line {first_line}: missing key '{key}'")
    kwargs = {}
    for key, (raw, line_no) in fields.items():
        if key == "name" or key == "provenance":
            kwargs[key] = raw
        elif key in _INT_KEYS:
            kwargs[key] = _parse_int(raw, key, line_no)
        else:
            kwargs[key] = _parse_bool(raw, line_no)
    provenance = kwargs.pop("provenance", "")
    inv = ThreefoldInvariants(**kwargs)
    e = inv.subcanonical_e
    try:
        inv.validate()
        derived = None if e is None else derive_subcanonical_invariants(e)
    except ValueError as exc:
        raise CatalogError(f"record starting at line {first_line}: {exc}") from None
    stated = (inv.alpha, inv.beta, inv.a_adj, inv.b_adj)
    if derived not in (None, stated):
        raise CatalogError(
            f"record starting at line {first_line}: invariants {stated} disagree "
            f"with {derived} derived from subcanonical e = {e}"
        )
    return CatalogRecord(invariants=inv, provenance=provenance)


def loads_catalog(text: str) -> tuple[CatalogRecord, ...]:
    records: list[CatalogRecord] = []
    fields: dict[str, tuple[str, int]] = {}
    first_line = 0
    names: set[str] = set()

    def flush():
        nonlocal fields
        if not fields:
            return
        rec = _build_record(fields, first_line)
        if rec.name in names:
            raise CatalogError(
                f"record starting at line {first_line}: duplicate name '{rec.name}'"
            )
        names.add(rec.name)
        records.append(rec)
        fields = {}

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            flush()
            continue
        if line.startswith("#"):
            continue
        if "=" not in line:
            raise CatalogError(f"line {line_no}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _ALL_KEYS:
            raise CatalogError(f"line {line_no}: unknown key '{key}'")
        if not fields:
            first_line = line_no
        if key in fields:
            raise CatalogError(f"line {line_no}: duplicate key '{key}' in one record")
        fields[key] = (value, line_no)
    flush()
    return tuple(records)


def load_catalog(path: str | Path) -> tuple[CatalogRecord, ...]:
    return loads_catalog(Path(path).read_text(encoding="utf-8"))


def dumps_catalog(records: tuple[CatalogRecord, ...] | list[CatalogRecord]) -> str:
    """Serialize records deterministically; load(dumps(r)) == r, byte for byte.

    A name or provenance that its line cannot hold raises CatalogError.
    """
    chunks = []
    for rec in records:
        inv = rec.invariants
        for key, value in (("name", inv.name), ("provenance", rec.provenance)):
            if value != value.strip() or len(value.splitlines()) > 1:
                raise CatalogError(f"{key} {value!r} has surrounding whitespace or a line break")
        lines = [
            f"name = {inv.name}",
            f"alpha = {inv.alpha}",
            f"beta = {inv.beta}",
            f"a_adj = {inv.a_adj}",
            f"b_adj = {inv.b_adj}",
        ]
        if inv.subcanonical_e is not None:
            lines.append(f"subcanonical_e = {inv.subcanonical_e}")
        if inv.h3 is not None:
            lines.append(f"h3 = {inv.h3}")
        for key in _BOOL_KEYS:
            if getattr(inv, key):
                lines.append(f"{key} = true")
        if rec.provenance:
            lines.append(f"provenance = {rec.provenance}")
        chunks.append("\n".join(lines))
    return "\n\n".join(chunks) + "\n"


def find_record(records, name: str) -> CatalogRecord:
    for rec in records:
        if rec.name == name:
            return rec
    known = ", ".join(sorted(r.name for r in records))
    raise KeyError(f"no catalog entry named '{name}' (have: {known})")


def _hypersurface(name: str, degree: int) -> CatalogRecord:
    e = degree - 5
    alpha, beta, a_adj, b_adj = derive_subcanonical_invariants(e)
    inv = ThreefoldInvariants(
        name=name,
        alpha=alpha,
        beta=beta,
        a_adj=a_adj,
        b_adj=b_adj,
        subcanonical_e=e,
        h3=degree,
        pic_is_z=True,
        is_quadric=degree == 2,
    )
    return CatalogRecord(
        invariants=inv,
        provenance=f"smooth degree-{degree} hypersurface in P^4; K = {e}H by adjunction; "
        f"H^3 = {degree}; Pic = Z by Lefschetz",
    )


def default_catalog() -> tuple[CatalogRecord, ...]:
    """The built-in examples: the quadric through the sextic, plus a bundle template."""
    entries = [
        _hypersurface("quadric", 2),
        _hypersurface("cubic", 3),
        _hypersurface("quartic", 4),
        _hypersurface("quintic", 5),
        _hypersurface("sextic", 6),
        CatalogRecord(
            invariants=ThreefoldInvariants(
                name="p2-bundle-template",
                alpha=4,
                beta=1,
                a_adj=4,
                b_adj=1,
                is_linear_p2_bundle=True,
            ),
            provenance="template for a linear P^2-bundle: alpha = a_adj = 4 is forced "
            "by the bundle structure; beta and b_adj here are placeholders, replace "
            "them with the values of your bundle",
        ),
    ]
    for rec in entries:
        rec.invariants.validate()
    return tuple(entries)
