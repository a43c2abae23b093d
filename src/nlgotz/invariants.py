"""The four regularity invariants of a threefold, defined once.

Y is a smooth projective threefold, H a very ample divisor on it, and
K_Y its canonical class.  Every floor in `nlgotz.bounds` is computed from
four integers:

    alpha   the smallest alpha >= 1 with K_Y + alpha H very ample
    beta    the smallest beta >= 1 with beta H - K_Y very ample
    a_adj   the adjoint-side alpha: the smallest a >= 0 with K_Y + a H very
            ample (0 is allowed, K_Y itself may be very ample)
    b_adj   the adjoint-side step, >= 1; b_adj = 1 suffices for every
            subcanonical Y in range (e <= 1 below), the sextic included

(alpha, beta) serve the (-d)-regular family of line bundles and
(a_adj, b_adj) the adjoint bundles L = K_Y + dH + A with A nef: each pair
(a, b) gives n = floor((d + 3 - a) / b) - 4 regular twists (`bounds.n_of`).

When K_Y = eH exactly (Y subcanonical of degree e), a multiple tH is very
ample iff t >= 1, so the four are immediate; `derive_subcanonical_invariants`
computes them.  On the quadric, K = -3H and they are (4, 1, 4, 1).
`ThreefoldInvariants.validate` takes alpha = 4 or a_adj = 4 to force the
quadric or a linear P^2-bundle: off P^3, those are the threefolds on which
K_Y + 3H fails to be ample (Ionescu; Sommese-Van de Ven).

This module is plain Python and imports no other part of the package, so
the catalog loads it without the floor evaluator.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ThreefoldInvariants", "derive_subcanonical_invariants"]


@dataclass(frozen=True)
class ThreefoldInvariants:
    """The numerical inputs the bound evaluator needs about Y.

    alpha, beta, a_adj, b_adj: as defined in the module docstring.
    subcanonical_e: if K_Y = e H exactly, that e.  h3: the degree H^3.
    """

    name: str
    alpha: int
    beta: int
    a_adj: int
    b_adj: int
    subcanonical_e: int | None = None
    h3: int | None = None
    pic_is_z: bool = False
    is_linear_p2_bundle: bool = False
    is_quadric: bool = False
    is_p3: bool = False

    def validate(self) -> None:
        if not self.name:
            raise ValueError("invariants need a nonempty name")
        if self.alpha < 1:
            raise ValueError(f"{self.name}: alpha must be >= 1")
        if self.beta < 1:
            raise ValueError(f"{self.name}: beta must be >= 1")
        if self.b_adj < 1:
            raise ValueError(f"{self.name}: b_adj must be >= 1")
        if self.a_adj < 0:
            raise ValueError(f"{self.name}: a_adj must be >= 0")
        if not self.is_p3:
            if self.alpha > 4 or self.a_adj > 4:
                raise ValueError(f"{self.name}: alpha and a_adj cannot exceed 4 off P^3")
            if (self.alpha == 4 or self.a_adj == 4) and not (
                self.is_linear_p2_bundle or self.is_quadric
            ):
                key = "alpha" if self.alpha == 4 else "a_adj"
                raise ValueError(
                    f"{self.name}: {key} = 4 forces a linear P^2-bundle or the quadric"
                )
        if self.is_quadric and self.is_linear_p2_bundle:
            raise ValueError(f"{self.name}: the quadric is not a linear P^2-bundle")
        if self.is_quadric:
            stated = (self.alpha, self.beta, self.a_adj, self.b_adj)
            if self.subcanonical_e not in (None, -3) or stated != _QUADRIC_INVARIANTS:
                raise ValueError(
                    f"{self.name}: the quadric has K = -3H, so subcanonical e = -3 and "
                    f"(alpha, beta, a_adj, b_adj) = {_QUADRIC_INVARIANTS}, not {stated}"
                )
        if self.is_linear_p2_bundle and self.alpha != 4:
            # K_Y + 3H is trivial on the fibres, which forces alpha = 4
            raise ValueError(f"{self.name}: a linear P^2-bundle has alpha = 4")
        if self.subcanonical_e is not None and self.subcanonical_e <= 0 and self.beta != 1:
            raise ValueError(f"{self.name}: subcanonical e <= 0 forces beta = 1")
        if self.h3 is not None and self.h3 < 1:
            raise ValueError(f"{self.name}: H^3 must be positive")


def derive_subcanonical_invariants(e: int) -> tuple[int, int, int, int]:
    """(alpha, beta, a_adj, b_adj) for a threefold with K_Y = e H exactly.

    A multiple tH of a very ample H is very ample iff t >= 1, so the
    definitions in the module docstring give

        alpha = max(1, 1 - e)
        beta  = max(1, 1 + e)
        a_adj = 1 - e           max(0, 1 - e), and e <= 1
        b_adj = 1

    Only e <= 1 is supported; beyond that a_adj would go negative.
    """
    if e > 1:
        raise ValueError("subcanonical derivation expects e <= 1")
    alpha = max(1, 1 - e)
    return alpha, max(1, 1 + e), 1 - e, 1


# K_Q = -3H on the quadric threefold
_QUADRIC_INVARIANTS = derive_subcanonical_invariants(-3)
