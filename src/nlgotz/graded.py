"""Exact finite-field verification on graded pieces of split sheaves.

The objects here are subspaces V of H^0(M(d)) for M = O(a_1) + ... + O(a_r)
on P^N, stored as reduced row echelon bases over F_p with columns indexed by
monomials (one block per summand, descending lex inside each block).  On top
of that single representation sit the verifiable statements: the Macaulay
bound on codimension growth under multiplication by linear forms, additivity
and the restriction bound for generic hyperplane sections, base-point-freeness
certificates, and middle exactness of Koszul complexes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import combinations

import numpy as np

from . import modp
from .macaulay import lower_macaulay, upper_macaulay
from .monomials import dim_degree, exponent_table, product_table

__all__ = [
    "RingContext",
    "SplitSheaf",
    "GradedSubspace",
    "GenericityError",
    "AdditivityError",
    "BudgetExceededError",
    "CertificationError",
    "section_dim",
    "is_cm_regular",
    "full_space",
    "zero_subspace",
    "subspace_from_rows",
    "lex_segment_subspace",
    "random_subspace",
    "multiply",
    "GotzmannCheck",
    "check_macaulay_gotzmann",
    "RestrictionResult",
    "restrict_to_hyperplane",
    "is_basepoint_free",
    "KoszulResult",
    "koszul_middle_exact",
]

DEFAULT_PRIME = 101
RETRY_CAP = 16
# points evaluated at once by the rational-point scan
_CHUNK = 65536


class GenericityError(RuntimeError):
    """No random hyperplane met the restriction bound within the retry cap."""


class AdditivityError(RuntimeError):
    """codim V = codim V^H + codim V_H failed: an identity for every hyperplane."""


class BudgetExceededError(RuntimeError):
    """A requested exact computation would exceed the entry budget."""


class CertificationError(ValueError):
    """A hypothesis that must be certified first could not be."""


@dataclass(frozen=True)
class RingContext:
    """Ambient projective space P^N together with the working prime p."""

    N: int
    p: int = DEFAULT_PRIME

    def __post_init__(self):
        if self.N < 0:
            raise ValueError("projective dimension N must be nonnegative")
        modp.check_prime(self.p)


@dataclass(frozen=True)
class SplitSheaf:
    """A direct sum of line bundles O(a_1) + ... + O(a_r), r >= 1."""

    twists: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "twists", tuple(int(a) for a in self.twists))
        if len(self.twists) == 0:
            raise ValueError("a split sheaf needs at least one summand")


def is_cm_regular(sheaf: SplitSheaf) -> bool:
    """Regularity of the sum in the Castelnuovo-Mumford sense.

    For a line bundle O(a) on P^N the only cohomology that can obstruct is
    H^N(O(a - N)), which vanishes exactly when a >= 0; a direct sum is regular
    when every summand is.
    """
    return all(a >= 0 for a in sheaf.twists)


def _layout(nv: int, sheaf: SplitSheaf, degree: int):
    """Per-summand (twist, block degree, block dim, column offset), in nv variables."""
    blocks = []
    off = 0
    for a in sheaf.twists:
        m = degree + a
        dim = dim_degree(nv, m)
        blocks.append((a, m, dim, off))
        off += dim
    return blocks, off


def section_dim(sheaf: SplitSheaf, degree: int, context: RingContext) -> int:
    """dim H^0(M(degree)) = sum of C(N + degree + a_j, N) over the summands."""
    return _layout(context.N + 1, sheaf, degree)[1]


@dataclass(frozen=True, eq=False)
class GradedSubspace:
    """A subspace of H^0(M(degree)), held as a canonical RREF basis.

    The basis rows are reduced mod p and linearly independent, so
    codim = ambient columns - rows, exactly.
    """

    context: RingContext
    sheaf: SplitSheaf
    degree: int
    basis: np.ndarray

    def __post_init__(self):
        n = section_dim(self.sheaf, self.degree, self.context)
        rows = np.asarray(self.basis)
        if rows.ndim == 1 and rows.size == 0:
            # `[]` holds no rows, not one row of length 0
            rows = rows.reshape(0, n)
        rows = np.atleast_2d(rows)
        b = modp.row_space(rows.reshape(len(rows), n), self.context.p)
        b.setflags(write=False)
        object.__setattr__(self, "basis", b)

    @classmethod
    def _of_owned_rows(
        cls,
        context: RingContext,
        sheaf: SplitSheaf,
        degree: int,
        rows: np.ndarray,
        reduced: int = 0,
    ) -> GradedSubspace:
        """The span of rows the library has just built, reduced in place.

        `rows` is a C-contiguous int64 array with entries in [0, p), one
        column per basis element of H^0(M(degree)), that nothing else reads
        or writes: the copy and range check of the public constructor are
        skipped.  Its first `reduced` rows are already an RREF basis, which
        the elimination takes as given (see `modp._rref_inplace`): rows
        that are the whole basis (identity rows, kernels from
        `modp.nullspace`) are not eliminated at all.
        """
        basis = rows[: modp._rref_inplace(rows, context.p, reduced)]
        basis.setflags(write=False)
        v = object.__new__(cls)
        v.__dict__.update(context=context, sheaf=sheaf, degree=degree, basis=basis)
        return v

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[1]

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def codim(self) -> int:
        return self.ambient_dim - self.dim


def full_space(context: RingContext, sheaf: SplitSheaf, degree: int) -> GradedSubspace:
    n = section_dim(sheaf, degree, context)
    return GradedSubspace._of_owned_rows(context, sheaf, degree, np.eye(n, dtype=np.int64), n)


def zero_subspace(context: RingContext, sheaf: SplitSheaf, degree: int) -> GradedSubspace:
    n = section_dim(sheaf, degree, context)
    return GradedSubspace._of_owned_rows(context, sheaf, degree, np.zeros((0, n), dtype=np.int64))


def subspace_from_rows(
    context: RingContext, sheaf: SplitSheaf, degree: int, rows: np.ndarray
) -> GradedSubspace:
    """Span of arbitrary coefficient rows (reduced to the canonical basis)."""
    return GradedSubspace(context, sheaf, degree, rows)


def lex_segment_subspace(c: int, degree: int, context: RingContext) -> GradedSubspace:
    """The degree-`degree` slice of the lex-segment ideal of codimension c.

    Spans the dim - c lexicographically greatest monomials of S_degree (order
    x_0 > x_1 > ... > x_N), i.e. drops the c least.  This is the classical
    extremal witness: multiplying by linear forms grows its codimension to
    exactly upper_macaulay(c, degree).
    """
    sheaf = SplitSheaf((0,))
    n = section_dim(sheaf, degree, context)
    if not 0 <= c <= n:
        raise ValueError(f"codimension {c} out of range for ambient dimension {n}")
    rows = np.eye(n - c, n, dtype=np.int64)
    return GradedSubspace._of_owned_rows(context, sheaf, degree, rows, n - c)


def random_subspace(
    context: RingContext,
    sheaf: SplitSheaf,
    degree: int,
    rng: np.random.Generator,
    dim: int | None = None,
) -> GradedSubspace:
    """Row space of a uniform random coefficient matrix with `dim` rows.

    The observed dimension can come out lower on degenerate draws; callers
    read the codimension off the result rather than assuming it.
    """
    n = section_dim(sheaf, degree, context)
    if dim is None:
        dim = int(rng.integers(0, n + 1))
    if not 0 <= dim <= n:
        raise ValueError(f"requested dimension {dim} out of range")
    rows = rng.integers(0, context.p, size=(dim, n), dtype=np.int64)
    return GradedSubspace._of_owned_rows(context, sheaf, degree, rows)


def _column_maps(context: RingContext, sheaf: SplitSheaf, degree: int, t: int = 1) -> np.ndarray:
    """Multiplication by each degree-t monomial, as a column map t degrees up.

    Row k, entry j is the column of the k-th degree-t monomial (lex order;
    for t = 1 the variable x_k) times basis element j of H^0(M(degree))
    inside the basis of H^0(M(degree + t)).  Built once per shape and
    read-only; it does not depend on p.
    """
    return _maps_of_shape(context.N + 1, sheaf, degree, t)


@lru_cache(maxsize=None)
def _maps_of_shape(nv: int, sheaf: SplitSheaf, degree: int, t: int) -> np.ndarray:
    src, n_src = _layout(nv, sheaf, degree)
    tgt, _ = _layout(nv, sheaf, degree + t)
    maps = np.empty((dim_degree(nv, t), n_src), dtype=np.int64)
    for (_, m, dim, off), (_, _, _, toff) in zip(src, tgt):
        if dim:
            maps[:, off : off + dim] = toff + product_table(nv, m, t)
    maps.setflags(write=False)
    return maps


def _scatter(rows: np.ndarray, maps: np.ndarray, width: int) -> np.ndarray:
    """`rows` times each monomial of `maps` (see `_column_maps`), one block of rows per monomial."""
    r = len(rows)
    out = np.zeros((r * len(maps), width), dtype=np.int64)
    for i, colmap in enumerate(maps):
        out[i * r : (i + 1) * r, colmap] = rows
    return out


def _shifted_rows(v: GradedSubspace, t: int) -> np.ndarray:
    """The basis of V times each degree-t monomial, one block of rows per monomial."""
    maps = _column_maps(v.context, v.sheaf, v.degree, t)
    return _scatter(v.basis, maps, section_dim(v.sheaf, v.degree + t, v.context))


def _times_linear_forms(v: GradedSubspace) -> GradedSubspace:
    """The image of V under multiplication by all linear forms, one degree up.

    The stack starts with x_0 * B for the basis B of V, which is already an
    RREF basis: x_0 times the monomials keeps their order, so it keeps the
    pivots increasing and the pivot columns clear.
    """
    stack = _shifted_rows(v, 1)
    return GradedSubspace._of_owned_rows(v.context, v.sheaf, v.degree + 1, stack, v.dim)


def multiply(v: GradedSubspace, t: int) -> GradedSubspace:
    """The subspace mu(V x S_t) of H^0(M(degree + t)) spanned by products."""
    if t < 1:
        raise ValueError("multiplication degree t must be at least 1")
    out = v
    for _ in range(t):
        out = _times_linear_forms(out)
    return out


@dataclass(frozen=True)
class GotzmannCheck:
    """Observed one-step codimension growth against the Macaulay bound."""

    codim: int
    codim_next: int
    bound: int
    holds: bool


def _contractions(v: GradedSubspace) -> np.ndarray:
    """g[k, b, i] = u_k(x_i b): each functional of V^perp contracted by each variable.

    u_k is the k-th basis functional of V^perp, read off V's RREF basis
    (`modp.rref_kernel`), and b the b-th basis element of H^0(M(d - 1));
    each u_k is gathered at the column maps of degree d - 1.
    """
    ctx = v.context
    return modp.rref_kernel(v.basis, ctx.p)[:, _column_maps(ctx, v.sheaf, v.degree - 1).T]


def _codim_times_linear_forms(v: GradedSubspace) -> int:
    """codim mu(V x S_1), counted on the annihilator V^perp of V.

    Macaulay's inverse systems: a functional phi on H^0(M(d + 1)) kills
    V S_1 exactly when each contraction x_i o phi, the functional
    f -> phi(x_i f) on H^0(M(d)), kills V.  With every block degree of
    H^0(M(d)) at least 1, phi is fixed by its contractions, and a tuple
    (psi_0, ..., psi_N) of functionals on H^0(M(d)) is the tuple of some phi
    exactly when x_j o psi_i = x_i o psi_j on H^0(M(d - 1)) for all i < j.
    So codim V S_1 = (N + 1) c - rank K, for K the matrix of those
    conditions on (V^perp)^{N+1}: C(N + 1, 2) dim H^0(M(d - 1)) rows and
    (N + 1) c columns.  Its entries are the contractions of V^perp
    (`_contractions`), so the only elimination is that of K, taken in this
    tall orientation: each column-by-column pass then walks only its
    (N + 1) c columns.
    """
    c = v.codim
    if c == 0:
        return 0
    ctx = v.context
    nv = ctx.N + 1
    # g[j, b, k] = u_k(x_j b)
    g = _contractions(v).transpose(2, 1, 0)
    i, j = np.triu_indices(nv, 1)
    pairs = np.arange(i.size)
    k = np.zeros((i.size, g.shape[1], nv, c), dtype=np.int64)
    k[pairs, :, i] = g[j]
    k[pairs, :, j] = modp._sign_fix(-g[i], ctx.p)
    return nv * c - modp.rank_of(k.reshape(-1, nv * c), ctx.p)


def check_macaulay_gotzmann(v: GradedSubspace) -> GotzmannCheck:
    """Verify codim mu(V x S_1) <= upper_macaulay(codim V, degree).

    Requires a regular sheaf and degree >= 1; outside that range the bound is
    not asserted.  codim V S_1 comes from whichever matrix has fewer
    entries: the stack of `multiply`, (N + 1) dim V rows of H^0(M(d + 1)),
    or the inverse-system matrix of `_codim_times_linear_forms`,
    C(N + 1, 2) dim H^0(M(d - 1)) rows and (N + 1) codim V columns.  Both
    give the same number; the second is the small one where codim V is
    small, which is where the bound bites.
    """
    if not is_cm_regular(v.sheaf):
        raise ValueError("the growth bound needs a regular sheaf (all twists >= 0)")
    if v.degree < 1:
        raise ValueError("the growth bound needs degree >= 1")
    c = v.codim
    ctx = v.context
    # the entries of K and of the multiply stack, each divided by N + 1
    dual = math.comb(ctx.N + 1, 2) * section_dim(v.sheaf, v.degree - 1, ctx) * c
    if dual < v.dim * section_dim(v.sheaf, v.degree + 1, ctx):
        codim_next = _codim_times_linear_forms(v)
    else:
        codim_next = multiply(v, 1).codim
    bound = upper_macaulay(c, v.degree)
    return GotzmannCheck(codim=c, codim_next=codim_next, bound=bound, holds=codim_next <= bound)


@lru_cache(maxsize=None)
def _substitution_layout(n: int, sheaf: SplitSheaf, degree: int):
    """The part of `_substitution_matrix` that does not depend on the hyperplane.

    For the map from H^0(M(degree)) on P^n to H^0(M_H(degree)) on a
    hyperplane P^{n-1}: the matrix shape; the rows of the basis elements free
    of x_n, which restriction sends to the basis of H^0(M_H(degree)) in
    order; and for each x_n-exponent k, the flat indices in the matrix
    where the rows with that exponent take the degree-k monomials of
    (mu . y)^k, and the column maps that scatter (mu . y)^{k-1} one degree
    up (None at k = 0).  Every array is read-only.
    """
    line = SplitSheaf((0,))
    last = np.concatenate([exponent_table(n + 1, degree + a)[:, n] for a in sheaf.twists])
    width = _layout(n, sheaf, degree)[1]
    groups = []
    for k in range(last.max() + 1):
        rows = np.flatnonzero(last == k)
        cells = rows[:, None] * width + _maps_of_shape(n, sheaf, degree - k, k).T
        cells.setflags(write=False)
        groups.append((cells, _maps_of_shape(n, line, k - 1, 1) if k else None))
    free = np.flatnonzero(last == 0)
    free.setflags(write=False)
    return (last.size, width), free, tuple(groups)


def _substitution_matrix(
    context_h: RingContext, sheaf: SplitSheaf, degree: int, lam: np.ndarray
) -> np.ndarray:
    """Matrix of the restriction map H^0(M(degree)) -> H^0(M_H(degree)).

    The hyperplane H = {lam . x = 0} of P^N has lam[N] != 0 and is the
    P^{N-1} of `context_h`.  Restriction is the ring map x_i -> y_i for
    i < N and x_N -> mu . y, with mu = -(lam_0, ..., lam_{N-1}) / lam_N, so
    x^a goes to y^{a'} (mu . y)^{a_N}, a' = (a_0, ..., a_{N-1}).  Each power
    (mu . y)^k is mu times the products of the power before it with
    y_0, ..., y_{N-1}, scattered through the column maps of degree k - 1.
    The rows with x_N-exponent k, over all blocks, list their y^{a'} in the
    basis order of H^0(M_H(degree - k)), and the column maps of degree
    degree - k by the degree-k monomials place the power at their products;
    those places come from `_substitution_layout`, so only mu and its
    powers are computed here.
    """
    p = context_h.p
    n = context_h.N + 1
    mu = (-lam[:n] * pow(int(lam[n]), -1, p)) % p
    shape, _, groups = _substitution_layout(n, sheaf, degree)
    image = np.zeros(shape, dtype=np.int64)
    flat = image.reshape(-1)
    power = np.ones(1, dtype=np.int64)
    for k, (cells, maps) in enumerate(groups):
        if k:
            power = modp._dot(mu[None], _scatter(power[None], maps, dim_degree(n, k)), p)[0]
        flat[cells] = power
    return image


@dataclass(frozen=True)
class RestrictionResult:
    """A generic hyperplane restriction together with the two exact checks.

    `additivity_holds` is the exact check of `_restrict_once`: additivity
    itself, or where V_H comes from the annihilator, V (sub Phi^T) = 0
    together with the additivity count.
    """

    v_h: GradedSubspace
    v_preimage: GradedSubspace
    additivity_holds: bool
    restriction_bound_holds: bool
    codim: int
    codim_h: int
    codim_preimage: int
    bound: int
    linear_form: tuple[int, ...]
    attempts: int


def _restricts_by_annihilator(v: GradedSubspace) -> bool:
    """Whether `_restrict_once` takes V_H from the annihilator of V.

    True when dim V > dim S_d(H), that is when V times the substitution
    matrix, the matrix the elimination route reduces, has more rows than
    columns.  The annihilator route's matrices have codim V rows, and on
    the restriction suite's families and the benchmark's subspaces it was
    the faster route on that side of the line, and about as fast within
    a few rows of it.  A size comparison, not a setting: both routes give
    the same bases.
    """
    return v.dim > _layout(v.context.N, v.sheaf, v.degree)[1]


def _restrict_once(v: GradedSubspace, lam: np.ndarray) -> RestrictionResult:
    """V_H and V^H for the hyperplane {lam . x = 0}, with the check that stands for additivity.

    V^H = {f : l f in V} is the common kernel of the contractions by l of
    V^perp, Q^T (u(l f) = sum_i lam_i u(x_i f) for each functional u of
    V^perp).  V_H comes by whichever route has the smaller matrices:

    - elimination: the row space of V times the substitution matrix, dim V
      x dim S_d(H); codim V = codim V^H + codim V_H then checks both.
    - annihilator: the left kernel A of Q^T picks the functionals a . u
      that kill l S_{d-1}, which are those that factor through restriction;
      restriction sends the monomials free of x_N to the basis of S_d(H),
      so V_H^perp is Phi = A K read on those columns (K the functionals
      of V^perp), and V_H the kernel of Phi: no elimination of V.  Here
      the count holds by rank-nullity, so the check is V (sub Phi^T) = 0,
      two thin products, with the count: together they prove that the
      kernel of Phi is the image of V, given V^H.

    The route is `_restricts_by_annihilator`.
    """
    ctx = v.context
    p = ctx.p
    c = v.codim
    ctx_h = RingContext(ctx.N - 1, p)
    sub = _substitution_matrix(ctx_h, v.sheaf, v.degree, lam)
    g = _contractions(v)
    q = modp._dot(g.reshape(-1, ctx.N + 1), lam[:, None], p).reshape(g.shape[:2])
    if _restricts_by_annihilator(v):
        pre, a = modp._kernels(q, p)
        free = _substitution_layout(ctx.N, v.sheaf, v.degree)[1]
        phi = modp._dot(a, modp.rref_kernel(v.basis, p)[:, free], p)
        kernel = modp.nullspace(phi, p)
        v_h = GradedSubspace._of_owned_rows(ctx_h, v.sheaf, v.degree, kernel, len(kernel))
        images_vanish = not modp._dot(v.basis, modp._dot(sub, phi.T, p), p).any()
    else:
        pre = modp.nullspace(q, p)
        v_h = GradedSubspace._of_owned_rows(ctx_h, v.sheaf, v.degree, modp._dot(v.basis, sub, p))
        images_vanish = True
    v_pre = GradedSubspace._of_owned_rows(ctx, v.sheaf, v.degree - 1, pre, len(pre))

    bound = lower_macaulay(c, v.degree)
    additivity = images_vanish and c == v_pre.codim + v_h.codim
    return RestrictionResult(
        v_h=v_h,
        v_preimage=v_pre,
        additivity_holds=additivity,
        restriction_bound_holds=v_h.codim <= bound,
        codim=c,
        codim_h=v_h.codim,
        codim_preimage=v_pre.codim,
        bound=bound,
        linear_form=tuple(int(x) for x in lam),
        attempts=1,
    )


def restrict_to_hyperplane(
    v: GradedSubspace, seed: int | np.random.Generator
) -> RestrictionResult:
    """Restrict V to a random hyperplane and run the two exact checks.

    Draws a linear form with nonzero last coordinate from the seeded
    generator.  The additivity identity codim V = codim V^H + codim V_H holds
    for every hyperplane H, by the exact sequence 0 -> S_{d-1} -> S_d ->
    S_{H,d} -> 0, so a draw that breaks it raises AdditivityError at once;
    where V_H comes from the annihilator of V, which makes the identity hold
    by construction, the check that stands for it (see `_restrict_once`)
    raises the same error.
    The restriction bound codim V_H <= lower_macaulay(codim V, degree) is a
    statement about a generic H (Green, LNM 1389, 1989).  codim V_H is
    smallest at a generic H, so any draw that meets the bound certifies it,
    while a draw that misses it may be special: such draws are redrawn, up
    to a cap of 16 attempts.  Exhausting the cap raises GenericityError,
    with the smallest codim V_H seen; it signals either a prime too small
    for this size of problem or an actual counterexample.
    """
    ctx = v.context
    if ctx.N < 1:
        raise ValueError("restriction needs an ambient hyperplane, so N >= 1")
    if v.degree < 1:
        raise ValueError("restriction bound needs degree >= 1")
    if not is_cm_regular(v.sheaf):
        raise ValueError("the restriction bound needs a regular sheaf (all twists >= 0)")
    rng = seed if isinstance(seed, np.random.Generator) else _seeded_rng(seed)
    nv = ctx.N + 1
    where = f"N={ctx.N}, p={ctx.p}, degree={v.degree}, codim={v.codim}"
    missed = []
    for attempt in range(1, RETRY_CAP + 1):
        lam = rng.integers(0, ctx.p, size=nv).astype(np.int64)
        lam[nv - 1] = int(rng.integers(1, ctx.p))
        res = _restrict_once(v, lam)
        if not res.additivity_holds:
            raise AdditivityError(
                f"codim V != codim V^H + codim V_H ({res.codim} != "
                f"{res.codim_preimage} + {res.codim_h}) for the linear form "
                f"{res.linear_form} ({where})"
            )
        if res.restriction_bound_holds:
            return replace(res, attempts=attempt)
        missed.append(res.codim_h)
    raise GenericityError(
        f"no hyperplane met the restriction bound {res.bound} in {RETRY_CAP} draws; "
        f"smallest codim_h = {min(missed)} ({where})"
    )


def _seeded_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def _power_table(a: np.ndarray, width: int, p: int) -> np.ndarray:
    """W[e, j] = a_j^e mod p for 0 <= e < width (0^0 = 1)."""
    w = np.empty((width, a.size), dtype=np.int64)
    w[0] = 1
    for e in range(1, width):
        np.multiply(w[e - 1], a, out=w[e])
        modp._reduce(w[e], p)
    return w


def _chart_forms(
    basis: np.ndarray, exponents: np.ndarray, lead: int, width: int, p: int
) -> tuple[np.ndarray, np.ndarray]:
    """The basis forms on chart `lead`, as polynomials in its k affine coordinates.

    Chart `lead` holds the points (0, ..., 0, 1, a) with a in F_p^k,
    k = N - lead.  A monomial divisible by one of x_0, ..., x_{lead-1} is
    zero there, and any other x^e takes the value a^(e_{lead+1}, ..., e_N).
    As functions on F_p, a^e = a^(e') with e' = (e - 1) mod (p - 1) + 1 for
    e >= p, so every exponent folds below width = min(d + 1, p), where
    distinct polynomials are distinct functions.  Returns the folded
    exponent vectors that occur, as base-`width` keys (most significant
    digit first), and each form's coefficients on them (rows x keys).
    """
    k = exponents.shape[1] - 1 - lead
    on_chart = ~exponents[:, :lead].any(axis=1)
    e = exponents[on_chart, lead + 1 :]
    e = np.where(e < p, e, (e - 1) % (p - 1) + 1)
    keys, where = np.unique(e @ width ** np.arange(k - 1, -1, -1), return_inverse=True)
    coef = np.zeros((keys.size, basis.shape[0]), dtype=np.int64)
    np.add.at(coef, where, basis[:, on_chart].T)
    return keys, modp._reduce(coef, p).T


def _grid_values(
    keys: np.ndarray, row: np.ndarray, k: int, width: int, p: int, first: np.ndarray
) -> np.ndarray:
    """Values of one chart form at the points a of F_p^k with a_1 in `first`.

    The points come in lex order, a_1 most significant.  The coefficients
    fill a width^k tensor, and each product with a power table turns its
    leading exponent axis into a trailing coordinate axis: e_1 over
    `first`, then e_2, ..., e_k over all of F_p.
    """
    t = np.zeros(width**k, dtype=np.int64)
    t[keys] = row
    for i in range(k):
        a = np.arange(p, dtype=np.int64) if i else first
        t = modp._dot(t.reshape(width, -1).T, _power_table(a, width, p), p)
    return t.reshape(-1)


def _point_values(
    keys: np.ndarray, coef: np.ndarray, k: int, width: int, p: int, idx: np.ndarray
) -> np.ndarray:
    """Values of the chart forms `coef` at the grid points `idx`, as (rows x points)."""
    mons = np.ones((keys.size, idx.size), dtype=np.int64)
    for i in range(k):
        w = _power_table(idx // p ** (k - 1 - i) % p, width, p)
        mons *= w[keys // width ** (k - 1 - i) % width]
        modp._reduce(mons, p)
    return modp._dot(coef, mons, p)


def _has_rational_base_point(v: GradedSubspace, points: int) -> bool:
    """Whether the forms of V share a zero in P^N(F_p), which has `points` points.

    Scans chart by chart.  On each, the first form that is not zero on the
    chart is evaluated on the whole grid, and the others only at its zeros.
    Both go in pieces of at most 65,536 points (whole slabs of a_1 on the
    grid, where one slab is that small), and fewer where a piece would need
    more than `points` values or power-table entries.  A chart on which
    every form is zero is all base points.
    """
    nv, p = v.context.N + 1, v.context.p
    degree = v.degree + v.sheaf.twists[0]
    exponents = exponent_table(nv, degree)
    width = min(degree + 1, p)
    for lead in range(nv):
        k = nv - 1 - lead
        keys, coef = _chart_forms(v.basis, exponents, lead, width, p)
        live = np.flatnonzero(coef.any(axis=1))
        if live.size == 0:
            return True
        if k == 0:
            continue  # the one point [0 : ... : 0 : 1], where the first live form is nonzero
        rest = coef[live[1:]]
        tail = p ** (k - 1)
        slab = max(1, min(p, _CHUNK // tail, points // width))
        chunk = max(1, min(_CHUNK, points // max(width, *coef.shape)))
        for a1 in range(0, p, slab):
            first = np.arange(a1, min(a1 + slab, p), dtype=np.int64)
            vals = _grid_values(keys, coef[live[0]], k, width, p, first)
            zeros = a1 * tail + np.flatnonzero(vals == 0)
            for start in range(0, zeros.size, chunk):
                vals = _point_values(keys, rest, k, width, p, zeros[start : start + chunk])
                if not vals.any(axis=0).all():
                    return True
    return False


def is_basepoint_free(
    v: GradedSubspace, t_max: int = 6, scan_limit: int = 2_000_000
) -> str:
    """Certify base-point-freeness of a line-bundle subsystem, if possible.

    Returns "free" when mu(V x S_t) fills the ambient space for some
    t <= t_max, t = 0 included (the section ring saturates, so no base point
    can exist), "not_free" when a common zero is found among the rational
    points of P^N(F_p), and "inconclusive" otherwise.  The rational-point
    scan evaluates the forms chart by chart on the whole F_p grid, with a
    one-form sieve: on the chart of points (0, ..., 0, 1, a), a in F_p^k,
    one form costs about p^k (d + 1) multiply-adds through k products with
    a power table, and the others are evaluated only at its zeros.  The
    scan is skipped when P^N(F_p) has more than scan_limit points.
    """
    if len(v.sheaf.twists) != 1:
        raise ValueError("base-point-freeness is checked for a single line bundle")
    if t_max < 0 or scan_limit < 0:
        raise ValueError(f"t_max = {t_max} and scan_limit = {scan_limit} must be nonnegative")
    if v.dim == 0:
        return "not_free"
    if v.codim == 0:
        return "free"
    w = v
    for _ in range(t_max):
        w = _times_linear_forms(w)
        if w.codim == 0:
            return "free"
    p = v.context.p
    points = (p ** (v.context.N + 1) - 1) // (p - 1)
    if points > scan_limit:
        return "inconclusive"
    if _has_rational_base_point(v, points):
        return "not_free"
    # no rational base point; there may still be one over an extension field
    return "inconclusive"


@dataclass(frozen=True)
class KoszulResult:
    """Middle exactness of one Koszul strand, plus the range hypothesis."""

    exact: bool
    hypothesis_met: bool
    p_index: int
    k: int
    form_degree: int
    codim: int
    rank_in: int
    rank_out: int
    middle_dim: int


def _koszul_map(v: GradedSubspace, p: int, t: int) -> np.ndarray:
    """The Koszul differential Wedge^p V x S_t -> Wedge^{p-1} V x S_{t+D}, for p >= 1.

    e_I x f goes to the sum over s of (-1)^s e_{I - i_s} x v_{i_s} f.  Rows
    and columns come in blocks of p- and (p-1)-subsets in lex order; the
    block at (I, I - i_s) is the signed block of `_shifted_rows(v, t)` for v_{i_s}.
    """
    r = v.dim
    shifted = _shifted_rows(v, t)
    signed = (shifted, modp._sign_fix(-shifted, v.context.p))
    faces = {face: b for b, face in enumerate(combinations(range(r), p - 1))}
    shape = (math.comb(r, p), dim_degree(v.context.N + 1, t), len(faces), shifted.shape[1])
    out = np.zeros(shape, dtype=np.int64)
    for a, subset in enumerate(combinations(range(r), p)):
        for s, i in enumerate(subset):
            out[a, :, faces[subset[:s] + subset[s + 1 :]]] = signed[s % 2][i::r]
    return out.reshape(-1, shape[2] * shape[3])


def koszul_middle_exact(
    v: GradedSubspace,
    k: int,
    p_index: int,
    t_max: int = 6,
    entry_budget: int = 20_000,
) -> KoszulResult:
    """Decide exactness of the Koszul strand at Wedge^p V x S_k, for any p >= 0.

    Wedge^{p+1} V x S_{k-D} -> Wedge^p V x S_k -> Wedge^{p-1} V x S_{k+D}, for
    D the degree of the forms spanning V, composes to zero, so it is exact
    when the incoming rank equals the outgoing nullity; at p = 0 the outgoing
    map is zero (Wedge^{-1} V = 0).  Green's vanishing theorem gives exactness
    for k >= p + D + codim V, reported as `hypothesis_met`.  V must certify
    as base-point free first (CertificationError otherwise).  A zero middle
    term (p < 0, p > dim V or k < 0) checks nothing and raises ValueError;
    matrices larger than entry_budget entries are refused rather than
    approximated.
    """
    verdict = is_basepoint_free(v, t_max=t_max)
    if verdict != "free":
        raise CertificationError(
            f"base-point-freeness must certify before Koszul checks (got {verdict!r})"
        )
    return _koszul_strand(v, k, p_index, entry_budget)


def _koszul_strand(v: GradedSubspace, k: int, p_index: int, entry_budget: int) -> KoszulResult:
    """The rank comparison of `koszul_middle_exact`, for a V already certified base-point free."""
    nv, r = v.context.N + 1, v.dim
    wedge = [math.comb(r, q) if q >= 0 else 0 for q in range(p_index - 1, p_index + 2)]
    middle = wedge[1] * dim_degree(nv, k)
    if middle == 0:
        raise ValueError(f"Wedge^{p_index} V x S_{k} is zero for dim V = {r}: it checks nothing")
    d = v.degree + v.sheaf.twists[0]
    entries = middle * max(wedge[2] * dim_degree(nv, k - d), wedge[0] * dim_degree(nv, k + d))
    if entries > entry_budget:
        raise BudgetExceededError(f"{entries} matrix entries exceed the budget")
    rank_in = modp.rank_of(_koszul_map(v, p_index + 1, k - d), v.context.p)
    rank_out = modp.rank_of(_koszul_map(v, p_index, k), v.context.p) if p_index else 0
    return KoszulResult(
        exact=rank_in == middle - rank_out,
        hypothesis_met=k >= p_index + d + v.codim,
        p_index=p_index,
        k=k,
        form_degree=d,
        codim=v.codim,
        rank_in=rank_in,
        rank_out=rank_out,
        middle_dim=middle,
    )
