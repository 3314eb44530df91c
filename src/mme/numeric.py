"""Numeric primitives: chordal geometry on the Riemann sphere, certified
complex root finding, and rationalization of floating-point values back
into the exact field.  Of the subcommands, only ``analyze-graph`` and
``render`` load this module, and numpy with it.

A root set is certified by its scaled residuals, each below RESIDUAL_TOL.
Companion-matrix eigenvalues are backward stable (Edelman and Murakami,
Math. Comp. 64, 1995), so an unseeded row is certified as
``_companion_roots`` gives it, with no polish; a seeded row is solved by
Aberth iteration (``_aberth``), and a row that fails its check is solved
again by mpmath.

The batched kernels (``_aberth``, ``_residuals``, ``_certified_rows``) take
a stack of rows, coefficients (L, n + 1) and roots (L, n), and work on its
transpose, root-major: one row per column, so every operation runs along
the long contiguous axis of the stack and every per-row max or all reduces
a leading axis (numpy reduces a short trailing axis several times slower).
A sum or product over the roots of one row accumulates one root at a time,
in a fixed order, so a row's result does not depend on its stack.

A point of P^1 is a complex number or the sentinel INF (``mme.base``,
with the RootFindingError a failed solve raises).  A set of points
is a (z, inf) pair of arrays of one shape: z complex, with 0 at infinity,
and inf the boolean mask of infinity.  Scalar functions such as
``projective_roots`` take and give points; the array kernels, ``chordal``
among them, take (z, inf) pairs, and ``point_arrays`` is the one converter
to them.  Every chordal distance is the 2 x 2 determinant of normalized
homogeneous coordinates (``homogeneous``, ``chordal2``).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .base import INF, RootFindingError

# the scaled-residual bound of certified roots, and the relative size
# below which a leading coefficient counts as zero (a root at infinity)
RESIDUAL_TOL = 1e-10
INF_TOL = 1e-13
# the most Aberth steps a seeded batched root solve takes; a row stops when
# its largest correction, relative to max(1, |root|), is below ABERTH_TOL,
# or below ABERTH_STALL (sqrt(eps)) and no less than half the one before
ABERTH_ITERS = 16
ABERTH_TOL = 4e-16
ABERTH_STALL = float(np.sqrt(np.finfo(float).eps))
# rationalize_into_field: the largest denominator it rounds to, and the
# relative error its embedding may leave
MAX_DEN = 10**6
RATIONALIZE_TOL = 1e-6


def _polyval(coeffs, x):
    """np.polyval column by column: ``coeffs`` (n + 1, L) descending,
    root-major, at the points ``x`` (m, L); each step is np.polyval's."""
    # a coefficient row (L,) broadcasts along the leading axis of x, so every
    # step runs over the long contiguous axis with no spread copy
    y = np.zeros(x.shape, np.result_type(coeffs, x))
    for row in coeffs:
        y *= x
        y += row
    return y


def _row_scales(coeffs):
    """max_k |a_k| of each row of ``coeffs`` (L, n + 1)."""
    # reduced over the long leading axis of a C-ordered transpose: numpy
    # reduces a short trailing axis several times slower
    return np.abs(coeffs.T.copy()).max(axis=0)


def _column_residuals(c, r):
    """``_residuals`` on root-major arrays: ``c`` (n + 1, L), ``r`` (n, L)."""
    outside = np.abs(r) > 1
    w = np.where(outside, 1.0 / np.where(outside, r, 1.0), r)
    vals = np.where(outside, _polyval(c[::-1], w), _polyval(c, w))
    return np.abs(vals) / np.abs(c).max(axis=0)


def _residuals(coeffs, roots):
    """Scaled residuals |p(r)| / (max_k |a_k| max(1, |r|)^n) of the roots
    ``roots`` (L, n) of the rows p of ``coeffs`` (L, n + 1), descending.

    A root with |r| > 1 is taken in the chart of 1/r, where p(r) / r^n is
    the reversed row at 1/r, so no power of r is formed and nothing
    overflows however large the root is.
    """
    return _column_residuals(coeffs.T.copy(), roots.T.copy()).T


def _certified_rows(coeffs, roots):
    """Per row of ``coeffs`` (L, n + 1) descending, whether every one of
    its ``roots`` (L, n) has a scaled residual below RESIDUAL_TOL."""
    return (_column_residuals(coeffs.T.copy(), roots.T.copy()) < RESIDUAL_TOL).all(axis=0)


def _companion_roots(desc):
    """Roots of each row of ``desc`` (L, n + 1): in closed form for n = 2,
    else from one stacked eigvals call.

    The leading and constant coefficients must be nonzero.  For n != 2 the
    companion matrices are the ones np.roots builds, so each row's roots
    equal np.roots on that row bit for bit.  For n = 2 the roots of
    a z^2 + b z + c are q / a and c / q, q = -(b + s sqrt(b^2 - 4ac)) / 2,
    with the sign s = +-1 that keeps b and s sqrt(b^2 - 4ac) from
    cancelling; the row is first scaled by a power of two so that b^2
    cannot overflow.  Every step acts row by row, so a row's roots do not
    depend on the stack it is solved in.
    """
    n = desc.shape[1] - 1
    if n == 2:
        _, exp = np.frexp(np.abs(desc).max(axis=1))
        a, b, c = (desc * np.ldexp(1.0, -exp)[:, None]).T
        root = np.sqrt(b * b - 4.0 * a * c)
        root[b.real * root.real + b.imag * root.imag < 0] *= -1
        q = -0.5 * (b + root)
        # + 0.0 turns every -0.0 part into 0.0
        return np.stack([q / a, c / q], axis=1) + 0.0
    companion = np.zeros((len(desc), n, n), dtype=complex)
    companion[:, 1:, :-1] = np.eye(n - 1)
    companion[:, 0, :] = -desc[:, 1:] / desc[:, :1]
    return np.linalg.eigvals(companion)


def _disc_radii(c, z):
    """The Braess-Hadeler radii n |W_i| (n, L) of the points ``z`` (n, L)
    of the root-major rows ``c`` (n + 1, L), W_i = p(z_i) / (a_n
    prod_{j != i} (z_i - z_j)), the product taken over j = 0, ..., n - 1
    in that order.  |p(z_i)| is widened by Horner's rounding-error bound,
    so a multiple root at which p happens to round to 0 still gets
    overlapping discs."""
    n = len(z)
    slack = 2 * n * np.finfo(float).eps * _polyval(np.abs(c), np.abs(z))
    bound = np.abs(_polyval(c, z)) + slack
    product = np.ones_like(z)
    for j in range(n):
        diff = z - z[j]
        diff[j] = 1.0
        product *= diff
    return n * bound / np.abs(c[0] * product)


def _aberth(desc, roots):
    """Aberth-Ehrlich iteration on the rows of ``desc`` (L, n + 1), from
    the seed ``roots`` (L, n): (roots, ok per row).

    Every point of a row moves by z_i -= N_i / (1 - N_i S_i), N_i = p/p'
    at z_i and S_i = sum_{j != i} 1 / (z_i - z_j).  A row takes no more
    steps once its largest correction, relative to max(1, |z_i|), is below
    ABERTH_TOL, or once it is below ABERTH_STALL and no smaller than half
    the row's previous one: the corrections have stopped shrinking, so
    they are rounding noise (Bini, Numer. Algorithms 13, 1996).  A row
    that has done neither after ABERTH_ITERS is not ok.
    A converged row is ok when it passes ``_certified_rows`` and its
    Braess-Hadeler discs |z - z_i| <= n |W_i| (``_disc_radii``) are finite
    and pairwise disjoint: each disc then holds exactly one root (see
    fields._factor_search).  The discs are evaluated in floating point,
    with |p(z_i)| widened by a bound on its rounding error but no other
    outward rounding, so they are not a proof.

    Inside, the stack is root-major: the roots (n, L) and the
    coefficients (n + 1, L), rows on the long contiguous axis, so every
    operation runs along the stack and every per-row max or all reduces a
    leading axis; the transposes are made on entry and on return.  p and
    p' come from one Horner pass.  S_i, like the product of the
    differences in W_i, accumulates over j = 0, ..., n - 1 by one
    elementwise operation per j, never by a sum or prod over an axis,
    whose order numpy changes with L: so each row's roots and flag are
    the ones it gets when solved alone.
    """
    n = desc.shape[1] - 1
    diag = np.arange(n)
    c = desc.T.copy()
    out = roots.T.copy()
    live = np.arange(out.shape[1])  # the rows still stepping
    last = np.full(len(live), np.inf)  # their previous largest relative corrections
    converged = np.zeros(len(live), dtype=bool)
    a, z = c, out.copy()  # the live rows' coefficients and roots
    # equal points or a zero derivative give inf or nan, which never converge
    with np.errstate(all="ignore"):
        for _ in range(ABERTH_ITERS):
            p = np.empty_like(z)
            p[...] = a[0]
            dp = np.zeros_like(z)
            for row in a[1:]:
                dp *= z
                dp += p
                p *= z
                p += row
            inverse = z[:, None, :] - z[None, :, :]
            np.divide(1.0, inverse, out=inverse)
            inverse[diag, diag] = 0.0
            s = inverse[:, 0].copy()
            for j in range(1, n):
                s += inverse[:, j]
            # the step N / (1 - N S), formed in place in p
            p /= dp
            s *= p
            np.subtract(1.0, s, out=s)
            p /= s
            size = np.abs(p)
            size /= np.maximum(1.0, np.abs(z))
            size = size.max(axis=0)
            z -= p
            # below ABERTH_TOL, or below ABERTH_STALL once no less than half the last
            done = size < np.where(size + size >= last, ABERTH_STALL, ABERTH_TOL)
            if done.any():
                converged[live[done]] = True
                out[:, live[done]] = z[:, done]
                live, last, z, a = live[~done], size[~done], z[:, ~done], a[:, ~done]
            else:
                last = size
            if not len(live):
                break
        out[:, live] = z
        radius = _disc_radii(c, out)
        apart = np.abs(out[:, None, :] - out[None, :, :]) > radius[:, None] + radius[None, :]
        apart[diag, diag] = True
        disjoint = np.isfinite(radius).all(axis=0) & apart.reshape(n * n, -1).all(axis=0)
        small = (_column_residuals(c, out) < RESIDUAL_TOL).all(axis=0)
    return out.T, converged & disjoint & small


def certified_roots(coeffs):
    """All complex roots of a polynomial with simple-root expectations.

    ``coeffs`` ascending.  The roots are those ``_companion_roots`` gives,
    the roots at 0 last, kept as they are when ``_certified_rows`` accepts
    them; otherwise precision escalates through mpmath and a looser final
    residual check is applied.
    """
    c = np.asarray(coeffs, dtype=complex)
    while len(c) and abs(c[-1]) == 0.0:
        c = c[:-1]
    if len(c) <= 1:
        return np.array([], dtype=complex)
    desc = c[::-1][None, :]
    # the roots at 0 come last, as np.roots gives them
    n = len(c) - 1 - np.flatnonzero(c)[0]
    roots = np.zeros((1, len(c) - 1), dtype=complex)
    if n:
        roots[:, :n] = _companion_roots(desc[:, : n + 1])
    if _certified_rows(desc, roots)[0]:
        return roots[0]
    # precision escalation
    import mpmath

    with mpmath.workdps(50):
        try:
            mp_roots = mpmath.polyroots([mpmath.mpc(x) for x in desc[0]], maxsteps=200, extraprec=120)
        except mpmath.libmp.NoConvergence as exc:
            raise RootFindingError(
                "root finder failed to converge for polynomial %s" % (list(coeffs),)
            ) from exc
    roots = np.array([complex(r) for r in mp_roots])
    res = _residuals(desc, roots[None, :])[0]
    # multiple roots cannot beat eps**(1/mult); accept the escalated roots
    # but reject garbage
    if np.any(res > 1e-4):
        raise RootFindingError(
            "residuals %s exceed tolerance for polynomial %s" % (res, list(coeffs))
        )
    return roots


def projective_roots(coeffs, formal_degree):
    """Roots of a degree-``formal_degree`` polynomial on P^1.

    Returns a list of length formal_degree: finite complex roots plus
    copies of INF for the drop between the effective and formal degree.
    Leading coefficients below INF_TOL * max|c| are treated as zero
    (the corresponding roots sit at/near infinity, which the chordal
    metric keeps continuous for tracking purposes).
    """
    c = np.asarray(coeffs, dtype=complex)
    if len(c) < formal_degree + 1:
        c = np.concatenate([c, np.zeros(formal_degree + 1 - len(c), dtype=complex)])
    scale = np.max(np.abs(c))
    if scale == 0.0:
        raise ValueError("zero polynomial has no root set of finite degree")
    eff = formal_degree
    while eff > 0 and abs(c[eff]) <= INF_TOL * scale:
        eff -= 1
    finite = certified_roots(c[: eff + 1])
    return list(finite) + [INF] * (formal_degree - eff)


def projective_roots_batch(rows, formal_degree, near=None):
    """projective_roots of every row of an (L, formal_degree + 1) stack, as
    a (z, inf) pair.

    Returns (z, inf, failed): (z, inf) the (L, formal_degree) roots, and
    ``failed`` a dict from the index of each row that cannot be certified
    to the RootFindingError that row raised; such a row's entries are 0 and
    False, and every other row is what it is when solved alone.

    ``near``, if given, is a (z, inf) pair of one seed fiber per row.  A
    row of full degree with a nonzero constant term whose seed has no INF
    is solved by ``_aberth`` from its seed, and kept as that solve gives it
    if ``_aberth`` accepts it.  The other rows of full degree with a
    nonzero constant term share one ``_companion_roots`` call, and each is
    kept as that call gives it if ``_certified_rows`` accepts it.  Every
    other row (a root at infinity or at zero, a residual that needs
    mpmath) goes through projective_roots.  So every row that is not kept
    from its seed equals projective_roots on that row bit for bit, INF
    included; without ``near``, every row does.  A stack whose rows all
    take the companion route and certify, as an unseeded stack of
    full-degree rows with nonzero constant terms usually does, is returned
    as that one solve gives it, with no row gathered or scattered.
    """
    c = np.asarray(rows, dtype=complex)
    d = formal_degree
    z = np.zeros((len(c), d), dtype=complex)
    inf = np.zeros((len(c), d), dtype=bool)
    lead = c[:, d]
    # np.hypot matches the scalar abs() that projective_roots applies here
    fast = (np.hypot(lead.real, lead.imag) > INF_TOL * _row_scales(c)) & (c[:, 0] != 0)
    companion = fast.copy()
    if near is not None:
        seeded = np.flatnonzero(fast & ~near[1].any(axis=1))
        roots, ok = _aberth(c[seeded, ::-1], near[0][seeded])
        z[seeded[ok]] = roots[ok]
        companion[seeded[ok]] = False
    idx = np.flatnonzero(companion)
    if len(idx):
        whole = len(idx) == len(c)
        desc = c[:, ::-1] if whole else c[idx, ::-1]
        roots = _companion_roots(desc)
        ok = _certified_rows(desc, roots)
        if whole and ok.all():
            # every row took the companion route and certified
            return roots, inf, {}
        z[idx[ok]] = roots[ok]
        fast[idx[~ok]] = False
    failed = {}
    for i in np.flatnonzero(~fast).tolist():
        try:
            z[i], inf[i] = point_arrays(projective_roots(c[i], d))
        except RootFindingError as exc:
            failed[i] = exc
    return z, inf, failed


def point_arrays(points):
    """The (z, inf) pair of an array-like of points (complex or INF)."""
    obj = np.asarray(points, dtype=object)
    inf = np.array([p is INF for p in obj.flat], dtype=bool).reshape(obj.shape)
    return np.where(inf, 0j, obj).astype(complex), inf


def homogeneous(z, inf):
    """The points (z, inf) in normalized homogeneous coordinates, as one
    (..., 3, n) array of the rows Re u, Im u and v: x = u / v with
    |u|^2 + v^2 = 1 and v >= 0 real, and INF = (1, 0)."""
    # dividing by max(1, |z|) first keeps |z|^2 from overflowing
    s = np.maximum(1.0, np.hypot(z.real, z.imag))
    rows = np.where(inf, 1.0, z.real / s), z.imag / s, np.where(inf, 0.0, 1.0 / s)
    norm = np.sqrt(rows[0] * rows[0] + rows[1] * rows[1] + rows[2] * rows[2])
    h = np.empty(z.shape[:-1] + (3,) + z.shape[-1:])
    for k, row in enumerate(rows):
        np.divide(row, norm, out=h[..., k, :])
    return h


def chordal2(a, b):
    """The squared chordal distance of a[..., i] and b[..., j] for every
    pair, as an (..., n, m) array, from the ``homogeneous`` points
    a (..., 3, n) and b (..., 3, m).

    It is the squared modulus of the 2 x 2 determinant u_a v_b - v_a u_b.
    Each of its products is rounded once and none cancels against a
    term of size 1, so the distance is accurate to a few ulp in absolute
    terms, two equal points are at exactly 0, and nothing overflows.  (The
    sphere dot product 1 - P.Q cancels: it cannot tell points 1e-9 apart.)
    """

    def outer(p, q):
        return np.einsum("...i,...j->...ij", p, q)

    ur, ui, v = a[..., 0, :], a[..., 1, :], a[..., 2, :]
    wr, wi, w = b[..., 0, :], b[..., 1, :], b[..., 2, :]
    re = outer(ur, w)
    re -= outer(v, wr)
    im = outer(ui, w)
    im -= outer(v, wi)
    re *= re
    im *= im
    re += im
    return re


def min_pairwise_chordal2(h):
    """The smallest squared chordal distance between two of the
    ``homogeneous`` points h (..., 3, n) (inf if fewer than two)."""
    n = h.shape[-1]
    dist = chordal2(h, h)
    dist[..., np.arange(n), np.arange(n)] = np.inf
    return dist.min(axis=(-2, -1), initial=np.inf)


def chordal(za, ia, zb, ib):
    """The chordal distance on the sphere, normalized to [0, 1], of
    a[..., i] and b[..., j] for every pair: (za, ia) holds points a of
    shape (..., n) and (zb, ib) points b of shape (..., m); the result has
    shape (..., n, m)."""
    return np.sqrt(chordal2(homogeneous(za, ia), homogeneous(zb, ib)))


def rationalize_into_field(ctx, z):
    """Express complex z as an exact element of ctx, or None.

    Solves z = sum c_k alpha^k over the reals by least squares on the
    power basis, rounds each coordinate to a small-denominator rational,
    and verifies the embedding reproduces z.  One complex value gives two
    real equations, so for extension degree >= 3 the coordinates are
    underdetermined and the answer is None rather than a guess.
    """
    m = ctx.degree
    if m >= 3:
        return None
    alpha = ctx.embedding()
    basis = [alpha**k for k in range(m)]
    A = np.array([[b.real for b in basis], [b.imag for b in basis]])
    rhs = np.array([z.real, z.imag])
    sol, *_ = np.linalg.lstsq(A, rhs, rcond=None)
    fracs = [Fraction(float(c)).limit_denominator(MAX_DEN) for c in sol]
    elt = ctx.element(fracs)
    if abs(ctx.embed(elt) - z) <= RATIONALIZE_TOL * max(1.0, abs(z)):
        return elt
    return None


def named_rng(seed, name):
    """A deterministic per-module numpy Generator derived from one seed."""
    tag = int.from_bytes(name.encode("utf8"), "big") % (2**32)
    return np.random.default_rng([int(seed) % (2**63), tag])
