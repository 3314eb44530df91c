from fractions import Fraction

import pytest

from mme.catalog import (
    ENTRY_NAMES,
    entry,
    iterate_square_identity_check,
    omega_field,
    parse_param,
)
from mme.ratmaps import MapError


def test_all_entries_constructible():
    for name in ENTRY_NAMES:
        e = entry(name)
        assert e.name == name
        assert e.maps


def test_unknown_entry_rejected():
    with pytest.raises(MapError):
        entry("not-a-family")


def test_parse_param_accepts_omega_terms():
    ctx = omega_field()
    w = ctx.gen()
    assert parse_param(ctx, "1+w") == ctx.one + w
    assert parse_param(ctx, "2") == ctx.from_rational(2)
    assert parse_param(ctx, "1/2") == ctx.from_rational(1) / ctx.from_rational(2)


def old_parse_param(ctx, value):
    """The hand-written term grammar that catalog parameters were read with
    before the map grammar read them; kept as a reference."""
    text = value.replace(" ", "")
    total = ctx.zero
    term = ""
    sign = 1
    tokens = []
    for ch in text:
        if ch in "+-" and term:
            tokens.append((sign, term))
            sign = 1 if ch == "+" else -1
            term = ""
        elif ch == "-" and not term:
            sign = -sign
        else:
            term += ch
    tokens.append((sign, term))
    for sgn, t in tokens:
        if t.endswith("w"):
            scal = t[:-2] if t.endswith("*w") else t[:-1]
            part = (ctx.from_rational(Fraction(scal)) if scal else ctx.one) * ctx.gen()
        else:
            part = ctx.from_rational(Fraction(t))
        total = total + part if sgn > 0 else total - part
    return total


@pytest.mark.parametrize("text", ["1+w", "-2+3*w", "2-1*w", "-w", "--w", "1/2", "1/2w",
                                  "2w", "3*w", "1--w", "-1/3-2/5*w", "0.5"])
def test_parse_param_equals_old_term_grammar(text):
    ctx = omega_field()
    assert parse_param(ctx, text) == old_parse_param(ctx, text)


def test_chebyshev_flower_certificates_at_samples():
    for a in ("1", "2", "1+w"):
        rep = entry("chebyshev-flower", {"a": a}).run()
        assert rep.passed(), (a, rep.claims)


def test_zieve_family_certificates_match_expected():
    for n, m in ((2, 1), (1, 2), (2, 2)):
        e = entry("zieve-family", {"n": n, "m": m})
        rep = e.run()
        got = {name: verdict for name, verdict, _w in rep.claims}
        for name, want in e.expected:
            assert got[name] == want, (n, m, name, got)


def test_zieve_symmetric_case_has_genuine_mobius_factor():
    # at n = m the maps R, S are exactly related by z -> -1-z
    e = entry("zieve-family", {"n": 2, "m": 2})
    rep = e.run()
    witness = [w for name, v, w in rep.claims if v == "FAIL" and w is not None]
    assert witness
    sigma = witness[0]
    assert sigma.compose(e.maps["S"]) == e.maps["R"]


def test_iterate_square_identity():
    ctx = omega_field()
    assert iterate_square_identity_check(ctx.one) == "PASS"
    two = ctx.from_rational(2)
    assert iterate_square_identity_check(two) == "PASS"


def test_flower_maps_differ_at_opposite_parameters():
    ctx = omega_field()
    e1 = entry("chebyshev-flower", {"a": "1"})
    # f and g are distinct maps even though every certificate relates them
    assert e1.maps["f"] != e1.maps["g"]
