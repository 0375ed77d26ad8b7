"""The exact outputs of the closed-form builders, pinned by digest.

Everything hashed is an exact rational, or a float of one, so the digests
do not depend on the platform.  The smoothstep profiles and the Lie-series
pullback are unique, so any correct rewrite of either keeps them.
"""

import hashlib
from fractions import Fraction as Fr

from bracketlab import expansions, flows, witness
from bracketlab.liepoly import LiePoly
from bracketlab.reporting import canonical_json


def _digest(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


def test_witness_profiles_are_pinned():
    fields = witness.build_witness(check=False)
    profiles = {
        "u_prime": fields.u_prime,
        "w_prime": fields.w_prime,
        "a_left_taper": fields.a.left,
        "a_right_taper": fields.a.right,
        "plateau_bump(-3, 4, 5)": witness.plateau_bump(-3, 4, 5),
    }
    assert {name: _digest(p.to_json()) for name, p in profiles.items()} == {
        "u_prime": "c63e17744e7ae5e7644d84286efd3710c54c7c66ae5ef2b862e7628bb043c2f0",
        "w_prime": "f6354b34bff23f255f12f377e2a530a0257319b9a3e42da3b941851fe080b2b5",
        "a_left_taper": "480154448509d23c7d3dbefcc467adb7f993e170f998599d47b336bdc4405231",
        "a_right_taper": "aa0ed387a2968abe9ff60c610bf7fb5a32aa24cd750fa95bd882e6cd35ba325e",
        "plateau_bump(-3, 4, 5)": "43b485a342786daec85ac4fa0410e1e623b1f570c09deac9679ee7cca9e155d9",
    }


def test_expansion_series_are_pinned():
    series = {
        "symmetrized": expansions.verify_symmetrized_expansion(8).series,
        "conjugated": expansions.verify_conjugated_expansion(8).series,
    }
    assert {name: _digest(s.to_json()) for name, s in series.items()} == {
        "symmetrized": "8665f34da5099f9b7004030693ed1a1eb96b02547cf387184e92f10ebfce13ff",
        "conjugated": "507685158fcd996bc05009f5a3932527bfcc60f662229a7db791f055b8882ccc",
    }


def _timed_factor(a, b, *time):
    """phi_X^{c(tau)} for X = a F + b G and c(tau) = time[0] + time[1] tau + ..."""
    gen = LiePoly.letter("F", 2).scale(a) + LiePoly.letter("G", 2).scale(b)
    return flows.Factor(gen, flows.time_poly(*time))


def _factor(a, b, c):
    """phi_X^{c tau} for X = a F + b G."""
    return _timed_factor(a, b, 0, c)


def test_nonzero_flow_series_are_pinned():
    # four factors whose twelve rationals a, b, c have mixed signs and
    # denominators 1, 2 and 3, so the tau^8 coefficients carry large
    # reduced denominators; a loop w.w^-1 would pin only the zero series
    w = flows.Product((
        _factor(Fr(1, 2), Fr(-3), Fr(2, 3)),
        flows.Product((_factor(Fr(-1), Fr(1, 3), Fr(3, 2)), _factor(Fr(2), Fr(-1, 2), Fr(-1, 3)))),
        _factor(Fr(3), Fr(1), Fr(-2)),
    ))
    series = {"w": flows.path_generator(w, 8), "inverse": flows.path_generator(flows.Inverse(w), 8)}
    assert all(not s.is_zero() for s in series.values())
    assert {name: _digest(s.to_json()) for name, s in series.items()} == {
        "w": "4863bdbd9804f9926b3322ffcae1d80424368690accf63a59e26afdb34f17b6f",
        "inverse": "2a97aec06a909441cf9f9bf343073b5a8c3db899b3bbb91da55d7108558560d8",
    }


def test_mixed_time_flow_series_are_pinned():
    # a constant, a linear, a quadratic and a mixed time c = 1/2 - tau + 2/3 tau^2:
    # constant parts put every power of c(tau) at every tau order, and the
    # mixed time gives those powers cross terms
    w = flows.Product((
        _timed_factor(Fr(1, 2), Fr(-1), Fr(1, 3)),
        _timed_factor(Fr(2), Fr(1, 3), 0, Fr(-3, 2)),
        flows.Inverse(_timed_factor(Fr(-1), Fr(3, 2), 0, 0, Fr(2, 3))),
        _timed_factor(Fr(1), Fr(-2), Fr(1, 2), -1, Fr(2, 3)),
    ))
    series = {"w": flows.path_generator(w, 8), "inverse": flows.path_generator(flows.Inverse(w), 8)}
    assert all(not s.is_zero() for s in series.values())
    assert {name: _digest(s.to_json()) for name, s in series.items()} == {
        "w": "a721090e57e964d0f34b7e4ed34f4e56a7d694941ad80b31197ee9e27d43ed1c",
        "inverse": "4a1764ab65e3c4773cc1fae11626ffa13d43c2afbb747bc035c1a64aa1fa7b7e",
    }
