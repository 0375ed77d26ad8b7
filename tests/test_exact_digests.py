"""The exact outputs of the closed-form builders, pinned by digest.

Everything hashed by the symbolic tests is an exact rational, or a float
of one, so those digests do not depend on the platform.  The smoothstep
profiles and the Lie-series pullback are unique, so any correct rewrite
of either keeps them.

The numeric tests pin floating-point results of the jet, field and
bracket arithmetic bit for bit, the sign of every zero included.  They
depend on numpy's sin, cos and log, so another platform may need them
taken again; a change to the arithmetic that keeps every value keeps them.
"""

import hashlib
from fractions import Fraction as Fr

import numpy as np

from bracketlab import expansions, flows, functionals, ratescan, witness
from bracketlab.domain import Domain2
from bracketlab.fields import sin_p, sin_q, trig_polynomial
from bracketlab.liepoly import LiePoly
from bracketlab.reporting import canonical_json


def _digest(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


def test_witness_profiles_are_pinned():
    fields = witness.build_witness(check=False)
    profiles = {
        "u_prime": fields.u.derivative(),
        "w_prime": fields.w.derivative(),
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


def _trig_pairs(dom):
    """Three pairs drawn as lh-check draws them; the third has a zero row
    and a zero coefficient, which the builder skips."""
    rng = np.random.default_rng(0)
    decay = np.array([1.0, 0.5, 0.25])
    pairs = []
    for k in range(3):
        pair = []
        for _ in range(2):
            c = rng.normal(size=(3, 3)) * decay[None, :] * decay[:, None]
            if k == 2:
                c[1] = 0.0
                c[0, 2] = 0.0
            c /= float(np.sum(np.abs(c)))
            phases = rng.uniform(0, 2 * np.pi, 3), rng.uniform(0, 2 * np.pi, 3)
            pair.append(trig_polynomial(dom, c, *phases))
        pairs.append(pair)
    return pairs


def test_numeric_results_are_pinned():
    d64 = Domain2.torus(64)
    F, G = sin_p(d64), sin_q(d64)
    results = {
        "lh_check": [functionals.lh_check(F, G) for F, G in _trig_pairs(Domain2.torus(256))],
        "oscillation_ratios": witness.verify_oscillation_ratios(
            witness.build_witness(), N_list=(137, 4242), n=256),
        "phi_bar_upper": {
            which: ratescan.phi_bar_upper(F, G, 1e-2, which=which, budget=30)
            for which in ("maxFG", "double")
        },
    }
    assert {name: _digest(r) for name, r in results.items()} == {
        "lh_check": "1b13fdae975642607da420a21603f3e98cf1403efa0c8b7f98fac66c26294e0e",
        "oscillation_ratios": "e9787ab767b689c26001f0e989963b9c5505b86000a586db31b9cc3360d38754",
        "phi_bar_upper": "a65ef643dbe0ea957db2445cc3d761201e8ca1712ed01b76e5edfebdf7db21ff",
    }
