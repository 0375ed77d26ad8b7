"""Construction certifying the failure of lower semicontinuity for the
one-sided double-bracket functionals.

The split-variable pair is F = u(p), G = -v(q) with v' = w, perturbed by
F_N = u(p) + (1/N) a(q) sin(N u(p)).  The profiles u, w, a are smooth,
compactly supported, and tuned so that the auxiliary field

    R(p,q) = w'(q) (a(q) cos(Nu(p)) + 1)^2 + a'(q) w(q) (a(q) + cos(Nu(p)))

is uniformly below 0.99 while max {{F,G},F} = max u'^2 max w' = 1, which
drives both max and -min of {{F_N,G},F_N} strictly below 0.99 + O(1/N).

Geometry note: the slope caps (|w'| <= 0.01 off the wiggle, |a'| <= 0.03
off [c1,c4]) force supports a few hundred units long, while the wiggle
carrying max w' = 1 lives inside an interval of width delta = 0.05.  A
uniform grid cannot resolve both, so 2-D evaluation happens on a window
around [c1, c4] and everything outside the window is certified by the
1-D pointwise bound |R| <= |w'|(1+|a|)^2 + |a' w|(|a|+1), which is the
0.36-style tail estimate.

Every field is built from functions of one variable: one ProfileField
leaf per profile (u of p; v, w, a of q) and domain, so the fields on one
window share their leaves, and a window pass evaluates each q profile
once.  Derivatives of profiles, w' and a' in R and u' in u'^2, are
d/dq and d/dp nodes over those leaves.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .brackets import BracketField
from .domain import Domain2
from .errors import CheckFailed, ConstructionError, PreconditionError
from .fields import DerivedField, JetField, ProfileField, values_of
from .jets import Jet2, jet_cos, jet_log, jet_sin
from .piecewise import PiecewisePoly, build_profile, table_profile
from .reporting import check

GAMMA = Fraction(163, 100)  # the fixed ratio -a' w / w' on [c1, c4]
ALPHA0 = Fraction(11, 10)
R_BOUND = 0.99

# The printed side conditions on w state both "1 <= w <= 2 on [c1,c4]"
# and "max w = -min w = 1", which cannot hold together.  The reading
# implemented here takes the max/min condition to be about w' (matching
# the use "0.99 max w' = -0.99 min w' = 0.99" in the R bound), and the
# direct numerical bound |R| <= 0.99 is the arbiter either way.  This
# flag is surfaced in every build report so the choice is never silent.
CONDITION_V_READING = "max/min condition read as: global max w' = -min w' = 1"


# -- the quadratic r(alpha, gamma, z) -----------------------------------------


def r_eval(alpha: float, gamma: float, z):
    """r(alpha, gamma, z) = (alpha z + 1)^2 - gamma (alpha + z)."""
    z = np.asarray(z, dtype=float)
    return (alpha * z + 1.0) ** 2 - gamma * (alpha + z)


def r_extrema(alpha: float, gamma: float) -> dict:
    """Endpoint and interior-critical values of z -> r(alpha, gamma, z)
    over [-1, 1]; exact quadratic analysis."""
    r_m1 = float(r_eval(alpha, gamma, -1.0))
    r_p1 = float(r_eval(alpha, gamma, 1.0))
    z_crit = (gamma - 2.0 * alpha) / (2.0 * alpha * alpha)
    out = {"r_minus1": r_m1, "r_plus1": r_p1, "z_critical": z_crit}
    if -1.0 <= z_crit <= 1.0:
        out["critical_value"] = float(r_eval(alpha, gamma, z_crit))
    return out


def r_max_abs(alpha, gamma: float):
    """max_{z in [-1,1]} |r(alpha, gamma, z)|, vectorized over alpha."""
    alpha = np.asarray(alpha, dtype=float)
    cand = np.maximum(np.abs(r_eval(alpha, gamma, -1.0)), np.abs(r_eval(alpha, gamma, 1.0)))
    z_crit = (gamma - 2.0 * alpha) / (2.0 * alpha**2)
    interior = np.abs(z_crit) <= 1.0
    z_clamped = np.clip(z_crit, -1.0, 1.0)
    crit = np.abs(r_eval(alpha, gamma, z_clamped))
    return np.where(interior, np.maximum(cand, crit), cand)


def kappa_search(
    gamma: float = float(GAMMA),
    bound: float = R_BOUND,
    alpha0: float = float(ALPHA0),
    sweep_resolution: float = 1e-5,
) -> float:
    """Largest half-width kappa (bisected to 1e-8) such that
    max_z |r(alpha, gamma, z)| < bound for every alpha in
    [alpha0 - kappa, alpha0 + kappa], swept at the given resolution."""
    if not sweep_resolution > 0:
        raise PreconditionError(f"sweep resolution must be positive, got {sweep_resolution}")
    at_center = float(r_max_abs(alpha0, gamma))
    if not at_center < bound < 1.0:
        raise PreconditionError(
            f"bound must lie in (max|r| at alpha0, 1) = ({at_center:.6g}, 1); got {bound}"
        )

    def feasible(kappa: float) -> bool:
        m = max(3, int(np.ceil(2.0 * kappa / sweep_resolution)) + 1)
        alphas = np.linspace(alpha0 - kappa, alpha0 + kappa, m)
        return bool(np.all(r_max_abs(alphas, gamma) < bound))

    lo, hi = 0.0, 1e-4
    while feasible(hi):
        lo, hi = hi, hi * 2.0
        if hi > 1.0:
            return lo
    while hi - lo > 1e-8:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


def r_rectangle_scan(kappa: float, gamma: float = float(GAMMA),
                     alpha0: float = float(ALPHA0), bound: float = R_BOUND) -> dict:
    """Max of |r| over [alpha0-kappa, alpha0+kappa] x [-1, 1], checked
    < bound: exact in z (r_max_abs), sampled in alpha at resolution 1e-4."""
    na = max(3, int(np.ceil(2 * kappa / 1e-4)) + 1)
    alphas = np.linspace(alpha0 - kappa, alpha0 + kappa, na)
    return check(float(np.max(r_max_abs(alphas, gamma))), bound, "<", "sampled")


# -- configuration -------------------------------------------------------------


@dataclass(frozen=True)
class WitnessConfig:
    """Geometry of the construction; all lengths exact rationals."""

    delta: Fraction = Fraction(1, 20)
    c1: Fraction = Fraction(311, 2)
    w_plateau: Fraction = Fraction(6, 5)
    rise_len: Fraction = Fraction(150)
    buffer_len: Fraction = Fraction(5)
    descent_len: Fraction = Fraction(312)
    ascent_len: Fraction = Fraction(156)
    taper_len: Fraction = Fraction(40)
    taper_blend: Fraction = Fraction(3)
    ramp_len: Fraction = Fraction(1, 500)
    boundary_slope: Fraction = Fraction(1, 1000)
    spike_blend: Fraction = Fraction(7, 20000)
    spike_plateau: Fraction = Fraction(7, 20000)
    a_start: Fraction = Fraction(11, 10)
    window_margin: Fraction = Fraction(1, 20)

    def __post_init__(self):
        wiggle = 2 * (2 * self.spike_blend + self.spike_plateau) + 4 * self.ramp_len
        if self.delta <= wiggle:
            raise PreconditionError(f"delta must be > {wiggle} for the wiggle pieces to fit "
                                    f"inside [c2, c3], got {self.delta}")
        if self.q_start <= 0:
            raise PreconditionError("construction must live in the positive half-line")
        for name, L, drop in (
            ("rise", self.rise_len, self.w_plateau),
            ("descent", self.descent_len, 2 * self.w_plateau),
            ("ascent", self.ascent_len, self.w_plateau),
        ):
            blend = L / 6
            slope = drop / (L - blend)
            if slope > Fraction(1, 100):
                raise ConstructionError(
                    f"{name} tail of length {L} cannot carry {drop} under |w'| <= 0.01"
                )
        t_slope = self.a_start / (self.taper_len - self.taper_blend)
        if t_slope > Fraction(3, 100):
            raise ConstructionError(
                f"taper length {self.taper_len} cannot carry {self.a_start} under |a'| <= 0.03"
            )

    @property
    def c2(self) -> Fraction:
        return self.c1 + self.delta

    @property
    def c3(self) -> Fraction:
        return self.c1 + 2 * self.delta

    @property
    def c4(self) -> Fraction:
        return self.c1 + 3 * self.delta

    @property
    def q_start(self) -> Fraction:
        return self.c1 - self.buffer_len - self.rise_len

    @property
    def spike_area(self) -> Fraction:
        return self.spike_blend + self.spike_plateau


# -- 1-D building blocks --------------------------------------------------------


def _build_u_profile() -> PiecewisePoly:
    """u' with flat stretches at exactly +-1; u'' stays small (~1.09)."""
    segs = [
        ("step", 0, 2, 0, 1),
        ("const", 2, 4, 1),
        ("step", 4, 6, 1, 0),
        ("const", 6, 7, 0),
        ("step", 7, 9, 0, -1),
        ("const", 9, 11, -1),
        ("step", 11, 13, -1, 0),
    ]
    return build_profile(segs, K=3)


def _build_w_profile(cfg: WitnessConfig) -> tuple[PiecewisePoly, Fraction]:
    """w' as a profile.  Returns (profile, neg_plateau_len) with the
    negative-lobe plateau length solved exactly so that the integral of
    w vanishes."""
    g = cfg.ramp_len
    bs = cfg.boundary_slope
    c1, c2, c3, c4 = cfg.c1, cfg.c2, cfg.c3, cfg.c4
    m = (c2 + c3) / 2
    W = 2 * cfg.spike_blend + cfg.spike_plateau
    up0 = m - cfg.delta / 4 - W / 2
    dn0 = m + cfg.delta / 4 - W / 2
    rb = cfg.rise_len / 6
    db = cfg.descent_len / 6
    ab = cfg.ascent_len / 6
    h_r = cfg.w_plateau / (cfg.rise_len - rb)
    h_d = 2 * cfg.w_plateau / (cfg.descent_len - db)
    h_a = cfg.w_plateau / (cfg.ascent_len - ab)

    def wiggle_segments() -> list[tuple]:
        r, pl = cfg.spike_blend, cfg.spike_plateau
        return [
            ("step", c2 - g, c2, 0, bs),
            ("step", c2, c2 + g, bs, 0),
            ("const", c2 + g, up0, 0),
            ("step", up0, up0 + r, 0, 1),
            ("const", up0 + r, up0 + r + pl, 1),
            ("step", up0 + r + pl, up0 + W, 1, 0),
            ("const", up0 + W, dn0, 0),
            ("step", dn0, dn0 + r, 0, -1),
            ("const", dn0 + r, dn0 + r + pl, -1),
            ("step", dn0 + r + pl, dn0 + W, -1, 0),
            ("const", dn0 + W, c3 - g, 0),
            ("step", c3 - g, c3, 0, -bs),
            ("step", c3, c3 + g, -bs, 0),
        ]

    def assemble(neg_len: Fraction) -> PiecewisePoly:
        q0 = cfg.q_start
        rise_end = q0 + cfg.rise_len
        desc0 = c4 + cfg.buffer_len
        desc_end = desc0 + cfg.descent_len
        asc0 = desc_end + neg_len
        segs: list[tuple] = []
        segs += table_profile(q0, rise_end, h_r, rb)
        segs += [("const", rise_end, c2 - g, 0)]
        segs += wiggle_segments()
        segs += [("const", c3 + g, desc0, 0)]
        segs += table_profile(desc0, desc_end, -h_d, db)
        if neg_len > 0:
            segs += [("const", desc_end, asc0, 0)]
        segs += table_profile(asc0, asc0 + cfg.ascent_len, h_a, ab)
        return build_profile(segs, K=3)

    base = assemble(Fraction(0))
    w0 = base.antiderivative(Fraction(0))
    fixed_area = w0.integral()
    neg_len = fixed_area / cfg.w_plateau
    if neg_len <= 0:
        raise ConstructionError("negative lobe length came out non-positive; geometry infeasible")
    return assemble(neg_len), neg_len


def _build_a_taper(cfg: WitnessConfig, side: str) -> PiecewisePoly:
    """a on the taper interval, rising 0 -> a_start (left) or falling
    a_start -> 0 (right) under the |a'| <= 0.03 cap."""
    blend = cfg.taper_blend
    h = cfg.a_start / (cfg.taper_len - blend)
    if side == "left":
        x0, x1 = cfg.c1 - cfg.taper_len, cfg.c1
        prof = build_profile(table_profile(x0, x1, h, blend), K=3)
        return prof.antiderivative(Fraction(0))
    x0, x1 = cfg.c4, cfg.c4 + cfg.taper_len
    prof = build_profile(table_profile(x0, x1, -h, blend), K=3)
    return prof.antiderivative(cfg.a_start)


class WitnessA:
    """The modulation profile a(q): polynomial tapers outside [c1, c4]
    and the exact log form a = a(c1) - gamma (ln w - ln w(c1)) inside,
    which realizes a' = -gamma w' / w identically."""

    def __init__(self, cfg: WitnessConfig, w: PiecewisePoly):
        self.cfg = cfg
        self.w = w
        self.left = _build_a_taper(cfg, "left")
        self.right = _build_a_taper(cfg, "right")
        self.gamma = float(GAMMA)
        self.a0 = float(cfg.a_start)
        self.ln_w_c1 = float(np.log(w.eval_derivs(np.array([float(cfg.c1)]), 0)[0][0]))

    def eval_derivs(self, x, upto: int) -> list[np.ndarray]:
        x = np.asarray(x, dtype=float)
        out = [np.zeros(x.shape) for _ in range(upto + 1)]
        c1, c4 = float(self.cfg.c1), float(self.cfg.c4)
        core = (x >= c1) & (x <= c4)
        lmask = (x >= c1 - float(self.cfg.taper_len)) & (x < c1)
        rmask = (x > c4) & (x <= c4 + float(self.cfg.taper_len))
        if core.any():
            xv = x[core]
            jw = Jet2.from_univariate(self.w.eval_derivs(xv, upto), upto, "p")
            ja = jet_log(jw).scale(-self.gamma) + (self.a0 + self.gamma * self.ln_w_c1)
            for k in range(upto + 1):
                out[k][core] = ja.derivative(k, 0)
        for mask, poly in ((lmask, self.left), (rmask, self.right)):
            if mask.any():
                vals = poly.eval_derivs(x[mask], upto)
                for k in range(upto + 1):
                    out[k][mask] = vals[k]
        return out

    @property
    def uniform_norm(self) -> float:
        return self.a0  # a <= a(c1) on [c1,c4] since w >= w(c1); tapers peak there too


# -- the assembled construction --------------------------------------------------


@dataclass
class WitnessFields:
    cfg: WitnessConfig
    kappa: float
    u: PiecewisePoly
    w: PiecewisePoly
    v: PiecewisePoly
    a: WitnessA
    neg_plateau_len: Fraction
    notes: dict = dc_field(default_factory=dict)
    _leaves: dict = dc_field(default_factory=dict, init=False, repr=False, compare=False)

    # -- domains -----------------------------------------------------------

    @property
    def window_q(self) -> tuple[float, float]:
        """The window's q bounds, which do not depend on its grid size."""
        cfg = self.cfg
        return float(cfg.c1 - cfg.window_margin), float(cfg.c4 + cfg.window_margin)

    def window_domain(self, n: int) -> Domain2:
        return Domain2.rect(n, (-0.5, 13.5, *self.window_q))

    @cached_property
    def w_axis(self) -> np.ndarray:
        """The fine 1-D axis of w': 129 points on each of its pieces."""
        return _fine_axis(self.w)

    @cached_property
    def tail_bound(self) -> float:
        """The pointwise bound |w'|(1+|a|)^2 + |a' w|(|a|+1) on |R| outside
        the window, for every p and N, sampled on the fine 1-D axes of w' and
        of the a tapers."""
        q = np.unique(np.concatenate([self.w_axis, _fine_axis(self.a.left),
                                      _fine_axis(self.a.right)]))
        q0, q1 = self.window_q
        qo = q[(q < q0) | (q > q1)]
        if not qo.size:
            return 0.0
        wd = self.w.eval_derivs(qo, 1)
        ad = self.a.eval_derivs(qo, 1)
        tail = np.abs(wd[1]) * (1.0 + np.abs(ad[0])) ** 2 + np.abs(ad[1] * wd[0]) * (
            np.abs(ad[0]) + 1.0
        )
        return float(tail.max())

    # -- fields ------------------------------------------------------------

    def _profile(self, domain: Domain2, name: str) -> ProfileField:
        """The one leaf of profile `name` (u of p; v, w or a of q) on domain,
        so the fields built on one domain share it."""
        key = (domain, name)
        if key not in self._leaves:
            axis = "p" if name == "u" else "q"
            self._leaves[key] = ProfileField(domain, getattr(self, name).eval_derivs, axis)
        return self._leaves[key]

    def field_F(self, domain: Domain2) -> ProfileField:
        return self._profile(domain, "u")

    def field_G(self, domain: Domain2) -> DerivedField:
        return -self._profile(domain, "v")

    def field_FN(self, domain: Domain2, N: int) -> DerivedField:
        if N < 1:
            raise PreconditionError("N must be >= 1")

        def fn(uj: Jet2, aj: Jet2) -> Jet2:
            return uj + (aj * jet_sin(uj.scale(float(N)))).scale(1.0 / N)

        return DerivedField(fn, self._profile(domain, "u"), self._profile(domain, "a"))

    def field_R(self, domain: Domain2, N: int) -> DerivedField:
        """R from the leaves of u, w and a; w' and a' are d/dq of the last
        two, so the jets of R stop one order below theirs, at 3."""
        U, W, A = (self._profile(domain, name) for name in "uwa")
        W1, A1 = (DerivedField(Jet2.dq, X, lowers=1) for X in (W, A))

        def fn(uj: Jet2, wj: Jet2, w1j: Jet2, aj: Jet2, a1j: Jet2) -> Jet2:
            cN = jet_cos(uj.scale(float(N)))
            lead = aj * cN + 1.0
            return w1j * lead * lead + a1j * wj * (aj + cN)

        return DerivedField(fn, U, W, W1, A, A1)

    def field_uprime_sq(self, domain: Domain2) -> DerivedField:
        return DerivedField(lambda uj: (lambda d: d * d)(uj.dp()), self._profile(domain, "u"),
                            lowers=1)

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        cfg = self.cfg
        return {
            "config": {
                "delta": float(cfg.delta),
                "c": [float(cfg.c1), float(cfg.c2), float(cfg.c3), float(cfg.c4)],
                "kappa": self.kappa,
                "neg_plateau_len": float(self.neg_plateau_len),
            },
            "notes": self.notes,
            "u_prime": self.u.derivative().to_json(),
            "w_prime": self.w.derivative().to_json(),
            "a_left_taper": self.a.left.to_json(),
            "a_right_taper": self.a.right.to_json(),
            "a_core": "a(c1) - 1.63 (ln w - ln w(c1)) on [c1, c4]",
        }


def build_witness(cfg: WitnessConfig | None = None, check: bool = True) -> WitnessFields:
    """Construct all profiles and (optionally) certify every side condition."""
    cfg = cfg or WitnessConfig()
    kappa = kappa_search()
    u = _build_u_profile().antiderivative(Fraction(0))
    w_prime, neg_len = _build_w_profile(cfg)
    w = w_prime.antiderivative(Fraction(0))
    if w.integral() != 0:
        raise ConstructionError("integral of w failed to cancel exactly")
    v = w.antiderivative(Fraction(0))
    a = WitnessA(cfg, w)
    fields = WitnessFields(
        cfg=cfg,
        kappa=kappa,
        u=u,
        w=w,
        v=v,
        a=a,
        neg_plateau_len=neg_len,
        notes={
            "condition_v_reading": CONDITION_V_READING,
            "spike_area": float(cfg.spike_area),
        },
    )
    if check:
        report = check_witness_invariants(fields)
        bad = [k for k, r in report.items() if not r["pass"]]
        if bad:
            raise ConstructionError(f"witness construction violates: {bad}; report={report}")
    return fields


# -- invariant certification -----------------------------------------------------


def _fine_axis(poly: PiecewisePoly) -> np.ndarray:
    pts = []
    for p in poly.pieces:
        pts.append(np.linspace(float(p.x0), float(p.x1), 129))
    return np.unique(np.concatenate(pts))


def check_witness_invariants(fields: WitnessFields) -> dict:
    """Every side condition as a check record.  Junction jumps and the
    integral of w are exact rationals (certified); the rest is sampled on
    1-D grids refined piece by piece (finer than delta/100 inside the
    wiggle)."""
    cfg = fields.cfg
    c1, c2, c3, c4 = (float(cfg.c1), float(cfg.c2), float(cfg.c3), float(cfg.c4))

    def sampled(value, bound, sense):
        return check(value, bound, sense, "sampled")

    def smooth(poly):  # order-4 jets are continuous: the profiles are C^3 exactly
        return check(max(poly.junction_jumps(3)), 0, "==", "certified")

    q = fields.w_axis  # holds every knot of w, c2 and c3 among them
    wv, wp = fields.w.eval_derivs(q, 1)
    in_c23 = (q >= c2) & (q <= c3)
    in_c14 = (q >= c1) & (q <= c4)
    pos_off_c23 = (q >= 0) & ~in_c23
    pos_off_c14 = (q >= 0) & ~in_c14
    wc2, wc3 = wp[q == c2][0], wp[q == c3][0]

    av, ap = fields.a.eval_derivs(q, 1)
    lo, hi = float(cfg.a_start) - fields.kappa, float(cfg.a_start) + fields.kappa
    resid = np.abs(ap[in_c14] + float(GAMMA) * wp[in_c14] / wv[in_c14]).max()
    up = fields.u.derivative()(_fine_axis(fields.u))
    return {
        "w_cond_i_max": sampled(wp[in_c23].max(), 1.0, "=="),
        "w_cond_i_min": sampled(wp[in_c23].min(), -1.0, "=="),
        "w_cond_i_at_c2": check(wc2, 0.001, "==", "sampled", 1e-15),
        "w_cond_i_at_c3": check(wc3, -0.001, "==", "sampled", 1e-15),
        "w_cond_ii_min": sampled(wv[in_c14].min(), 1.0, ">="),
        "w_cond_ii_max": sampled(wv[in_c14].max(), 2.0, "<="),
        "w_cond_iii_slope_off_wiggle": sampled(np.abs(wp[pos_off_c23]).max(), 0.01, "<="),
        "w_cond_iv_bound_outside": sampled(np.abs(wv[pos_off_c14]).max(), 3.0, "<="),
        "w_cond_v_global_slope_max": sampled(wp.max(), 1.0, "=="),
        "w_cond_v_global_slope_min": sampled(wp.min(), -1.0, "=="),
        "w_cond_vi_integral": check(fields.w.integral(), 0, "==", "certified"),
        "w_c4_smooth": smooth(fields.w.derivative()),
        "u_c4_smooth": smooth(fields.u.derivative()),
        "a_cond_ii_min": sampled(av[in_c14].min(), lo, ">="),
        "a_cond_ii_max": sampled(av[in_c14].max(), hi, "<="),
        "a_cond_iii_slope": sampled(np.abs(ap[pos_off_c14]).max(), 0.03, "<="),
        "a_cond_iii_bound": sampled(np.abs(av[pos_off_c14]).max(), 2.0, "<="),
        "a_cond_i_ode": sampled(resid, 1e-12, "<="),
        "u_slope_peak_max": sampled(up.max(), 1.0, "=="),
        "u_slope_peak_min": sampled(up.min(), -1.0, "=="),
        "lemma_r_rectangle": r_rectangle_scan(fields.kappa),
    }


# -- R bound and the main verification --------------------------------------------

CHUNK_ROWS = 128


def _window_extrema(roots: list[JetField], dom: Domain2) -> list[tuple]:
    """(max, min) of each root's values on the window grid, as np.max and
    np.min of the whole n x n array give them (NaN included).  The roots
    are evaluated together on one 128-row chunk at a time, so a bracket
    tree's n^2 temporaries stay chunk x n and no whole-window array is
    formed."""
    p, q = dom.coords()
    chunks = [  # per chunk, each root's extrema
        [(v.max(), v.min()) for v in values_of(roots, (p[i0 : i0 + CHUNK_ROWS], q))]
        for i0 in range(0, dom.n, CHUNK_ROWS)
    ]
    return [(np.max([s[0] for s in per_chunk]), np.min([s[1] for s in per_chunk]))
            for per_chunk in zip(*chunks)]  # one root, chunk by chunk


def _abs_max(hi, lo) -> float:
    """max |x| from x's _window_extrema."""
    return float(max(abs(hi), abs(lo)))


def r_field(fields: WitnessFields, N: int, n: int) -> dict:
    """Evaluate R on the 2-D window and check |R| <= 0.99 globally.

    Inside the window |R| is sampled on the grid; outside, the pointwise
    bound |w'|(1+|a|)^2 + |a' w|(|a|+1), sampled on a fine 1-D grid,
    covers every (p, q) regardless of the oscillatory factor.
    """
    dom = fields.window_domain(n)
    (ext,) = _window_extrema([fields.field_R(dom, N)], dom)
    return {
        "N": N,
        "checks": {
            "max_abs_R_window": check(_abs_max(*ext), R_BOUND, "<=", "sampled"),
            "tail_bound_outside_window": check(fields.tail_bound, R_BOUND, "<=", "sampled"),
        },
    }


def verify_oscillation_ratios(
    fields: WitnessFields, N_list: tuple[int, ...], n: int
) -> dict:
    """Ratios max/min {{F_N,G},F_N} over {{F,G},F} and the O(1/N) residual
    against u'^2 R, per oscillation frequency N.  The fields of every N are
    built before anything is evaluated, and evaluated in one pass over the
    window."""
    if not N_list:
        raise PreconditionError("N_list is empty: give at least one frequency N")
    dom = fields.window_domain(n)
    F, G, uR = fields.field_F(dom), fields.field_G(dom), fields.field_uprime_sq(dom)
    roots = [BracketField(BracketField(F, G), F)]
    for N in N_list:  # field_FN refuses N < 1
        FN, R = fields.field_FN(dom, N), fields.field_R(dom, N)
        DN = BracketField(BracketField(FN, G), FN)
        roots += [DN, DerivedField(operator.sub, DN, uR * R), R]
    (d0_max, d0_min), *per_N = _window_extrema(roots, dom)
    if d0_max <= 0 or d0_min >= 0:
        raise CheckFailed("unperturbed double bracket has degenerate extrema")
    d0_max, d0_min = float(d0_max), float(d0_min)
    tail = fields.tail_bound

    rows = []
    for k, N in enumerate(N_list):
        dn, res, r = per_N[3 * k : 3 * k + 3]
        resid = _abs_max(*res)
        rows.append(
            {
                "N": N,
                "ratio_max": float(dn[0]) / d0_max,
                "ratio_min": float(dn[1]) / d0_min,
                "residual": resid,
                "residual_times_N": resid * N,
                "maxR": max(_abs_max(*r), tail),
            }
        )
    ratios = [max(row["ratio_max"], row["ratio_min"]) for row in rows]
    rn = [row["residual_times_N"] for row in rows]
    checks = {
        "max_abs_R": check(max(row["maxR"] for row in rows), R_BOUND, "<=", "sampled"),
        # the ratios sit below the R bound up to the O(1/N) term
        "ratio_within_envelope": check(
            max(r - 2.0 * row["residual"] / d0_max for r, row in zip(ratios, rows)),
            R_BOUND, "<=", "sampled",
        ),
        "residual_times_N_spread": check(
            max(rn) / min(rn) if min(rn) > 0 else np.inf, 2.0, "<=", "sampled"
        ),
    }
    large = [r for r, row in zip(ratios, rows) if row["N"] >= 1000]
    if large:
        checks["ratio_at_N_ge_1000"] = check(max(large), 0.995, "<=", "sampled")
    return {"denominator_max": d0_max, "denominator_min": d0_min, "rows": rows, "checks": checks}


# -- compact support via cutoffs ---------------------------------------------------


def plateau_bump(lo, hi, margin) -> PiecewisePoly:
    """C^4 plateau: exactly 1 on [lo, hi], 0 outside [lo-margin, hi+margin]."""
    lo_f, hi_f, m_f = Fraction(lo), Fraction(hi), Fraction(margin)
    segs = [
        ("step", lo_f - m_f, lo_f, 0, 1),
        ("const", lo_f, hi_f, 1),
        ("step", hi_f, hi_f + m_f, 1, 0),
    ]
    return build_profile(segs, K=4)


def cutoff_witness(
    fields: WitnessFields,
    margin: float = 5.0,
    n: int = 512,
    plateau: tuple | None = None,
) -> dict:
    """Check that multiplying by a plateau cutoff (identically 1 on the
    support rectangle I x J) changes neither {.,.} nor the maxima:
    {phi F, phi G} = phi^2 {F, G} pointwise and
    max {phi F, {phi F, phi G}} = max {F, {F, G}}, each residual sampled
    on an n x n grid and checked <= 1e-9.

    `plateau`, when given as (p_lo, p_hi, q_lo, q_hi), overrides where the
    cutoff is identically one; it must still cover I x J.
    """
    cfg = fields.cfg
    I = (0.0, 13.0)  # supp u
    qlo = float(min(fields.w.support[0], fields.a.left.support[0]))
    qhi = float(max(fields.w.support[1], fields.a.right.support[1]))
    J = (qlo, qhi)
    if margin <= 0:
        raise PreconditionError("cutoff needs a positive taper margin")
    if plateau is None:
        plateau = (I[0] - 1.0, I[1] + 1.0, J[0] - 1.0, J[1] + 1.0)
    if not (
        plateau[0] <= I[0] and plateau[1] >= I[1] and plateau[2] <= J[0] and plateau[3] >= J[1]
    ):
        raise PreconditionError(
            "cutoff plateau does not cover the support rectangle; the identities need "
            "phi = 1 on supp F x supp G"
        )

    phi_p = plateau_bump(plateau[0], plateau[1], margin)
    phi_q = plateau_bump(plateau[2], plateau[3], margin)
    pad = margin + 2.0
    dom = Domain2.rect(
        n, (plateau[0] - pad, plateau[1] + pad, plateau[2] - pad, plateau[3] + pad)
    )

    phi = ProfileField(dom, phi_p.eval_derivs, "p") * ProfileField(dom, phi_q.eval_derivs, "q")
    F = fields.field_F(dom)
    G = fields.field_G(dom)
    phiF, phiG = phi * F, phi * G
    B, B_phi = BracketField(F, G), BracketField(phiF, phiG)
    B_cut, phi_vals, B_vals, DBL_cut, DBL_ref = values_of(
        [B_phi, phi, B, BracketField(phiF, B_phi), BracketField(F, B)]
    )
    gaps = {
        "cutoff_bracket_identity_resid": np.max(np.abs(B_cut - (phi_vals**2) * B_vals)),
        "cutoff_double_bracket_identity_resid": np.max(np.abs(DBL_cut - phi_vals**3 * DBL_ref)),
        "cutoff_max_equality_gap": abs(float(DBL_cut.max()) - float(DBL_ref.max())),
        "cutoff_min_equality_gap": abs(float(DBL_cut.min()) - float(DBL_ref.min())),
    }
    return {name: check(gap, 1e-9, "<=", "sampled") for name, gap in gaps.items()}
