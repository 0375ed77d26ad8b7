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
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction

import numpy as np

from .brackets import BracketField
from .domain import Domain2
from .errors import CheckFailed, ConstructionError, PreconditionError
from .fields import AnalyticField, JetField, univariate_jet, values_of
from .jets import Jet2, jet_cos, jet_log, jet_sin
from .piecewise import PiecewisePoly, build_profile, table_profile

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
    bisect_tol: float = 1e-8,
) -> float:
    """Largest half-width kappa (on a bisection grid) such that
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
    while hi - lo > bisect_tol:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


def r_rectangle_scan(kappa: float, gamma: float = float(GAMMA), resolution: float = 1e-4,
                     alpha0: float = float(ALPHA0), bound: float = R_BOUND) -> dict:
    """Scan |r| over [alpha0-kappa, alpha0+kappa] x [-1, 1]; pass if max |r| < bound."""
    na = max(3, int(np.ceil(2 * kappa / resolution)) + 1)
    nz = int(np.ceil(2 / resolution)) + 1
    alphas = np.linspace(alpha0 - kappa, alpha0 + kappa, na)
    zs = np.linspace(-1.0, 1.0, nz)
    worst = 0.0
    for a in alphas:
        worst = max(worst, float(np.max(np.abs(r_eval(a, gamma, zs)))))
        worst = max(worst, float(r_max_abs(a, gamma)))
    return {"max_abs_r": worst, "pass": worst < bound}


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
    kappa: float | None = None
    N_list: tuple[int, ...] = (100, 1000, 10000)
    grid_n: int = 2048
    window_margin: Fraction = Fraction(1, 20)

    def __post_init__(self):
        if self.delta <= 0:
            raise PreconditionError("delta must be positive")
        if any(N < 1 for N in self.N_list):
            raise PreconditionError("all oscillation frequencies must be >= 1")
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
        if 2 * (2 * self.spike_blend + self.spike_plateau) + 4 * self.ramp_len >= self.delta:
            raise ConstructionError("wiggle pieces do not fit inside [c2, c3]")

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
    u_prime: PiecewisePoly
    w_prime: PiecewisePoly
    w: PiecewisePoly
    v: PiecewisePoly
    a: WitnessA
    neg_plateau_len: Fraction
    notes: dict = dc_field(default_factory=dict)

    # -- domains -----------------------------------------------------------

    def window_domain(self, n: int | None = None) -> Domain2:
        cfg = self.cfg
        n = n or cfg.grid_n
        p0, p1 = -0.5, 13.5
        q0 = float(cfg.c1 - cfg.window_margin)
        q1 = float(cfg.c4 + cfg.window_margin)
        return Domain2.rect(n, (p0, p1, q0, q1), support_margin=False)

    # -- fields ------------------------------------------------------------

    def field_F(self, domain: Domain2) -> AnalyticField:
        return AnalyticField(domain, lambda jp, jq: univariate_jet(self.u.eval_derivs, jp, "p"),
                             name="u(p)")

    def field_G(self, domain: Domain2) -> AnalyticField:
        return AnalyticField(
            domain, lambda jp, jq: univariate_jet(self.v.eval_derivs, jq, "q").scale(-1.0),
            name="-v(q)",
        )

    def field_FN(self, domain: Domain2, N: int) -> AnalyticField:
        if N < 1:
            raise PreconditionError("N must be >= 1")

        def build(jp: Jet2, jq: Jet2) -> Jet2:
            uj = univariate_jet(self.u.eval_derivs, jp, "p")
            aj = univariate_jet(self.a.eval_derivs, jq, "q")
            return uj + (aj * jet_sin(uj.scale(float(N)))).scale(1.0 / N)

        return AnalyticField(domain, build, name=f"F_{N}")

    def field_R(self, domain: Domain2, N: int) -> AnalyticField:
        def build(jp: Jet2, jq: Jet2) -> Jet2:
            m = jp.order
            ud = self.u.eval_derivs(jp.value, m)
            uj = Jet2.from_univariate(ud, m, "p")
            wd = self.w.eval_derivs(jq.value, m + 1)
            wj = Jet2.from_univariate(wd[: m + 1], m, "q")
            w1j = Jet2.from_univariate(wd[1:], m, "q")
            ad = self.a.eval_derivs(jq.value, m + 1)
            aj = Jet2.from_univariate(ad[: m + 1], m, "q")
            a1j = Jet2.from_univariate(ad[1:], m, "q")
            cN = jet_cos(uj.scale(float(N)))
            lead = aj * cN + 1.0
            return w1j * lead * lead + a1j * wj * (aj + cN)

        # R reads a' and w', so its order-m jet needs order m+1 of a, whose
        # log core carries order 4
        return AnalyticField(domain, build, max_order=3, name=f"R (N={N})")

    def field_uprime_sq(self, domain: Domain2) -> AnalyticField:
        return AnalyticField(
            domain,
            lambda jp, jq: (lambda j: j * j)(univariate_jet(self.u_prime.eval_derivs, jp, "p")),
            name="u'(p)^2",
        )

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        cfg = self.cfg
        return {
            "config": {
                "delta": float(cfg.delta),
                "c": [float(cfg.c1), float(cfg.c2), float(cfg.c3), float(cfg.c4)],
                "kappa": self.kappa,
                "grid_n": cfg.grid_n,
                "N_list": list(cfg.N_list),
                "neg_plateau_len": float(self.neg_plateau_len),
            },
            "notes": self.notes,
            "u_prime": self.u_prime.to_json(),
            "w_prime": self.w_prime.to_json(),
            "a_left_taper": self.a.left.to_json(),
            "a_right_taper": self.a.right.to_json(),
            "a_core": "a(c1) - 1.63 (ln w - ln w(c1)) on [c1, c4]",
        }


def build_witness(cfg: WitnessConfig | None = None, check: bool = True) -> WitnessFields:
    """Construct all profiles and (optionally) certify every side condition."""
    cfg = cfg or WitnessConfig()
    kappa = cfg.kappa if cfg.kappa is not None else kappa_search()
    u_prime = _build_u_profile()
    u = u_prime.antiderivative(Fraction(0))
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
        u_prime=u_prime,
        w_prime=w_prime,
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
        fields.notes["invariants"] = {k: r["value"] for k, r in report.items()}
    return fields


# -- invariant certification -----------------------------------------------------


def _fine_axis(poly: PiecewisePoly, per_piece: int = 129) -> np.ndarray:
    pts = []
    for p in poly.pieces:
        pts.append(np.linspace(float(p.x0), float(p.x1), per_piece))
    return np.unique(np.concatenate(pts))


def check_witness_invariants(fields: WitnessFields) -> dict:
    """Direct 1-D evaluation of every side condition, on grids refined
    piece by piece (finer than delta/100 inside the wiggle)."""
    cfg = fields.cfg
    c1, c2, c3, c4 = (float(cfg.c1), float(cfg.c2), float(cfg.c3), float(cfg.c4))
    out: dict[str, dict] = {}

    def record(name, value, ok):
        out[name] = {"value": value, "pass": bool(ok)}

    q = _fine_axis(fields.w_prime)
    wp = fields.w_prime.eval_derivs(q, 0)[0]
    wv = fields.w.eval_derivs(q, 0)[0]
    in_c23 = (q >= c2) & (q <= c3)
    in_c14 = (q >= c1) & (q <= c4)
    pos_off_c23 = (q >= 0) & ~in_c23
    pos_off_c14 = (q >= 0) & ~in_c14

    record("w_cond_i_max", float(wp[in_c23].max()), wp[in_c23].max() == 1.0)
    record("w_cond_i_min", float(wp[in_c23].min()), wp[in_c23].min() == -1.0)
    wc2 = float(fields.w_prime.eval_derivs(np.array([c2]), 0)[0][0])
    wc3 = float(fields.w_prime.eval_derivs(np.array([c3]), 0)[0][0])
    record("w_cond_i_at_c2", wc2, abs(wc2 - 0.001) < 1e-15)
    record("w_cond_i_at_c3", wc3, abs(wc3 + 0.001) < 1e-15)
    record(
        "w_cond_ii_range",
        (float(wv[in_c14].min()), float(wv[in_c14].max())),
        (wv[in_c14].min() >= 1.0) and (wv[in_c14].max() <= 2.0),
    )
    record(
        "w_cond_iii_slope_off_wiggle",
        float(np.abs(wp[pos_off_c23]).max()),
        np.abs(wp[pos_off_c23]).max() <= 0.01,
    )
    record(
        "w_cond_iv_bound_outside",
        float(np.abs(wv[pos_off_c14]).max()),
        np.abs(wv[pos_off_c14]).max() <= 3.0,
    )
    record("w_cond_v_global_slope", (float(wp.max()), float(wp.min())),
           wp.max() == 1.0 and wp.min() == -1.0)
    record("w_cond_vi_integral", float(fields.w.integral()), fields.w.integral() == 0)

    # smoothness: order-4 jets are continuous (profiles are C^3 exactly)
    jumps_w = fields.w_prime.junction_jumps(3)
    jumps_u = fields.u_prime.junction_jumps(3)
    record("w_c4_smooth", [float(j) for j in jumps_w], all(j == 0 for j in jumps_w))
    record("u_c4_smooth", [float(j) for j in jumps_u], all(j == 0 for j in jumps_u))

    ad = fields.a.eval_derivs(q, 1)
    av, ap = ad[0], ad[1]
    lo, hi = float(cfg.a_start) - fields.kappa, float(cfg.a_start) + fields.kappa
    record(
        "a_cond_ii_range",
        (float(av[in_c14].min()), float(av[in_c14].max())),
        (av[in_c14].min() >= lo) and (av[in_c14].max() <= hi),
    )
    record(
        "a_cond_iii_slope",
        float(np.abs(ap[pos_off_c14]).max()),
        np.abs(ap[pos_off_c14]).max() <= 0.03,
    )
    record(
        "a_cond_iii_bound",
        float(np.abs(av[pos_off_c14]).max()),
        np.abs(av[pos_off_c14]).max() <= 2.0,
    )
    core = q[in_c14]
    wd = fields.w.eval_derivs(core, 1)
    resid = np.abs(
        fields.a.eval_derivs(core, 1)[1] + float(GAMMA) * wd[1] / wd[0]
    ).max()
    record("a_cond_i_ode", float(resid), resid <= 1e-12)

    p = _fine_axis(fields.u_prime)
    up = fields.u_prime.eval_derivs(p, 0)[0]
    record("u_slope_peak", (float(up.max()), float(up.min())),
           up.max() == 1.0 and up.min() == -1.0)

    lam = r_rectangle_scan(fields.kappa)
    record("lemma_r_rectangle", lam["max_abs_r"], lam["pass"])
    return out


# -- R bound and the main verification --------------------------------------------


def _grid_values_chunked(
    fields: list[JetField], domain: Domain2, chunk: int = 128
) -> list[np.ndarray]:
    # rows of p against all of q: a bracket tree's n^2 temporaries stay chunk x n
    p, q = domain.coords()
    out = [np.empty((domain.n, domain.n)) for _ in fields]
    for i0 in range(0, domain.n, chunk):
        for arr, vals in zip(out, values_of(fields, (p[i0 : i0 + chunk], q))):
            arr[i0 : i0 + chunk] = vals
        del vals  # else one chunk's values stay alive while the next is built
    return out


def r_field(
    fields: WitnessFields, N: int, n: int | None = None, raise_on_violation: bool = True
) -> dict:
    """Evaluate R on the 2-D window and certify |R| <= 0.99 globally.

    Inside the window |R| is evaluated directly; outside, the pointwise
    bound |w'|(1+|a|)^2 + |a' w|(|a|+1) on a fine 1-D grid covers every
    (p, q) regardless of the oscillatory factor.
    """
    dom = fields.window_domain(n)
    (vals,) = _grid_values_chunked([fields.field_R(dom, N)], dom)
    return _r_report(fields, N, dom, vals, raise_on_violation)


def _r_report(
    fields: WitnessFields, N: int, dom: Domain2, vals: np.ndarray, raise_on_violation: bool
) -> dict:
    amax = float(np.max(np.abs(vals)))
    i, j = np.unravel_index(int(np.argmax(np.abs(vals))), vals.shape)
    p_axis, q_axis = dom.axes()
    worst_pt = (float(p_axis[i]), float(q_axis[j]))

    q = _fine_axis(fields.w_prime)
    extra = _fine_axis(fields.a.left)
    q = np.unique(np.concatenate([q, extra, _fine_axis(fields.a.right)]))
    q0, q1 = dom.bounds[2], dom.bounds[3]
    outside = (q < q0) | (q > q1)
    qo = q[outside]
    wd = fields.w.eval_derivs(qo, 1)
    ad = fields.a.eval_derivs(qo, 1)
    tail = np.abs(wd[1]) * (1.0 + np.abs(ad[0])) ** 2 + np.abs(ad[1] * wd[0]) * (
        np.abs(ad[0]) + 1.0
    )
    tail_bound = float(tail.max()) if qo.size else 0.0

    report = {
        "N": N,
        "max_abs_R_window": amax,
        "worst_point": worst_pt,
        "tail_bound_outside_window": tail_bound,
        "bound": R_BOUND,
        "pass": amax <= R_BOUND and tail_bound <= R_BOUND,
    }
    if raise_on_violation and not report["pass"]:
        raise CheckFailed(
            f"|R| exceeds {R_BOUND}: window max {amax:.6f} at {worst_pt}, tail {tail_bound:.6f}"
        )
    return report


def verify_oscillation_ratios(
    fields: WitnessFields, N_list: tuple[int, ...] | None = None, n: int | None = None
) -> dict:
    """Ratios max/min {{F_N,G},F_N} over {{F,G},F} and the O(1/N) residual
    against u'^2 R, per oscillation frequency N."""
    cfg = fields.cfg
    N_list = tuple(N_list or cfg.N_list)
    dom = fields.window_domain(n)
    F = fields.field_F(dom)
    G = fields.field_G(dom)
    (D0,) = _grid_values_chunked([BracketField(BracketField(F, G), F)], dom)
    d0_max, d0_min = float(D0.max()), float(D0.min())
    if d0_max <= 0 or d0_min >= 0:
        raise CheckFailed("unperturbed double bracket has degenerate extrema")

    rows = []
    for N in N_list:
        FN = fields.field_FN(dom, N)
        (DN,) = _grid_values_chunked([BracketField(BracketField(FN, G), FN)], dom)
        # one pass for u'^2 R and R; the R window is released before the residual
        R = fields.field_R(dom, N)
        model, rvals = _grid_values_chunked([fields.field_uprime_sq(dom) * R, R], dom)
        rrep = _r_report(fields, N, dom, rvals, raise_on_violation=False)
        del rvals
        resid = float(np.max(np.abs(DN - model)))
        ratio_max = float(DN.max()) / d0_max
        ratio_min = float(DN.min()) / d0_min
        rows.append(
            {
                "N": N,
                "ratio_max": ratio_max,
                "ratio_min": ratio_min,
                "residual": resid,
                "residual_times_N": resid * N,
                "maxR": max(rrep["max_abs_R_window"], rrep["tail_bound_outside_window"]),
                # the ratios sit below the R bound up to the O(1/N) term
                "within_envelope": max(ratio_max, ratio_min)
                <= R_BOUND + 2.0 * resid / d0_max,
            }
        )
    rn = [row["residual_times_N"] for row in rows]
    residual_scaling_ok = (max(rn) / min(rn)) <= 2.0 if min(rn) > 0 else False
    passed = (
        all(row["maxR"] <= R_BOUND for row in rows)
        and all(
            max(row["ratio_max"], row["ratio_min"]) <= 0.995 for row in rows if row["N"] >= 1000
        )
        and residual_scaling_ok
    )
    return {
        "denominator_max": d0_max,
        "denominator_min": d0_min,
        "rows": rows,
        "residual_scaling_within_factor_2": residual_scaling_ok,
        "pass": passed,
    }


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
    """Verify that multiplying by a plateau cutoff (identically 1 on the
    support rectangle I x J) changes neither {.,.} nor the maxima:
    {phi F, phi G} = phi^2 {F, G} pointwise and
    max {phi F, {phi F, phi G}} = max {F, {F, G}}.

    `plateau`, when given as (p_lo, p_hi, q_lo, q_hi), overrides where the
    cutoff is identically one; it must still cover I x J.
    """
    cfg = fields.cfg
    I = (0.0, 13.0)  # supp u
    qlo = float(min(fields.w_prime.support[0], fields.a.left.support[0]))
    qhi = float(max(fields.w_prime.support[1], fields.a.right.support[1]))
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
        n,
        (plateau[0] - pad, plateau[1] + pad, plateau[2] - pad, plateau[3] + pad),
        support_margin=False,
    )

    phi = AnalyticField(
        dom,
        lambda jp, jq: univariate_jet(phi_p.eval_derivs, jp, "p")
        * univariate_jet(phi_q.eval_derivs, jq, "q"),
        name="phi",
    )
    F = fields.field_F(dom)
    G = fields.field_G(dom)
    phiF, phiG = phi * F, phi * G
    B, B_phi = BracketField(F, G), BracketField(phiF, phiG)
    B_cut, phi_vals, B_vals, DBL_cut, DBL_ref = values_of(
        [B_phi, phi, B, BracketField(phiF, B_phi), BracketField(F, B)]
    )
    first_resid = float(np.max(np.abs(B_cut - (phi_vals**2) * B_vals)))
    scaled_resid = float(np.max(np.abs(DBL_cut - phi_vals**3 * DBL_ref)))
    max_gap = abs(float(DBL_cut.max()) - float(DBL_ref.max()))
    min_gap = abs(float(DBL_cut.min()) - float(DBL_ref.min()))

    tol = 1e-9
    return {
        "bracket_identity_resid": first_resid,
        "double_bracket_identity_resid": scaled_resid,
        "max_equality_gap": max_gap,
        "min_equality_gap": min_gap,
        "pass": max(first_resid, scaled_resid, max_gap, min_gap) <= tol,
    }
