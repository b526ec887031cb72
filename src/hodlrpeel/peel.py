"""Randomized peeling for HODLR approximation.

``run_peel`` recovers the off-diagonal low-rank blocks level by level and
the leaf diagonals last, subtracting already-recovered levels from the
blocks it reads of every fresh sketch.  Every level takes its range bases
from a perforated right sketch; the variant named by ``PeelConfig.variant``
supplies only the level's right-factor step and the leaf sketch:

* ``generalized_nystrom`` — right factor from a sketched regression against
  an independent perforated left sketch; leaves from one more perforated
  Gaussian family.
* ``rsvd`` — right factor from a direct projection sketch built by stacking
  the recovered bases themselves; leaves from a stacked identity.

Query costs are deterministic: 2 L s_R t_R forward products and
(2 L + 1) s_L t_L transpose products (the rsvd variant inherits s_L = s_R
from the stacked bases, zero-padded so the count never depends on realized
ranks).

A level reads only some blocks of each sketch product: a perforated sketch
holds the Gaussian blocks of one parity, and block j's sketch is the partner
row block j ^ 1 in j's column group.  ``residual_sketch`` reads those blocks
straight from each operator product and subtracts the already-recovered
levels from them alone, computed from the family's input blocks rather than
from its assembled n x s t sketches (``hodlr.apply_contributions``): 4 n r s
flops per recovered level for both parities, where the whole products
would take 8 n r s t.  A sketch is passed around as its selectors and input
blocks; ``residual_sketch`` assembles each operator input just before its
query, so no more than one n x s t sketch is alive at a time.

Each level factors its 2^l blocks together: the blocks' sketches are
read into (2^(l-1), 2, m, s) stacks of sibling pairs and go through one
stacked ``lowrank`` call per step (orth, regression, truncation), so the
number of LAPACK calls grows with the number of levels, not of blocks.  The
factored stack is what the recovered HODLR matrix stores for the level.  A
block's left Gaussian is its partner's, read through the strided view
``[:, ::-1]`` of the family's blocks rather than copied.
"""

import math
import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from . import hodlr, linops, lowrank, sketch
from .rng import ROLE_CHECK, ROLE_DIAG, ROLE_LEFT, ROLE_RIGHT, stream

GENERALIZED_NYSTROM = "generalized_nystrom"
RSVD = "rsvd"

STRUCTURE_TOL = 1e-6


class ConfigError(ValueError):
    """Peeling parameters are not usable (sanity) or fail theory validation."""


class StructureViolationError(RuntimeError):
    """exact_recover found evidence the operator is not HODLR(k)."""


@dataclass
class PeelConfig:
    """Peeling parameters.

    ``beta`` is the per-level oversampling target; when set, the config can
    be validated against the guarantee conditions for its variant:

    generalized_nystrom:  k/(s_R-k-1) <= beta/30,
                          k/(s_R-k-1) * 1/t_R <= beta^2/900,
                          s_R/(s_L-s_R-1) <= beta^2/900
    rsvd:                 k/(s_R-k-1) <= beta/10,
                          k/(s_R-k-1) * 1/t_R <= beta^2/100,
                          1/t_L <= beta^2/100

    generalized_nystrom with s_L = s_R (the default) is accepted, but its
    regression gain is unbounded: each block's regression matrix Psi^T Q is
    then a square Gaussian, whose inverse has no finite second moment (the
    pseudo-inverse moment p/(q-p-1) needs q >= p+2), so every level can
    amplify the error left by earlier levels without limit.  The beta = 1
    GN1 cell of the Poisson grid (s_L = s_R = 8) shows it: its mean error
    is about 4e9 x the optimum.  Exact recovery therefore uses s_L = 2 s_R + 2
    (``exact_config``).
    """

    k: int
    s_R: int
    t_R: int = 1
    s_L: int = None
    t_L: int = 1
    variant: str = GENERALIZED_NYSTROM
    seed: int = 0
    beta: float = None

    def __post_init__(self):
        if self.variant not in (GENERALIZED_NYSTROM, RSVD):
            raise ConfigError(f"unknown variant {self.variant!r}")
        if self.s_L is None:
            self.s_L = self.s_R
        sizes = (self.k, self.s_R, self.t_R, self.s_L, self.t_L)
        if not all(isinstance(v, numbers.Integral) for v in sizes):
            raise ConfigError(f"k, s_R, t_R, s_L and t_L must be integers, got {sizes}")
        if self.beta is not None and not 0 < self.beta < math.inf:
            raise ConfigError(f"beta must be a positive finite number, got {self.beta}")
        if self.variant == RSVD and self.s_L != self.s_R:
            raise ConfigError("rsvd variant inherits s_L = s_R from the stacked bases")
        if min(sizes) < 1:
            raise ConfigError("all parameters must be >= 1")
        if self.s_R < self.k:
            raise ConfigError(f"s_R={self.s_R} below rank k={self.k}")
        if self.variant == GENERALIZED_NYSTROM and self.s_L < self.s_R:
            raise ConfigError(f"s_L={self.s_L} below s_R={self.s_R}")

    def theory_violations(self) -> list:
        """Violated guarantee conditions (empty if beta is unset or all hold)."""
        if self.beta is None:
            return []
        out = []
        for name, num, off, bound, lhs, rhs in _conditions(self):
            ratio = _ratio(num, getattr(self, name), off)
            if ratio > bound:
                out.append(f"{lhs} = {ratio:.4g} > {rhs}")
        return out


def _ratio(num, x, off):
    """num / (x - off), infinite where x <= off."""
    return num / (x - off) if x > off else math.inf


def _conditions(config):
    """The guarantee conditions of ``config``'s variant (see ``PeelConfig``)
    in solving order, each ``num / (x - off) <= bound`` for the parameter
    ``x`` it names, as (name, num, off, bound, lhs text, bound text).  A
    condition reads only the parameters named before it."""
    k, s_R, b = config.k, config.s_R, float(config.beta)
    if config.variant == GENERALIZED_NYSTROM:
        c1, c2, (name, num, off, lhs) = 30, 900, ("s_L", s_R, s_R + 1, "s_R/(s_L-s_R-1)")
    else:
        c1, c2, (name, num, off, lhs) = 10, 100, ("t_L", 1, 0, "1/t_L")
    return [
        ("s_R", k, k + 1, b / c1, "k/(s_R-k-1)", f"beta/{c1}"),
        ("t_R", _ratio(k, s_R, k + 1), 0, b * b / c2, "k/(s_R-k-1)/t_R", f"beta^2/{c2}"),
        (name, num, off, b * b / c2, lhs, f"beta^2/{c2}"),
    ]


def params_for_beta(k, beta, variant=GENERALIZED_NYSTROM, seed=0):
    """Smallest integer parameters meeting the guarantee conditions, so the
    returned config always validates.  Each condition of ``_conditions`` is
    solved in turn for the least integer that the check itself accepts."""
    if not 0 < beta < 1:
        raise ConfigError(f"beta must lie in (0, 1), got {beta}")
    config = PeelConfig(k=k, s_R=k, variant=variant, seed=seed, beta=beta)
    for i in range(3):
        name, num, off, bound = _conditions(config)[i][:4]
        try:  # a bound that underflows to 0 divides by zero
            setattr(config, name, _least_meeting(num, off, bound))
        except (OverflowError, ZeroDivisionError):
            raise ConfigError(f"beta={beta} needs {name} beyond float range") from None
    if variant == RSVD:
        config.s_L = config.s_R
    return config


def _least_meeting(num, off, bound):
    """Least integer x with ``_ratio(num, x, off) <= bound``, bisected
    between off, where the ratio is infinite, and twice the closed-form
    root, where rounding cannot break it.  The ratio never rises with x, but
    past 2^53 neighbouring x can share a ratio, so a search stepping one
    integer at a time need not end."""
    lo, hi = off, off + 2 * max(1, math.ceil(num / bound))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if _ratio(num, mid, off) <= bound else (mid, hi)
    return hi


def unperforated_config(k, beta, seed=0) -> PeelConfig:
    """The t_R = t_L = 1 generalized Nystrom parameters s_R = ceil(k/beta^2),
    s_L = ceil(k/beta^4) under which plain peeling attains the same
    (1+beta)^(L+1) factor; the configuration desk-scale runs can actually
    afford.  It leaves beta unset, since it does not satisfy the strict
    guarantee conditions."""
    if not 0 < beta < 1:
        raise ConfigError(f"beta must lie in (0, 1), got {beta}")
    if not beta**4 > 0 or not math.isfinite(k / beta**4):
        raise ConfigError(f"beta={beta} needs s_L = k/beta^4 beyond float range")
    return PeelConfig(k=k, s_R=math.ceil(k / beta**2), s_L=math.ceil(k / beta**4), seed=seed)


@dataclass
class LevelStats:
    level: int
    forward: int
    transpose: int
    seconds: float


@dataclass
class PeelReport:
    variant: str
    levels: list = field(default_factory=list)
    forward_total: int = 0
    transpose_total: int = 0
    seconds: float = 0.0


def expected_queries(config: PeelConfig, n: int) -> tuple[int, int]:
    """Closed-form (forward, transpose) query counts of a full peel."""
    L = hodlr.level_count(n, config.k)
    return (
        2 * L * config.s_R * config.t_R,
        (2 * L + 1) * config.s_L * config.t_L,
    )


def residual_sketch(op, recovered, selectors, blocks, side) -> np.ndarray:
    """The sketch blocks a level reads from the operator minus its recovered
    levels, as a (d/2, 2, m, s) stack by input block (``hodlr.block_view``
    order), for the (n, s) stack ``blocks`` of input blocks under d x t
    selectors sharing the column groups ``cols``: entry i is the partner row
    block i ^ 1, column group ``cols[i]``, of the product with the parity of
    block i for a perforated pair ``selectors`` = (plus, minus), and row block
    i, column group ``cols[i]``, of the product with an unperforated
    ``selectors`` = (selector,).

    Each selector's sketch ``sketch.bullet(selector.entries, blocks)`` is
    assembled just before its one counted op query, whose product is read
    straight into the stack; the recovered levels are subtracted by
    ``hodlr.apply_contributions``, from the input blocks alone."""
    c, cols = len(selectors), selectors[0].cols
    d = len(cols)
    n, s = blocks.shape
    m = n // d
    out = np.empty((c, d // c, m, s))
    groups = cols.reshape(d // c, c)
    for p, selector in enumerate(selectors):
        sk = op.apply(sketch.bullet(selector.entries, blocks), side)
        t = sk.shape[1] // s
        # Rows of the other class (the partner rows) when perforated.
        rows = sk.reshape(d // c, c, m, t, s)[:, c - 1 - p]
        for g in range(t):
            where = (groups[:, p] == g)[:, None, None] if t > 1 else True
            np.copyto(out[p], rows[:, :, g], where=where)
    if recovered:
        hodlr.apply_contributions(recovered, blocks, cols, out, side)
    return out.swapaxes(0, 1).reshape(d // 2, 2, m, s)


def _regression_residual_ok(psi_t_q, X, Z):
    """Relative residual of the sketched regression of every block of a
    stack, the free per-level structure signal used by exact_recover."""
    scale = np.linalg.norm(Z, axis=(-2, -1))
    resid = np.linalg.norm(psi_t_q @ X - Z, axis=(-2, -1))
    return bool(np.all((scale == 0.0) | (resid <= STRUCTURE_TOL * scale)))


def _pairs(blocks):
    """(d/2, 2, m, s) view of a (d, m, s) stack, by sibling pair."""
    return blocks.reshape((-1, 2) + blocks.shape[1:])


def _range_sketch(op, recovered, config, ell):
    """Range sketches Y_j of the 2^ell blocks of level ``ell`` as a stack.

    Block j sits at (partner(j), j) = (j ^ 1, j); Y_j is row block j ^ 1 of
    the forward residual sketch of j's parity under the perforated right
    family."""
    right = sketch.sample_rand_perf_gaussian(
        op.n, 1 << ell, config.s_R, config.t_R, (config.seed, ell, ROLE_RIGHT)
    )
    return residual_sketch(
        op, recovered, (right.selector_plus, right.selector_minus),
        right.gaussian_blocks.reshape(op.n, config.s_R), linops.FORWARD,
    )


def _transpose_sketch(op, recovered, selectors, blocks):
    """Left sketches Z_j of a level's blocks as a (d/2, 2, s, m) stack.

    Z_j is the (sigma, j) block of (Psi^-/+)^T A^(l): the transpose residual
    sketch of the parity opposite to j under the perforated pair
    ``selectors``, with sigma the column group they give row block j ^ 1,
    whose sketch block Psi_j is row block j ^ 1 of ``blocks``."""
    Z = residual_sketch(op, recovered, selectors, blocks, linops.TRANSPOSE)
    return Z[:, ::-1].swapaxes(-1, -2)


def _gn_step(op, recovered, config, ell, Y, truncate, structure_check):
    """Generalized Nystrom right factors: a sketched regression of every
    block against an independent perforated left family.  Returns the
    stacked factors and whether every regression residual is small (True
    when ``structure_check`` is off)."""
    left = sketch.sample_rand_perf_gaussian(
        op.n, 1 << ell, config.s_L, config.t_L, (config.seed, ell, ROLE_LEFT)
    )
    Z = _transpose_sketch(
        op, recovered, (left.selector_plus, left.selector_minus),
        left.gaussian_blocks.reshape(op.n, config.s_L),
    )
    Psi = _pairs(left.gaussian_blocks)[:, ::-1]
    stack = lowrank.gn_from_sketches(Y, Z, Psi, config.k if truncate else None)
    ok = not structure_check or _regression_residual_ok(
        Psi.swapaxes(-1, -2) @ stack.Q, stack.X, Z
    )
    return stack, ok


def _rsvd_step(op, recovered, config, ell, Y, truncate, structure_check):
    """Randomized-SVD right factors: bases from the range sketches, then a
    projection sketch built by stacking the bases themselves.  The
    projection is not a regression, so it gives no structure signal."""
    d, s_R = 1 << ell, config.s_R
    bases = lowrank.orth(Y)
    # Block row i carries the basis recovered for the off-diagonal block
    # living in that row (its partner's), zero-padded to width s_R so the
    # transpose cost is the same at every level.
    stacked = np.zeros(Y.shape)
    stacked[..., : bases.shape[-1]] = bases[:, ::-1]
    stacked = stacked.reshape(op.n, s_R)
    zetas = sketch.sample_perf_countsketch(d, config.t_L, (config.seed, ell, ROLE_LEFT))
    X = _transpose_sketch(op, recovered, zetas, stacked)
    return _project_truncate(bases, X, config.k if truncate else None), True


def _project_truncate(Q, X_padded, k):
    """Q [[X]]_k for a level's stack of bases Q (..., m, r) and projections
    X (..., s_R, m), whose rows past r meet zero-padded sketch columns."""
    return lowrank.truncate_factor(Q, X_padded[..., : Q.shape[-1], :], k)


def _gn_leaf_sketch(config, n, L):
    """One more perforated Gaussian family, unperforated: the selector
    holding both parities' rows (their disjoint sum, the CountSketch draw),
    its (n, s_L) stack of blocks and the (d/2, 2, s_L, m) stack of transposed
    blocks."""
    fam = sketch.sample_rand_perf_gaussian(
        n, 1 << L, config.s_L, config.t_L, (config.seed, L + 1, ROLE_DIAG)
    )
    plus, minus = fam.selector_plus, fam.selector_minus
    psi_t = _pairs(fam.gaussian_blocks).swapaxes(-1, -2)
    blocks = fam.gaussian_blocks.reshape(n, config.s_L)
    return sketch.BlockSelector(plus.entries + minus.entries, plus.cols), blocks, psi_t


def _rsvd_leaf_sketch(config, n, L):
    """A count sketch of the stacked identity, zero-padded to width s_R: the
    selector, the stack itself and the (s_R, m) padded identity every leaf
    shares."""
    d, m = 1 << L, n >> L
    zeta = sketch.sample_countsketch(d, config.t_L, (config.seed, L + 1, ROLE_DIAG))
    pad_eye = np.zeros((m, config.s_R))
    pad_eye[:, :m] = np.eye(m)
    return zeta, np.tile(pad_eye, (d, 1)), pad_eye.T


# variant -> (per-level right-factor step, leaf sketch)
_VARIANTS = {
    GENERALIZED_NYSTROM: (_gn_step, _gn_leaf_sketch),
    RSVD: (_rsvd_step, _rsvd_leaf_sketch),
}


def run_peel(
    op,
    config: PeelConfig,
    *,
    truncate=True,
    structure_check=False,
    allow_invalid=False,
):
    """Peel ``op`` with the variant ``config.variant``; returns (HodlrMatrix,
    PeelReport).  ``truncate=False`` keeps full sketch-rank factors,
    ``structure_check`` raises StructureViolationError on a regression
    residual and ``allow_invalid`` skips guarantee validation."""
    n, k = op.n, config.k
    L = hodlr.level_count(n, k)  # rejects incompatible (n, k)
    violations = config.theory_violations()
    if violations and not allow_invalid:
        raise ConfigError(f"fails guarantee validation ({'; '.join(violations)})")
    level_step, leaf_sketch = _VARIANTS[config.variant]
    report = PeelReport(variant=config.variant)
    t_start = time.perf_counter()
    recovered = []
    structure_ok = True

    for ell in range(1, L + 1):
        t0 = time.perf_counter()
        f0, r0 = op.counter.snapshot()
        Y = _range_sketch(op, recovered, config, ell)
        stack, ok = level_step(op, recovered, config, ell, Y, truncate, structure_check)
        structure_ok = structure_ok and ok
        # Sibling pairs (d/2, 2) flattened to the (d,) stack of the level.
        stack = lowrank.LowRankFactors(
            *(a.reshape((1 << ell,) + a.shape[2:]) for a in (stack.Q, stack.X, stack.ranks))
        )
        recovered.append(stack)
        f1, r1 = op.counter.snapshot()
        report.levels.append(LevelStats(ell, f1 - f0, r1 - r0, time.perf_counter() - t0))

    # Leaf diagonals: one more transpose sketch, solved block by block.  Its
    # width is s_L for either variant (rsvd has s_L = s_R).
    t0 = time.perf_counter()
    f0, r0 = op.counter.snapshot()
    d = 1 << L
    selector, blocks, psi_t = leaf_sketch(config, n, L)
    Z = residual_sketch(op, recovered, (selector,), blocks, linops.TRANSPOSE)
    Z = Z.swapaxes(-1, -2)
    leaves = lowrank.pinv_solve(psi_t, Z)
    if structure_check and not _regression_residual_ok(psi_t, leaves, Z):
        structure_ok = False
    leaves = leaves.reshape((d,) + leaves.shape[-2:])
    f1, r1 = op.counter.snapshot()
    report.levels.append(LevelStats(L + 1, f1 - f0, r1 - r0, time.perf_counter() - t0))

    H = hodlr.assemble(recovered, leaves, n=n, k=k, check_rank=truncate)
    report.forward_total = sum(s.forward for s in report.levels)
    report.transpose_total = sum(s.transpose for s in report.levels)
    report.seconds = time.perf_counter() - t_start
    if not structure_ok:
        raise StructureViolationError(
            "sketched regression residual exceeded tolerance: operator is not HODLR(k)"
        )
    return H, report


def exact_config(k, variant=GENERALIZED_NYSTROM, seed=0) -> PeelConfig:
    """Minimal exact-recovery protocol for a HODLR(k) operator: s_R = k and
    t_R = t_L = 1, so the forward budget is the minimal 2 L k.  rsvd inherits
    s_L = k; generalized Nystrom takes s_L = 2k + 2, which keeps the expected
    regression gain k/(s_L-k-1) below 1 (see ``PeelConfig``)."""
    s_L = k if variant == RSVD else 2 * k + 2
    return PeelConfig(k=k, s_R=k, t_R=1, s_L=s_L, t_L=1, variant=variant, seed=seed)


def exact_recover(op, k, seed=0):
    """Recover an operator promised to be exactly HODLR(k) with the minimal
    generalized Nystrom protocol of ``exact_config`` (s_R = k, s_L = 2k + 2).

    Structure is checked two ways: the per-level sketched-regression
    residuals (free; the oversampled left sketch makes each regression
    overdetermined, so a non-HODLR operator leaves a residual), and one extra
    forward verification query against the assembled result.  Either failing
    raises StructureViolationError.  Both use the fixed relative tolerance
    STRUCTURE_TOL, which the recovery error of deeper trees can itself
    reach (up to about 4e-6 at n = 2048, k = 8).
    """
    config = exact_config(k, seed=seed)
    H, report = run_peel(op, config, structure_check=True)
    g = stream(seed, ROLE_CHECK).standard_normal((op.n, 1))
    ref = op.apply(g, linops.FORWARD)
    resid = ref - hodlr.hodlr_apply(H, g, side="forward")
    scale = np.linalg.norm(ref)
    if np.linalg.norm(resid) > STRUCTURE_TOL * max(scale, 1e-300):
        raise StructureViolationError(
            "verification sketch residual exceeded tolerance: operator is not HODLR(k)"
        )
    report.forward_total += 1
    return H, report
