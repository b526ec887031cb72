"""Randomized peeling for HODLR approximation.

``run_peel`` recovers the off-diagonal low-rank blocks level by level and
the leaf diagonals last, subtracting already-recovered levels from every
fresh sketch.  Every level takes its range bases from a perforated right
sketch; the variant named by ``PeelConfig.variant`` supplies only the
level's right-factor step and the leaf sketch:

* ``generalized_nystrom`` — right factor from a sketched regression against
  an independent perforated left sketch; leaves from one more perforated
  Gaussian family.
* ``rsvd`` — right factor from a direct projection sketch built by stacking
  the recovered bases themselves; leaves from a stacked identity.

Query costs are deterministic: 2 L s_R t_R forward products and
(2 L + 1) s_L t_L transpose products (the rsvd variant inherits s_L = s_R
from the stacked bases, zero-padded so the count never depends on realized
ranks).

Each level factors its 2^l blocks together: the blocks' sketches are
gathered into (2^(l-1), 2, m, s) stacks of sibling pairs and go through one
stacked ``lowrank`` call per step (orth, regression, truncation), so the
number of LAPACK calls grows with the number of levels, not of blocks.  The
factored stack is what the recovered HODLR matrix stores for the level.  A
block's left Gaussian is its partner's, read through the strided view
``[:, ::-1]`` of the family's blocks rather than copied.
"""

import math
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
        if self.variant == RSVD and self.s_L != self.s_R:
            raise ConfigError("rsvd variant inherits s_L = s_R from the stacked bases")
        if min(self.k, self.s_R, self.t_R, self.s_L, self.t_L) < 1:
            raise ConfigError("all parameters must be >= 1")
        if self.s_R < self.k:
            raise ConfigError(f"s_R={self.s_R} below rank k={self.k}")
        if self.variant == GENERALIZED_NYSTROM and self.s_L < self.s_R:
            raise ConfigError(f"s_L={self.s_L} below s_R={self.s_R}")

    def theory_violations(self) -> list:
        """Violated guarantee conditions (empty if beta is unset or all hold)."""
        if self.beta is None:
            return []
        b = float(self.beta)
        a = self.k / (self.s_R - self.k - 1) if self.s_R > self.k + 1 else math.inf
        out = []
        if self.variant == GENERALIZED_NYSTROM:
            c1, c2 = 30.0, 900.0
            third = (
                self.s_R / (self.s_L - self.s_R - 1)
                if self.s_L > self.s_R + 1
                else math.inf
            )
            third_desc = f"s_R/(s_L-s_R-1) = {third:.4g} > beta^2/900"
        else:
            c1, c2 = 10.0, 100.0
            third = 1.0 / self.t_L
            third_desc = f"1/t_L = {third:.4g} > beta^2/100"
        if a > b / c1:
            out.append(f"k/(s_R-k-1) = {a:.4g} > beta/{c1:.0f}")
        if a / self.t_R > b * b / c2:
            out.append(f"k/(s_R-k-1)/t_R = {a / self.t_R:.4g} > beta^2/{c2:.0f}")
        if third > b * b / c2:
            out.append(third_desc)
        return out


def params_for_beta(k, beta, variant=GENERALIZED_NYSTROM, seed=0, profile="theory"):
    """Smallest integer parameters meeting the guarantee conditions.

    ``profile="theory"`` inverts the validation inequalities exactly as
    stated (constants included), so the returned config always validates.
    ``profile="unperforated"`` returns the t_R = t_L = 1 parameter scaling
    s_R = ceil(k/beta^2), s_L = ceil(k/beta^4) under which plain (t = 1)
    generalized Nystrom peeling attains the same (1+beta)^(L+1) factor; it is
    the configuration desk-scale runs can actually afford.  It leaves beta
    unset, since it does not satisfy the strict validation inequalities.
    """
    if not 0 < beta < 1:
        raise ConfigError(f"beta must lie in (0, 1), got {beta}")
    if profile == "unperforated":
        if variant != GENERALIZED_NYSTROM:
            raise ConfigError("no unperforated guarantee profile exists for rsvd")
        return PeelConfig(
            k=k,
            s_R=math.ceil(k / beta**2),
            t_R=1,
            s_L=max(math.ceil(k / beta**4), math.ceil(k / beta**2)),
            t_L=1,
            variant=variant,
            seed=seed,
        )
    if profile != "theory":
        raise ConfigError(f"unknown profile {profile!r}")
    c1, c2 = (30.0, 900.0) if variant == GENERALIZED_NYSTROM else (10.0, 100.0)

    def smallest(start, pred):
        v = start
        while not pred(v):
            v += 1
        while v > start and pred(v - 1):
            v -= 1
        return v

    s_R = smallest(k + 2, lambda s: k / (s - k - 1) <= beta / c1)
    t_R = smallest(1, lambda t: k / ((s_R - k - 1) * t) <= beta**2 / c2)
    if variant == GENERALIZED_NYSTROM:
        s_L = smallest(s_R + 2, lambda s: s_R / (s - s_R - 1) <= beta**2 / c2)
        t_L = 1
    else:
        s_L = s_R
        t_L = smallest(1, lambda t: 1.0 / t <= beta**2 / c2)
    return PeelConfig(
        k=k, s_R=s_R, t_R=t_R, s_L=s_L, t_L=t_L, variant=variant, seed=seed, beta=beta
    )


@dataclass
class LevelStats:
    level: int
    forward: int
    transpose: int
    seconds: float
    error: float = None


@dataclass
class PeelReport:
    variant: str
    levels: list = field(default_factory=list)
    forward_total: int = 0
    transpose_total: int = 0
    seconds: float = 0.0
    final_error: float = None


def expected_queries(config: PeelConfig, n: int) -> tuple[int, int]:
    """Closed-form (forward, transpose) query counts of a full peel."""
    L = hodlr.level_count(n, config.k)
    return (
        2 * L * config.s_R * config.t_R,
        (2 * L + 1) * config.s_L * config.t_L,
    )


def residual_sketch(op, recovered, block, side) -> np.ndarray:
    """Sketch of the operator minus already-recovered levels: one blocked op
    query, with the recovered contributions applied by fast factor products
    (the counter sees only the op query)."""
    out = op.apply(block, side)
    if recovered:
        out = out - hodlr.apply_contributions(recovered, block, side=side)
    return out


class _DenseDebug:
    """Per-level diagnostics against a dense reference copy of the operator.

    Checks the structured form of the range-sketch error term
    E_j = sum_{i != j} xi_{i,rho} A^(l)_{j+-1,i} Omega_i and records the
    per-level Frobenius recovery error.
    """

    REL_TOL = 1e-10

    def __init__(self, A):
        self.A = np.asarray(A, dtype=float)
        self.residual = self.A.copy()
        self.level_errors = []

    def block(self, d, i, j):
        m = self.A.shape[0] // d
        return self.residual[i * m:(i + 1) * m, j * m:(j + 1) * m]

    def check_sketch_noise(self, d, j, rho, Y, family):
        p = hodlr.partner(j)
        measured = Y - self.block(d, p, j) @ family.gaussian_blocks[j]
        formula = np.zeros_like(measured)
        for i in range(d):
            if i == j or sketch.block_is_plus(i) != sketch.block_is_plus(j):
                continue
            if family.cols[i] != rho:
                continue
            formula += self.block(d, p, i) @ family.gaussian_blocks[i]
        # Compare at the scale of the sketch itself: when the true noise is
        # zero both sides are pure rounding dirt from different summation
        # orders.
        scale = max(np.linalg.norm(Y), np.linalg.norm(formula), 1e-300)
        if np.linalg.norm(measured - formula) > self.REL_TOL * scale:
            raise AssertionError(
                f"sketch noise mismatch at block {j}: structured error form violated"
            )

    def finish_level(self, ell, stack):
        """Subtract the level's recovered stack from the residual; returns
        the level's Frobenius recovery error."""
        grid, index = hodlr.block_grid(self.residual, ell, 1)
        grid[index] -= stack.dense()
        self.level_errors.append(float(np.linalg.norm(grid[index])))
        return self.level_errors[-1]


def _regression_residual_ok(psi_t_q, X, Z):
    """Relative residual of the sketched regression of every block of a
    stack, the free per-level structure signal used by exact_recover."""
    scale = np.linalg.norm(Z, axis=(-2, -1))
    resid = np.linalg.norm(psi_t_q @ X - Z, axis=(-2, -1))
    return bool(np.all((scale == 0.0) | (resid <= STRUCTURE_TOL * scale)))


def _gather(even, odd, rows, groups, s):
    """Sketch blocks of a level as a (d/2, 2, m, s) stack, indexed by sibling
    pair and place in the pair: block j = 2a + b is column group
    ``groups[j]`` of row block ``rows[j]`` of the sketch ``even`` (b = 0) or
    ``odd`` (b = 1), with d = len(rows) row blocks of m rows.  Partners are
    the two blocks of a pair, so ``stack[:, ::-1]`` is the partner view."""
    d = len(rows)
    n, w = even.shape
    out = np.empty((d // 2, 2, n // d, s))
    for b, sk in enumerate((even, odd)):
        blocks = sk.reshape(d, n // d, w // s, s)
        out[:, b] = blocks[rows[b::2], :, groups[b::2]]
    return out


def _pairs(blocks):
    """(d/2, 2, m, s) view of a (d, m, s) stack, as ``_gather`` lays out."""
    return blocks.reshape((-1, 2) + blocks.shape[1:])


def _range_sketch(op, recovered, config, ell, debug):
    """Range sketches Y_j of the 2^ell blocks of level ``ell`` as a stack.

    Block j sits at (partner(j), j) = (j ^ 1, j); Y_j is row block j ^ 1 of
    the forward residual sketch of j's parity under the perforated right
    family."""
    d = 1 << ell
    right = sketch.sample_rand_perf_gaussian(
        op.n, d, config.s_R, config.t_R, (config.seed, ell, ROLE_RIGHT)
    )
    sk_plus = residual_sketch(op, recovered, right.assembled_plus, linops.FORWARD)
    sk_minus = residual_sketch(op, recovered, right.assembled_minus, linops.FORWARD)
    Y = _gather(sk_plus, sk_minus, np.arange(d) ^ 1, right.cols, config.s_R)
    if debug is not None:
        for j, Y_j in enumerate(Y.reshape(d, -1, config.s_R)):
            debug.check_sketch_noise(d, j, right.cols[j], Y_j, right)
    return Y


def _transpose_sketch(op, recovered, plus, minus, cols, s):
    """Left sketches Z_j of a level's blocks as a (d/2, 2, s, m) stack.

    Z_j is the (sigma, j) block of (Psi^-/+)^T A^(l): the transpose residual
    sketch of the parity opposite to j, with sigma the column group ``cols``
    gives row block j ^ 1, whose sketch block is Psi_j."""
    d = len(cols)
    sk_plus = residual_sketch(op, recovered, plus, linops.TRANSPOSE)
    sk_minus = residual_sketch(op, recovered, minus, linops.TRANSPOSE)
    Z = _gather(sk_minus, sk_plus, np.arange(d), cols[np.arange(d) ^ 1], s)
    return Z.swapaxes(-1, -2)


def _gn_step(op, recovered, config, ell, Y, truncate, structure_check):
    """Generalized Nystrom right factors: a sketched regression of every
    block against an independent perforated left family.  Returns the
    stacked factors and whether every regression residual is small (True
    when ``structure_check`` is off)."""
    left = sketch.sample_rand_perf_gaussian(
        op.n, 1 << ell, config.s_L, config.t_L, (config.seed, ell, ROLE_LEFT)
    )
    Z = _transpose_sketch(
        op, recovered, left.assembled_plus, left.assembled_minus, left.cols, config.s_L
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
    plus, minus = (sketch.bullet(zeta.entries, stacked) for zeta in zetas)
    # Both selectors share one draw, so either one's cols keys both parities.
    X = _transpose_sketch(op, recovered, plus, minus, zetas[0].cols, s_R)
    return _project_truncate(bases, X, config.k if truncate else None), True


def _project_truncate(Q, X_padded, k):
    """Factor Q_pad [[X]]_k for a level's stack of bases Q (..., m, r) and
    projections X (..., s_R, m), whose rows beyond each basis' rank hit
    zero-padded columns; re-orthonormalized so the stored factors keep the
    Q X form.  ``k=None`` keeps every direction."""
    U, s, Vt = np.linalg.svd(X_padded, full_matrices=False)
    keep = s.shape[-1] if k is None else min(k, s.shape[-1])
    Qraw = Q @ U[..., : Q.shape[-1], :keep]
    Qn = lowrank.orth(Qraw)
    Xn = (Qn.swapaxes(-1, -2) @ Qraw) @ (s[..., :keep, None] * Vt[..., :keep, :])
    return lowrank.LowRankFactors(Q=Qn, X=Xn, ranks=lowrank.column_ranks(Qn))


def _gn_leaf_sketch(config, n, L):
    """Unperforated sum of one more perforated Gaussian family, its column
    groups and its (d/2, 2, s_L, m) stack of transposed blocks."""
    fam = sketch.sample_rand_perf_gaussian(
        n, 1 << L, config.s_L, config.t_L, (config.seed, L + 1, ROLE_DIAG)
    )
    psi_t = _pairs(fam.gaussian_blocks).swapaxes(-1, -2)
    return fam.assembled_plus + fam.assembled_minus, fam.cols, psi_t


def _rsvd_leaf_sketch(config, n, L):
    """Stacked identity, zero-padded to width s_R, under a count sketch; its
    column groups and the (s_R, m) padded identity every leaf shares."""
    d, m = 1 << L, n >> L
    zeta = sketch.sample_countsketch(d, config.t_L, (config.seed, L + 1, ROLE_DIAG))
    pad_eye = np.zeros((m, config.s_R))
    pad_eye[:, :m] = np.eye(m)
    return sketch.bullet(zeta.entries, np.tile(pad_eye, (d, 1))), zeta.cols, pad_eye.T


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
    dense_reference=None,
    structure_check=False,
    allow_invalid=False,
):
    """Peel ``op`` with the variant ``config.variant``; returns (HodlrMatrix,
    PeelReport).  ``truncate=False`` keeps full sketch-rank factors,
    ``dense_reference`` (a dense copy of ``op``) turns on ``_DenseDebug``,
    ``structure_check`` raises StructureViolationError on a regression
    residual and ``allow_invalid`` skips guarantee validation."""
    n, k = op.n, config.k
    L = hodlr.level_count(n, k)  # rejects incompatible (n, k)
    violations = config.theory_violations()
    if violations and not allow_invalid:
        raise ConfigError(
            "config fails guarantee validation: " + "; ".join(violations)
        )
    level_step, leaf_sketch = _VARIANTS[config.variant]
    debug = _DenseDebug(dense_reference) if dense_reference is not None else None
    report = PeelReport(variant=config.variant)
    t_start = time.perf_counter()
    recovered = []
    structure_ok = True

    for ell in range(1, L + 1):
        t0 = time.perf_counter()
        f0, r0 = op.counter.snapshot()
        Y = _range_sketch(op, recovered, config, ell, debug)
        stack, ok = level_step(op, recovered, config, ell, Y, truncate, structure_check)
        structure_ok = structure_ok and ok
        # Sibling pairs (d/2, 2) flattened to the (d,) stack of the level.
        stack = lowrank.LowRankFactors(
            *(a.reshape((1 << ell,) + a.shape[2:]) for a in (stack.Q, stack.X, stack.ranks))
        )
        recovered.append(stack)
        f1, r1 = op.counter.snapshot()
        err = debug.finish_level(ell, stack) if debug is not None else None
        report.levels.append(
            LevelStats(ell, f1 - f0, r1 - r0, time.perf_counter() - t0, err)
        )

    # Leaf diagonals: one more transpose sketch, solved block by block.  Its
    # width is s_L for either variant (rsvd has s_L = s_R).
    t0 = time.perf_counter()
    f0, r0 = op.counter.snapshot()
    d = 1 << L
    psi_hat, cols, psi_t = leaf_sketch(config, n, L)
    sk_diag = residual_sketch(op, recovered, psi_hat, linops.TRANSPOSE)
    Z = _gather(sk_diag, sk_diag, np.arange(d), cols, config.s_L).swapaxes(-1, -2)
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
