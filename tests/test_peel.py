import contextlib
import signal

import numpy as np
import pytest

from hodlrpeel import bench, hodlr, linops, lowrank, peel, sketch
from hodlrpeel.peel import (
    GENERALIZED_NYSTROM,
    RSVD,
    ConfigError,
    PeelConfig,
    StructureViolationError,
    exact_recover,
    expected_queries,
    params_for_beta,
    residual_sketch,
    run_peel,
)
from hodlrpeel.rng import ROLE_DIAG, ROLE_LEFT, ROLE_RIGHT, stream

from helpers import assembled, dense_reference_errors


def hodlr_operator(n, k, key):
    H = hodlr.random_hodlr(n, k, stream(17, *key))
    A = H.to_dense()
    return linops.make_dense_operator(A), A


# PeelConfig and parameter validation -----------------------------------------

def test_config_defaults_and_sanity():
    cfg = PeelConfig(k=2, s_R=4)
    assert cfg.s_L == 4 and cfg.t_R == 1 and cfg.t_L == 1
    with pytest.raises(ConfigError):
        PeelConfig(k=2, s_R=1)
    with pytest.raises(ConfigError):
        PeelConfig(k=2, s_R=4, s_L=3)
    with pytest.raises(ConfigError):
        PeelConfig(k=2, s_R=4, s_L=8, variant=RSVD)
    with pytest.raises(ConfigError):
        PeelConfig(k=2, s_R=4, variant="other")

    # sizes must be integers (numpy's too) and beta positive and finite,
    # though not capped at 1
    for bad in (dict(k=2.5), dict(s_R=3.0), dict(t_R=1.5), dict(s_L=4.0), dict(t_L=2.0),
                dict(beta=float("nan")), dict(beta=float("inf")), dict(beta=0.0)):
        with pytest.raises(ConfigError):
            PeelConfig(**{"k": 2, "s_R": 3, **bad})
    PeelConfig(k=np.int64(2), s_R=np.int32(3), t_R=np.int64(2), beta=1.5)


def test_theory_violations_lists_failed_conditions():
    cfg = PeelConfig(k=2, s_R=4, s_L=8, beta=0.5)
    assert len(cfg.theory_violations()) == 3
    assert PeelConfig(k=2, s_R=4, s_L=8).theory_violations() == []


def test_params_for_beta_worked_example():
    # k=1, beta=0.9: smallest s_R with 1/(s_R-2) <= 0.03 is 36
    cfg = params_for_beta(1, 0.9)
    assert cfg.s_R == 36
    # independent integer scan confirms minimality of every returned value
    assert 1 / (cfg.s_R - 2) <= 0.03 < 1 / (cfg.s_R - 1 - 2)
    assert cfg.theory_violations() == []
    # s_L near 1e8 at beta = 1/8: solved from closed-form roots, not by a scan
    for beta, want in ((0.25, (969, 120, 13954570, 1)), (0.125, (1929, 240, 111112330, 1))):
        cfg = params_for_beta(8, beta)
        assert (cfg.s_R, cfg.t_R, cfg.s_L, cfg.t_L) == want
        assert cfg.theory_violations() == []


@pytest.mark.parametrize("variant", [GENERALIZED_NYSTROM, RSVD])
@pytest.mark.parametrize("beta", [0.9, 0.5, 0.31])
def test_params_for_beta_minimal_by_scan(variant, beta):
    k = 2
    cfg = params_for_beta(k, beta, variant)
    assert cfg.theory_violations() == []
    # decreasing any parameter must break validation
    for field in ("s_R", "t_R", "s_L", "t_L"):
        val = getattr(cfg, field)
        if val == 1 or (variant == RSVD and field == "s_L"):
            continue
        smaller = dict(k=cfg.k, s_R=cfg.s_R, t_R=cfg.t_R, s_L=cfg.s_L,
                       t_L=cfg.t_L, variant=variant, beta=beta)
        smaller[field] = val - 1
        if variant == RSVD and field == "s_R":
            smaller["s_L"] = smaller["s_R"]
        try:
            reduced = PeelConfig(**smaller)
        except ConfigError:
            continue
        assert reduced.theory_violations() != []


def test_params_for_beta_monotone_in_beta():
    for variant in (GENERALIZED_NYSTROM, RSVD):
        a = params_for_beta(3, 0.8, variant)
        b = params_for_beta(3, 0.4, variant)
        for field in ("s_R", "t_R", "s_L", "t_L"):
            assert getattr(b, field) >= getattr(a, field)


def test_unperforated_config():
    cfg = peel.unperforated_config(4, 0.5)
    assert (cfg.s_R, cfg.t_R, cfg.s_L, cfg.t_L) == (16, 1, 64, 1)
    assert cfg.variant == GENERALIZED_NYSTROM and cfg.beta is None


@contextlib.contextmanager
def _deadline(seconds):
    """Raise TimeoutError in the block once ``seconds`` of wall time pass."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("beta", [1e-5, 1e-8, 1e-170])
@pytest.mark.parametrize("k", [1, 8])
def test_small_beta_validates_or_raises_within_a_second(k, beta):
    # past 2^53 neighbouring integers share a ratio num/(x - off), so a
    # search stepping one integer at a time never returns; a bound that
    # underflows to 0 has no solution at all
    makers = [(params_for_beta, GENERALIZED_NYSTROM), (params_for_beta, RSVD),
              (peel.unperforated_config,)]
    for make, *variant in makers:
        with _deadline(1.0):
            try:
                cfg = make(k, beta, *variant)
            except ConfigError as exc:
                assert f"beta={beta}" in str(exc)
            else:
                assert cfg.theory_violations() == []


def test_invalid_config_rejected_unless_allowed():
    op, _ = hodlr_operator(32, 2, (0,))
    bad = PeelConfig(k=2, s_R=2, s_L=2, beta=0.5)
    with pytest.raises(ConfigError):
        run_peel(op, bad)
    run_peel(op, bad, allow_invalid=True)


# Exact recovery ----------------------------------------------------------------

@pytest.mark.parametrize("variant", [GENERALIZED_NYSTROM, RSVD])
def test_exact_minimal_recovery_and_counts(variant):
    # minimal forward budget s_R = k; GN oversamples its left sketch to
    # s_L = 2k + 2 so that its k-column regressions are well-posed.  rsvd
    # keeps the 1e-6 floor: its k-column range sketch leaves one seed in 20
    # near 1e-6.
    n, k = 256, 2
    op, A = hodlr_operator(n, k, (1, variant == RSVD))
    s_L = 2 * k + 2 if variant == GENERALIZED_NYSTROM else k
    cfg = PeelConfig(k=k, s_R=k, t_R=1, s_L=s_L, t_L=1, variant=variant, seed=3)
    H, report = run_peel(op, cfg)
    err = np.linalg.norm(A - H.to_dense()) / np.linalg.norm(A)
    assert err <= (1e-8 if variant == GENERALIZED_NYSTROM else 1e-6)
    L = hodlr.level_count(n, k)
    assert expected_queries(cfg, n) == (2 * L * k, (2 * L + 1) * s_L)
    assert (report.forward_total, report.transpose_total) == expected_queries(cfg, n)
    assert (op.counter.forward_count, op.counter.transpose_count) == (
        report.forward_total,
        report.transpose_total,
    )


def test_zero_operator_gives_zero_hodlr():
    op = linops.make_dense_operator(np.zeros((64, 64)))
    for variant in (GENERALIZED_NYSTROM, RSVD):
        cfg = PeelConfig(k=2, s_R=2, variant=variant, seed=0)
        H, _ = run_peel(op, cfg)
        assert not H.to_dense().any()


@pytest.mark.parametrize("variant", [GENERALIZED_NYSTROM, RSVD])
@pytest.mark.parametrize("t", [1, 2, 3])
def test_exact_hodlr_fixed_point_any_perforation(variant, t):
    n, k = 64, 2
    op, A = hodlr_operator(n, k, (2, t))
    cfg = PeelConfig(
        k=k, s_R=k + 2, t_R=t, s_L=(k + 2 if variant == RSVD else 2 * k + 4),
        t_L=t, variant=variant, seed=t,
    )
    H, _ = run_peel(op, cfg)
    assert np.linalg.norm(A - H.to_dense()) <= 1e-8 * np.linalg.norm(A)


def test_query_counts_exact_for_perforated_configs():
    n, k = 64, 2
    op, _ = hodlr_operator(n, k, (3,))
    for cfg in (
        PeelConfig(k=k, s_R=5, t_R=3, s_L=7, t_L=2, seed=1),
        PeelConfig(k=k, s_R=5, t_R=3, t_L=2, variant=RSVD, seed=1),
    ):
        f0, r0 = op.counter.snapshot()
        _, report = run_peel(op, cfg)
        f1, r1 = op.counter.snapshot()
        assert (f1 - f0, r1 - r0) == expected_queries(cfg, n)
        assert report.forward_total == f1 - f0
        assert report.transpose_total == r1 - r0


def test_determinism_same_seed_same_bytes():
    op, _ = hodlr_operator(64, 2, (4,))
    cfg = PeelConfig(k=2, s_R=4, t_R=2, s_L=8, t_L=2, seed=12)
    H1, _ = run_peel(op, cfg)
    H2, _ = run_peel(op, cfg)
    assert hodlr.to_bytes(H1) == hodlr.to_bytes(H2)
    H3, _ = run_peel(op, PeelConfig(k=2, s_R=4, t_R=2, s_L=8, t_L=2, seed=13))
    assert hodlr.to_bytes(H1) != hodlr.to_bytes(H3)


@pytest.mark.parametrize("make_op, preset, k, beta", [
    (lambda: linops.make_poisson_operator(32), "GN1", 4, 0.5),
    (lambda: linops.make_exp_hard_instance(6, 1e8), "RSVD2", 1, 0.25),
])
def test_repeated_seeded_peels_in_one_process_give_same_bytes(make_op, preset, k, beta):
    # Each peel builds and caches stacked level tensors, and each apply caches
    # them on its H; none of that may carry over into the next peel.
    op = make_op()
    config = bench.preset_config(preset, k, beta, seed=21)
    X = stream(19, 0).standard_normal((op.n, 3))
    runs = []
    for _ in range(2):
        H, _ = run_peel(op, config, allow_invalid=True)
        hodlr.hodlr_apply(H, X)
        hodlr.hodlr_apply(H, X, side=linops.TRANSPOSE)
        runs.append(hodlr.to_bytes(H))
    assert runs[0] == runs[1]


def test_nan_in_operator_raises_typed_error():
    A = hodlr.random_hodlr(64, 2, stream(17, 9)).to_dense()
    A[40, 3] = np.nan
    op = linops.make_dense_operator(A, name="nan-hodlr")
    for variant in (GENERALIZED_NYSTROM, RSVD):
        with pytest.raises(linops.NonFiniteOutputError, match="nan-hodlr: forward"):
            run_peel(op, PeelConfig(k=2, s_R=4, variant=variant, seed=0))


def zeroed_hodlr(n, k, zeroed, key):
    """random_hodlr with the off-diagonal blocks at (level, block) in
    ``zeroed`` replaced by zero blocks."""
    H = hodlr.random_hodlr(n, k, stream(22, *key))
    for ell, j in zeroed:
        H.stacks[ell - 1].X[j] = 0.0
    return H.to_dense()


# Level 1 block 0 covers rows 32-63 x columns 0-31 and level 2 block 2 rows
# 48-63 x columns 32-47, so both range sketches are exact zeros: every other
# block their rows meet is either zero or not sketched by their parity.
ZEROED = {(1, 0), (2, 2)}


def test_level_with_rank_zero_and_rank_k_blocks():
    n, k = 64, 2
    A = zeroed_hodlr(n, k, ZEROED, (0,))
    op = linops.make_dense_operator(A)
    H, _ = run_peel(op, peel.exact_config(k, seed=4))
    assert np.linalg.norm(A - H.to_dense()) <= 1e-8 * np.linalg.norm(A)
    for ell, factors in enumerate(H.levels, start=1):
        for j, f in enumerate(factors):
            assert f.rank == (0 if (ell, j) in ZEROED else k), (ell, j)


def test_rsvd_truncation_ignores_projection_rows_past_a_block_rank():
    # block 0 has rank 1 in a width-2 stack of bases; its projection row 1
    # meets the zero-padded basis column and is the larger one, but the rank-1
    # truncation must keep the block's own direction, not the padding's
    Q = np.zeros((2, 4, 2))
    Q[0, 0, 0] = 1.0
    Q[1, [0, 1], [0, 1]] = 1.0
    X = np.zeros((2, 3, 4))
    X[0, 0] = [1.0, 1.0, 0.0, 0.0]
    X[0, 1] = [0.0, 0.0, 10.0, 0.0]
    X[1, :2] = [[2.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]]
    stack = peel._project_truncate(Q, X, 1)
    np.testing.assert_array_equal(stack.ranks, [1, 1])
    expected = np.zeros((2, 4, 4))
    expected[0, 0, :2] = 1.0
    expected[1, 0, 0] = 2.0
    np.testing.assert_allclose(stack.dense(), expected, atol=1e-15)


def test_regression_residual_check_is_per_block():
    # a large consistent block must not hide a small inconsistent one
    rng = stream(23, 0)
    psi_t_q = rng.standard_normal((2, 6, 2))
    X = rng.standard_normal((2, 2, 5))
    X[0] *= 1e8
    Z = psi_t_q @ X
    assert peel._regression_residual_ok(psi_t_q, X, Z)
    Z[1] += 1e-3 * np.linalg.norm(Z[1]) * rng.standard_normal((6, 5))
    assert not peel._regression_residual_ok(psi_t_q, X, Z)


@pytest.mark.parametrize("preset", ["GN2", "RSVD2"])
def test_perforated_peels_keep_zero_blocks_at_rank_zero(preset):
    n, k = 64, 2
    A = zeroed_hodlr(n, k, ZEROED, (0,))
    op = linops.make_dense_operator(A)
    config = bench.preset_config(preset, k, 0.5, seed=6)
    assert config.t_R > 1
    H, _ = run_peel(op, config, allow_invalid=True)
    assert np.linalg.norm(A - H.to_dense()) <= 1e-8 * np.linalg.norm(A)
    for ell, j in ZEROED:
        assert H.levels[ell - 1][j].rank == 0


@pytest.mark.parametrize("variant", [GENERALIZED_NYSTROM, RSVD])
def test_block_factorization_calls_grow_with_levels_not_blocks(variant, monkeypatch):
    # each level factors all of its blocks with one stacked call
    n, k = 512, 2
    op, _ = hodlr_operator(n, k, (9,))
    calls = {}
    for name in ("orth", "pinv_solve", "truncate_factor"):
        original = getattr(lowrank, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args)

        monkeypatch.setattr(lowrank, name, counted)
    run_peel(op, PeelConfig(k=k, s_R=4, t_R=2, t_L=2, variant=variant, seed=1))
    L = hodlr.level_count(n, k)
    assert calls["orth"] <= 2 * (L + 1)
    assert calls["pinv_solve"] <= 2 * (L + 1)
    assert calls.get("truncate_factor", 0) <= 2 * (L + 1)


# residual_sketch -----------------------------------------------------------------

def perforated_sketch(n, d, s, t, key):
    """A level's perforated Gaussian sketch as residual_sketch takes it, its
    selectors and input blocks, and the two sketches they assemble."""
    fam = sketch.sample_rand_perf_gaussian(n, d, s, t, key)
    selectors = (fam.selector_plus, fam.selector_minus)
    return selectors, fam.gaussian_blocks.reshape(n, s), assembled(fam)


def read(products, cols, s):
    """Block i of the read stack, one at a time: column group cols[i] of the
    partner row block i ^ 1 of the product with i's parity."""
    m = products[0].shape[0] // len(cols)
    return np.stack([
        products[i % 2][(i ^ 1) * m:((i ^ 1) + 1) * m, g * s:(g + 1) * s]
        for i, g in enumerate(cols)
    ]).reshape(-1, 2, m, s)


def test_residual_sketch_no_levels_is_plain_apply():
    op, A = hodlr_operator(32, 2, (5,))
    selectors, blocks, inputs = perforated_sketch(32, 4, 3, 2, (18, 0))
    np.testing.assert_array_equal(
        residual_sketch(op, [], selectors, blocks, linops.FORWARD),
        read([A @ x for x in inputs], selectors[0].cols, 3),
    )


def test_residual_sketch_exact_levels_cancel():
    n, k = 32, 2
    H = hodlr.random_hodlr(n, k, stream(18, 1))
    # an operator equal to the off-diagonal part of H (leaves zeroed), and
    # the leaves' unperforated sketch against every level
    H0 = hodlr.HodlrMatrix(n=n, k=k, stacks=H.stacks, leaves=np.zeros_like(H.leaves))
    op = linops.make_dense_operator(H0.to_dense())
    (plus, minus), blocks, _ = perforated_sketch(n, 1 << H.L, 2, 1, (18, 2))
    leaf = sketch.BlockSelector(plus.entries + minus.entries, plus.cols)
    for side in (linops.FORWARD, linops.TRANSPOSE):
        out = residual_sketch(op, H.stacks, (leaf,), blocks, side)
        assert np.linalg.norm(out) <= 1e-10 * np.linalg.norm(H0.to_dense() @ blocks)


def test_residual_sketch_matches_dense_subtraction():
    # level 3 of n = 64 against levels 1 and 2, both sides
    n, k, s, t = 64, 2, 3, 2
    op, A = hodlr_operator(n, k, (6,))
    H = hodlr.random_hodlr(n, k, stream(18, 3))
    lvl = np.zeros((n, n))
    for ell, factors in enumerate(H.levels[:2], start=1):
        m = n >> ell
        for j, f in enumerate(factors):
            r = hodlr.partner(j)
            lvl[r * m:(r + 1) * m, j * m:(j + 1) * m] = f.dense()
    selectors, blocks, inputs = perforated_sketch(n, 8, s, t, (18, 4))
    for side, M in ((linops.FORWARD, A - lvl), (linops.TRANSPOSE, (A - lvl).T)):
        out = residual_sketch(op, H.stacks[:2], selectors, blocks, side)
        ref = read([M @ x for x in inputs], selectors[0].cols, s)
        assert np.linalg.norm(out - ref) <= 1e-10 * np.linalg.norm(ref)
    # only the op queries hit the counter: both assembled sketches per side
    assert op.counter.snapshot() == (2 * s * t, 2 * s * t)


@pytest.mark.parametrize("preset", ["GN1", "GN2", "RSVD1", "RSVD2"])
def test_peel_queries_the_bullet_of_each_drawn_family(preset, monkeypatch):
    # Every block the peel sends to the operator, in query order, is
    # bitwise bullet(selector, blocks) of the family drawn under the peel's
    # key; at beta = 1/2 the perforated presets take t = 2.
    n, k = 128, 2
    op, _ = hodlr_operator(n, k, (8,))
    cfg = bench.preset_config(preset, k, 0.5, seed=3)
    queries, apply = [], op.apply

    def recording(X, side):
        queries.append((side, X.copy()))
        return apply(X, side)

    monkeypatch.setattr(op, "apply", recording)
    run_peel(op, cfg, allow_invalid=True)

    def expect(side, selectors, blocks):
        for sel in selectors:
            got_side, X = queries.pop(0)
            assert got_side == side
            np.testing.assert_array_equal(X, sketch.bullet(sel.entries, blocks))

    L, seed = hodlr.level_count(n, k), cfg.seed
    for ell in range(1, L + 1):
        d = 1 << ell
        right = sketch.sample_rand_perf_gaussian(n, d, cfg.s_R, cfg.t_R, (seed, ell, ROLE_RIGHT))
        expect(linops.FORWARD, (right.selector_plus, right.selector_minus),
               right.gaussian_blocks.reshape(n, cfg.s_R))
        if cfg.variant == GENERALIZED_NYSTROM:
            left = sketch.sample_rand_perf_gaussian(n, d, cfg.s_L, cfg.t_L, (seed, ell, ROLE_LEFT))
            expect(linops.TRANSPOSE, (left.selector_plus, left.selector_minus),
                   left.gaussian_blocks.reshape(n, cfg.s_L))
        else:
            # the stacked bases are read back from the queries themselves:
            # block i in column group cols[i] of its parity's sketch
            zetas = sketch.sample_perf_countsketch(d, cfg.t_L, (seed, ell, ROLE_LEFT))
            m, s = n // d, cfg.s_R
            pair = [X for _, X in queries[:2]]
            bases = np.concatenate([
                pair[i % 2][i * m:(i + 1) * m, g * s:(g + 1) * s]
                for i, g in enumerate(zetas[0].cols)
            ])
            expect(linops.TRANSPOSE, zetas, bases)
    if cfg.variant == GENERALIZED_NYSTROM:
        leaf = sketch.sample_rand_perf_gaussian(
            n, 1 << L, cfg.s_L, cfg.t_L, (seed, L + 1, ROLE_DIAG)
        )
        draw = leaf.selector_plus.entries + leaf.selector_minus.entries
        expect(linops.TRANSPOSE, (sketch.BlockSelector(draw, leaf.selector_plus.cols),),
               leaf.gaussian_blocks.reshape(n, cfg.s_L))
    else:
        m = n >> L
        zeta = sketch.sample_countsketch(1 << L, cfg.t_L, (seed, L + 1, ROLE_DIAG))
        expect(linops.TRANSPOSE, (zeta,), np.tile(np.eye(m, cfg.s_R), (1 << L, 1)))
    assert queries == []


def test_counter_untouched_by_recovered_level_products():
    op, _ = hodlr_operator(64, 2, (7,))
    cfg = PeelConfig(k=2, s_R=2, seed=0)
    _, report = run_peel(op, cfg)
    assert op.counter.forward_count == report.forward_total


# Dense-reference checks, run after the peel ----------------------------------------

@pytest.mark.parametrize("variant", [GENERALIZED_NYSTROM, RSVD])
def test_dense_debug_checks_noise_structure_and_level_errors(variant):
    rng = stream(19, 0)
    H = hodlr.random_hodlr(64, 2, rng)
    A = H.to_dense() + 0.05 * rng.standard_normal((64, 64))
    op = linops.make_dense_operator(A)
    s_L = 8 if variant == GENERALIZED_NYSTROM else 4
    cfg = PeelConfig(k=2, s_R=4, t_R=2, s_L=s_L, t_L=2, variant=variant, seed=5)
    H, _ = run_peel(op, cfg)
    errs = dense_reference_errors(op, A, H, cfg)
    assert len(errs) == hodlr.level_count(64, 2)
    assert all(e >= 0 for e in errs)
    # a dense copy that is not the operator breaks the structured noise form
    B = A.copy()
    B[40, 0] += 1.0
    with pytest.raises(AssertionError, match="structured form"):
        dense_reference_errors(op, B, H, cfg)


@pytest.mark.parametrize("variant", [GENERALIZED_NYSTROM, RSVD])
def test_run_peel_takes_every_keyword_for_either_variant(variant):
    op, A = hodlr_operator(64, 2, (9,))
    cfg = peel.exact_config(2, variant, seed=3)
    H, report = run_peel(op, cfg, truncate=False, structure_check=True, allow_invalid=True)
    assert (report.forward_total, report.transpose_total) == expected_queries(cfg, 64)
    assert np.linalg.norm(A - H.to_dense()) <= 1e-6 * np.linalg.norm(A)


# exact_recover ---------------------------------------------------------------------

def test_exact_recover_on_promise_kept():
    op, A = hodlr_operator(128, 2, (8,))
    H, report = exact_recover(op, 2, seed=1)
    assert np.linalg.norm(A - H.to_dense()) <= 1e-6 * np.linalg.norm(A)
    fwd, tsp = expected_queries(peel.exact_config(2, seed=1), 128)
    # one extra forward verification query on top of the minimal protocol
    assert report.forward_total == fwd + 1
    assert report.transpose_total == tsp
    assert (op.counter.forward_count, op.counter.transpose_count) == (fwd + 1, tsp)


def test_exact_recover_no_false_violations_at_depth():
    # the n = 512 HODLR(k) matrices of acceptance criterion 1, seeds 0-19:
    # with a square regression (s_L = k) 26 of these 40 recoveries raised
    for k in (2, 4):
        H0 = hodlr.random_hodlr(512, k, stream(105, 512, k))
        A = H0.to_dense()
        op = linops.make_dense_operator(A)
        for seed in range(20):
            H, _ = exact_recover(op, k, seed=seed)
            assert np.linalg.norm(A - H.to_dense()) <= 1e-6 * np.linalg.norm(A)


def test_exact_recover_zero_matrix():
    op = linops.make_dense_operator(np.zeros((32, 32)))
    H, _ = exact_recover(op, 2, seed=0)
    assert not H.to_dense().any()


def test_exact_recover_raises_on_dense_input():
    op = linops.make_dense_operator(stream(19, 1).standard_normal((128, 128)))
    # the oversampled regressions leave a residual, so the free per-level
    # check fires before the verification query
    with pytest.raises(StructureViolationError, match="regression residual"):
        exact_recover(op, 2, seed=0)


# No-truncation mode ------------------------------------------------------------------

def test_no_truncate_keeps_fat_factors_and_improves_error():
    # a HODLR(6) matrix peeled at structural rank k=2: truncation loses the
    # trailing directions, the untruncated mode recovers them exactly
    A = hodlr.random_hodlr(64, 6, stream(20, 0)).to_dense()
    op = linops.make_dense_operator(A)
    cfg = PeelConfig(k=2, s_R=6, s_L=12, seed=2)
    H_t, _ = run_peel(op, cfg, truncate=True)
    H_f, _ = run_peel(op, cfg, truncate=False)
    assert max(f.rank for f in H_f.levels[0]) > 2
    scale = np.linalg.norm(A)
    assert np.linalg.norm(A - H_f.to_dense()) <= 1e-8 * scale
    assert np.linalg.norm(A - H_t.to_dense()) > 1e-3 * scale


# Hard-instance behaviors (module-level examples) -------------------------------------

def hard_block_ratio(preset_kwargs, trials, seed0):
    op = linops.make_hard_block_instance(1, 1e8)
    A = op.materialize()
    opt2 = np.linalg.norm(A - hodlr.best_hodlr(A, 1).to_dense()) ** 2
    ratios = []
    for t in range(trials):
        cfg = PeelConfig(k=1, seed=seed0 + t, **preset_kwargs)
        H, _ = run_peel(op, cfg, allow_invalid=True)
        ratios.append(np.linalg.norm(A - H.to_dense()) ** 2 / opt2)
    return float(np.mean(ratios))


def test_hard_block_rsvd_unperforated_doubles():
    ratio = hard_block_ratio(dict(s_R=4, t_R=1, t_L=1, variant=RSVD), 20, 100)
    assert 1.9 <= ratio <= 2.1


def test_hard_block_heavy_perforation_suppresses_doubling():
    # t_R = t_L = 8 cuts the collision probability to 1/8 per side; the
    # Monte-Carlo mean lands near 1.28 (doubling only on collisions plus the
    # diagonal-stage leakage), far below the unperforated 2.0
    ratio = hard_block_ratio(dict(s_R=4, t_R=8, t_L=8, variant=RSVD), 20, 500)
    assert ratio <= 1.35


def test_hard_block_gn_same_forward_budget_is_near_optimal():
    ratio = hard_block_ratio(
        dict(s_R=4, t_R=1, s_L=16, t_L=1, variant=GENERALIZED_NYSTROM), 20, 100
    )
    assert ratio <= 1.3
