"""Tests for snapshot generation, covariance estimation and smoothing."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sourcecount.linalg import check_hermitian, hermitian_eig
from sourcecount.signal_model import (
    fbss_covariance,
    generate_snapshots,
    noise_variance_at,
    sample_covariance,
    snapshot_stack,
    steering_matrix,
)

# Three well-separated DOAs, the default trial of these tests.
DOAS = (0.2, 0.7, 1.2)


def normal_count(m, n, doas, targets, snr_db):
    """The standard normals one trial draws: the real then the imaginary
    parts of its independent source rows, then those of its M x N noise
    (none when noise-free)."""
    noisy = noise_variance_at(snr_db) > 0.0
    return 2 * (len(doas) - len(targets) + m * noisy) * n


class TestSteeringVector:
    def test_broadside_is_all_ones(self):
        assert np.allclose(steering_matrix((0.0,), 8)[:, 0], np.ones(8))

    def test_endfire_two_elements(self):
        v = steering_matrix((math.pi / 2,), 2)[:, 0]
        assert np.allclose(v, [1.0, -1.0])

    def test_matches_scalar_evaluation(self):
        theta, m = math.pi / 6, 3
        v = steering_matrix((theta,), m)[:, 0]
        expected = [np.exp(1j * math.pi * i * math.sin(theta)) for i in range(m)]
        assert np.allclose(v, expected, atol=1e-15)
        assert np.allclose(np.abs(v), 1.0)


class TestSteeringMatrix:
    @settings(max_examples=60)
    @given(doas=st.lists(st.floats(0.0, 2.0 * math.pi), max_size=6),
           m=st.integers(1, 12))
    def test_columns_are_closed_form_bit_for_bit(self, doas, m):
        a = steering_matrix(doas, m)
        assert a.shape == (m, len(doas))
        assert a.dtype == np.complex128
        for k, theta in enumerate(doas):
            column = np.exp(1j * (np.pi * np.arange(m) * math.sin(theta)))
            assert np.array_equal(a[:, k], column)
            assert np.array_equal(steering_matrix((theta,), m)[:, 0], column)

    def test_no_doas_give_exact_zero_signal(self):
        a = steering_matrix((), 5)
        assert a.shape == (5, 0)
        assert np.array_equal(a @ np.zeros((0, 7), dtype=complex), np.zeros((5, 7)))


def assert_rejected_before_any_draw(match, m=10, n=20, doas=DOAS, targets=(), snr_db=5.0):
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=match):
        generate_snapshots(m, n, doas, targets, snr_db, rng)
    assert rng.bit_generator.state == state


class TestScenarioValidation:
    """generate_snapshots' checks of one trial's arguments."""

    def test_rejects_too_many_sources(self):
        assert_rejected_before_any_draw("^num_antennas", m=4, doas=(0.1, 0.2, 0.3, 0.4))

    @pytest.mark.parametrize("argument, m, n", [
        ("num_antennas", 10.0, 20), ("num_antennas", True, 20), ("num_antennas", 0, 20),
        ("num_snapshots", 10, 20.5), ("num_snapshots", 10, 0), ("num_snapshots", 10, -1)])
    def test_rejects_counts_that_are_not_integers_in_range(self, argument, m, n):
        assert_rejected_before_any_draw(f"^{argument}", m=m, n=n, doas=())

    def test_numpy_integer_counts_accepted(self):
        data = generate_snapshots(np.int64(10), np.int32(20), DOAS, (), 5.0,
                                  np.random.default_rng(1))
        assert np.array_equal(data, generate_snapshots(10, 20, DOAS, (), 5.0,
                                                       np.random.default_rng(1)))

    def test_rejects_duplicate_doas(self):
        assert_rejected_before_any_draw("^doas must be pairwise distinct", doas=(0.5, 0.5))

    @pytest.mark.parametrize("targets", [(0, 1), (2,), (1,) * 3, (-1,), (0.0,), (True,)])
    def test_rejects_copy_of_a_coherent_source(self, targets):
        # Or of any source that is not independent: (0, 1) has copy 2 read
        # copy 1, (2,) has the copy read itself.
        assert_rejected_before_any_draw("^targets", targets=targets)

    def test_noise_variance(self):
        assert noise_variance_at(0.0) == 1.0
        assert noise_variance_at(10.0) == pytest.approx(0.1)
        assert noise_variance_at(math.inf) == 0.0

    def test_rejects_snr_whose_noise_variance_overflows(self):
        # 10^(-SNR/10) is finite down to about -3082.55 dB
        assert noise_variance_at(-3082.5) == pytest.approx(10.0 ** 308.25)
        assert_rejected_before_any_draw(r"^snr_db must be a real number in \[-3082.547",
                                        snr_db=-4000.0)

    @pytest.mark.parametrize("snr_db", [10**400, -10**400], ids=["10**400", "-10**400"])
    def test_rejects_integer_snr_past_the_float_range(self, snr_db):
        # Neither sign escapes as OverflowError: the number does not fit a float.
        with pytest.raises(ValueError, match=r"^snr_db must be a real number in \["):
            noise_variance_at(snr_db)
        assert_rejected_before_any_draw(r"^snr_db must be a real number in \[", snr_db=snr_db)

    def test_extreme_snrs_that_fit_a_float(self):
        assert noise_variance_at(1e308) == 0.0
        assert noise_variance_at(-3082) == pytest.approx(10.0 ** 308.2)

    @pytest.mark.parametrize("snr_db", [math.nan, -math.inf])
    def test_rejects_nan_and_minus_inf_snr(self, snr_db):
        # NaN would fail the noise test and simulate a noise-free array.
        assert_rejected_before_any_draw(r"^snr_db must be a real number in \[", snr_db=snr_db)

    @pytest.mark.parametrize("snr_db", ["5", None, 1j, (5.0,)])
    def test_rejects_snr_that_is_no_number(self, snr_db):
        assert_rejected_before_any_draw(r"^snr_db must be a real number in \[", snr_db=snr_db)

    @pytest.mark.parametrize("doa", [math.nan, math.inf, "a", True])
    def test_rejects_a_doa_that_is_no_finite_real(self, doa):
        # NaN gave NaN snapshots, inf and "a" raised errors naming no argument, True ran as 1 rad.
        assert_rejected_before_any_draw(r"^doas must be a real number in \[", doas=(0.1, doa))


class TestGenerateSources:
    """Source rows, seen through noise-free snapshots ``A(theta) S``."""

    def test_empty_for_zero_sources(self):
        assert normal_count(10, 20, (), (), math.inf) == 0
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        assert np.array_equal(generate_snapshots(10, 20, (), (), math.inf, rng),
                              np.zeros((10, 20)))
        assert rng.bit_generator.state == state

    def test_coherent_rows_identical(self):
        # One independent row is drawn; the copy re-reads it exactly.
        doas = (0.2, 0.7)
        assert normal_count(10, 20, doas, (0,), math.inf) == 2 * 20
        normals = np.random.default_rng(0).standard_normal((1, 40))
        row = (normals[0, :20] + 1j * normals[0, 20:]) / math.sqrt(2.0)
        a = steering_matrix(doas, 10)
        data = snapshot_stack(10, 20, np.array([2]), np.array([[0, 0]]), np.array([doas]),
                              np.array([0.0]), normals)[0]
        assert np.array_equal(data, a @ np.stack([row, row]))
        assert np.array_equal(
            generate_snapshots(10, 20, doas, (0,), math.inf, np.random.default_rng(0)), data)

    def test_unit_power_and_independence(self):
        # Monte-Carlo oracle: empirical source covariance approaches I at
        # large snapshot count.
        data = generate_snapshots(10, 10000, DOAS, (), math.inf, np.random.default_rng(123))
        s = np.linalg.pinv(steering_matrix(DOAS, 10)) @ data
        emp = (s @ s.conj().T) / 10000
        assert np.linalg.norm(emp - np.eye(3)) <= 0.05


class TestGenerateSnapshots:
    def test_noise_free_single_source_is_rank_one(self):
        data = generate_snapshots(10, 20, (0.7,), (), math.inf, np.random.default_rng(0))
        a = steering_matrix((0.7,), 10)[:, 0]
        # every snapshot column must be proportional to the steering vector
        coeff = data[0, :] / a[0]
        assert np.allclose(data, np.outer(a, coeff), atol=1e-12)

    def test_pure_noise_power(self):
        data = generate_snapshots(10, 10000, (), (), 0.0, np.random.default_rng(5))
        power = np.mean(np.abs(data) ** 2)
        assert abs(power - 1.0) <= 0.05

    def test_shape(self):
        data = generate_snapshots(10, 20, DOAS, (), 5.0, np.random.default_rng(1))
        assert data.shape == (10, 20)
        assert data.dtype == np.complex128

    def test_noise_free_without_sources_is_zero(self):
        assert np.array_equal(
            generate_snapshots(10, 20, (), (), math.inf, np.random.default_rng(1)),
            np.zeros((10, 20)))

    def test_seeded_determinism(self):
        d1 = generate_snapshots(10, 20, DOAS, (), 5.0, np.random.default_rng(99))
        d2 = generate_snapshots(10, 20, DOAS, (), 5.0, np.random.default_rng(99))
        assert np.array_equal(d1, d2)


def block_draws(k_max, snr_db, coherent=False, count=40, seed=0):
    """Raw draws ``(doas, targets, snr_db)`` over every K in 0..k_max, with
    coherent copies of random independent sources when ``coherent``."""
    rng = np.random.default_rng(seed)
    out = []
    for j in range(count):
        k = j % (k_max + 1)
        doas = rng.uniform(0.0, 2.0 * math.pi, size=k).tolist()
        copies = int(rng.integers(0, k)) if coherent and k else 0
        out.append((doas, rng.integers(0, k - copies, size=copies).tolist(), snr_db))
    return out


def columns(draws):
    """snapshot_stack's (counts, rows, doas, variances) columns of raw draws.
    The entries past each K are never read: NaN DOAs and out-of-range rows
    there would show."""
    k_max = max(len(doas) for doas, _, _ in draws)
    rows = np.full((len(draws), k_max), 10**6, dtype=np.intp)
    doas = np.full((len(draws), k_max), np.nan)
    for j, (trial_doas, targets, _) in enumerate(draws):
        k = len(trial_doas)
        rows[j, :k] = [*range(k - len(targets)), *targets]
        doas[j, :k] = trial_doas
    return (np.array([len(doas) for doas, _, _ in draws]), rows, doas,
            np.array([noise_variance_at(snr) for _, _, snr in draws]))


def one_by_one_and_stacked(m, n, draws, width):
    """Each draw's snapshots from its own stream, and the same streams'
    draws laid into one block and synthesized together."""
    one = [generate_snapshots(m, n, *draw, np.random.default_rng(j))
           for j, draw in enumerate(draws)]
    normals = np.full((len(draws), width), np.nan)
    for j, draw in enumerate(draws):
        np.random.default_rng(j).standard_normal(
            out=normals[j, width - normal_count(m, n, *draw):])
    return one, snapshot_stack(m, n, *columns(draws), normals)


def complex_formula(m, n, counts, rows, doas, variances, normals):
    """snapshot_stack's trials one at a time in complex arithmetic: ``A S``,
    plus ``sqrt(variance) W`` when noisy, with S and W as (re + 1j * im) / sqrt(2)."""
    width, out = normals.shape[1], []
    for j, k in enumerate(counts):
        independent = max(rows[j, :k], default=-1) + 1
        noisy = variances[j] > 0.0
        row = normals[j, width - 2 * (independent + m * noisy) * n:]
        s = row[:2 * independent * n].reshape(2, independent, n)
        data = steering_matrix(doas[j, :k], m) @ ((s[0] + 1j * s[1]) / math.sqrt(2.0))[rows[j, :k]]
        if noisy:
            w = row[2 * independent * n:].reshape(2, m, n)
            data = data + np.sqrt(variances[j]) * ((w[0] + 1j * w[1]) / math.sqrt(2.0))
        out.append(data)
    return np.array(out)


class TestSnapshotStack:
    @settings(max_examples=60)
    @given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(2, 6), n=st.integers(1, 5),
           count=st.integers(1, 9), snr_db=st.floats(-30.0, 60.0), coherent=st.booleans(),
           block=st.sampled_from(["noisy", "noise-free", "mixed"]))
    def test_equals_the_complex_formula_bit_for_bit(self, seed, m, n, count, snr_db, coherent,
                                                   block):
        # The parts are built on the float64 view; a block mixing noisy and
        # noise-free rows masks the noise-free ones, whose unread normals are NaN.
        snrs = {"noisy": [snr_db], "noise-free": [math.inf], "mixed": [snr_db, math.inf]}[block]
        draws = [(doas, targets, snrs[j % len(snrs)]) for j, (doas, targets, _)
                 in enumerate(block_draws(m - 1, snr_db, coherent, count, seed))]
        width = 2 * (m - 1 + m) * n
        normals = np.full((count, width), np.nan)
        rng = np.random.default_rng(seed)
        for j, draw in enumerate(draws):
            rng.standard_normal(out=normals[j, width - normal_count(m, n, *draw):])
        stacked = snapshot_stack(m, n, *columns(draws), normals)
        assert stacked.tobytes() == complex_formula(m, n, *columns(draws), normals).tobytes()

    def test_one_draw_equals_the_per_part_draws(self):
        # Source re, source im, noise re, noise im: drawn as one block or
        # one part at a time, a Generator gives the same values.
        rng = np.random.default_rng(4)
        parts = [rng.standard_normal(shape) for shape in ((3, 20), (3, 20), (10, 20), (10, 20))]
        whole = np.random.default_rng(4).standard_normal(2 * (3 + 10) * 20)
        assert np.array_equal(whole, np.concatenate([p.ravel() for p in parts]))
        out = np.empty(2 * (3 + 10) * 20 + 7)
        np.random.default_rng(4).standard_normal(out=out[7:])
        assert np.array_equal(out[7:], whole)

    @pytest.mark.parametrize("n", [1, 7])
    @pytest.mark.parametrize("snr_db", [math.inf, 3.0])
    @pytest.mark.parametrize("coherent", [False, True])
    def test_block_equals_one_scenario_calls(self, n, snr_db, coherent):
        m, k_max = 6, 5
        draws = block_draws(k_max, snr_db, coherent)
        assert {len(doas) for doas, _, _ in draws} == set(range(k_max + 1))
        if coherent:
            assert any(targets for _, targets, _ in draws)
        one, stacked = one_by_one_and_stacked(m, n, draws, 2 * (k_max + m) * n)
        assert stacked.shape == (len(draws), m, n)
        for j, data in enumerate(one):
            assert np.array_equal(stacked[j], data)

    def test_mixed_noise_and_snr_in_one_block(self):
        draws = [([0.3 + 0.7 * i for i in range(k)], targets, snr)
                 for k, snr, targets in ((2, math.inf, []), (2, 0.0, [0]), (2, 17.5, []),
                                         (0, 3.0, []), (0, math.inf, []), (3, 1e6, []))]
        # 1e6 dB: the variance underflows, so no noise is drawn.
        assert noise_variance_at(1e6) == 0.0
        assert normal_count(4, 5, *draws[-1]) == 2 * 3 * 5
        one, stacked = one_by_one_and_stacked(4, 5, draws, 2 * (3 + 4) * 5)
        for j, data in enumerate(one):
            assert np.array_equal(stacked[j], data)

    def test_single_k_group(self):
        draws = [draw for draw in block_draws(3, 2.0, count=60, seed=1) if len(draw[0]) == 3]
        one, stacked = one_by_one_and_stacked(5, 8, draws, 2 * (3 + 5) * 8)
        for j, data in enumerate(one):
            assert np.array_equal(stacked[j], data)

    def test_steering_stack_equals_per_scenario_matrices(self):
        doas = np.random.default_rng(6).uniform(0.0, 2.0 * math.pi, size=(4, 3))
        stack = steering_matrix(doas, 7)
        assert stack.shape == (4, 7, 3)
        for j, row in enumerate(doas):
            assert np.array_equal(stack[j], steering_matrix(tuple(row), 7))


# Parts whose products give signed zeros (1e-300 squared underflows), then
# those that overflow or are not finite.
SIGNED_ZERO_PARTS = [-0.0, 0.0, 1.5, -2.25, 1e-300]
SPECIAL_PARTS = SIGNED_ZERO_PARTS + [1e200, math.inf, -math.inf, math.nan]


def literal_covariance(x):
    """sample_covariance as written: ``(x @ x^H) / N``, then ``0.5 (r + r^H)``."""
    r = (x @ x.conj().swapaxes(-1, -2)) / x.shape[-1]
    return 0.5 * (r + r.conj().swapaxes(-1, -2))


class TestSampleCovariance:
    @settings(max_examples=150)
    @given(seed=st.integers(0, 2 ** 32 - 1), stack=st.integers(1, 3), m=st.integers(1, 4),
           n=st.integers(1, 4), pool=st.sampled_from([SIGNED_ZERO_PARTS, SPECIAL_PARTS]),
           share=st.sampled_from([0.0, 0.1, 0.5, 1.0]), complex_input=st.booleans())
    def test_equals_the_literal_formula_byte_for_byte(self, seed, stack, m, n, pool, share,
                                                      complex_input):
        # Complex input is scaled by the product with 1/N on its float64 view,
        # except where that differs from Smith's division by N + 0j (a part
        # non-finite or -0.0); real input keeps its true division.
        rng = np.random.default_rng(seed)
        shape = (stack, m, n, 2)
        parts = np.where(rng.random(shape) < share, rng.choice(pool, size=shape),
                         rng.standard_normal(shape))
        x = parts.view(np.complex128)[..., 0] if complex_input else parts[..., 0]
        with np.errstate(all="ignore"):
            assert sample_covariance(x).tobytes() == literal_covariance(x).tobytes()

    def test_negative_zero_part_keeps_numpys_division(self):
        # (x @ x^H) has an entry -0.0 + 0.0j here, whose Smith quotient is +0.0
        # in the real part; the product with 1/N would keep -0.0.
        parts = np.array([[[-0.0, -2.25], [0.0, -0.0]], [[0.0, 0.0], [-2.25, 1.5]]])
        x = parts.view(np.complex128)[..., 0]
        assert sample_covariance(x).tobytes() == literal_covariance(x).tobytes()

    @pytest.mark.parametrize("n", [1, 20])
    def test_stack_equals_per_matrix(self, n):
        rng = np.random.default_rng(15)
        x = rng.standard_normal((2, 5, 6, n)) + 1j * rng.standard_normal((2, 5, 6, n))
        stack = sample_covariance(x)
        assert stack.shape == (2, 5, 6, 6)
        for i in range(2):
            for j in range(5):
                assert np.array_equal(stack[i, j], sample_covariance(x[i, j]))

    def test_single_snapshot_outer_product(self):
        r_vec = np.array([[1 + 1j], [2 - 1j]])
        r = sample_covariance(r_vec)
        assert np.allclose(r, r_vec @ r_vec.conj().T)

    def test_noise_free_rank_one_limit(self):
        r = sample_covariance(generate_snapshots(10, 5000, (0.4,), (), math.inf,
                                                 np.random.default_rng(2)))
        w = hermitian_eig(r).eigenvalues
        assert w[0] == pytest.approx(10, rel=0.1)
        assert np.all(w[1:] <= 1e-9 * w[0])

    def test_zero_snapshots_give_zero_matrix(self):
        r = sample_covariance(np.zeros((4, 7), dtype=complex))
        assert np.array_equal(r, np.zeros((4, 4)))

    def test_hermitian_and_psd(self):
        for seed in range(5):
            r = sample_covariance(generate_snapshots(10, 20, DOAS, (), 5.0,
                                                     np.random.default_rng(seed)))
            check_hermitian(r)  # raises unless Hermitian
            assert np.all(hermitian_eig(r).eigenvalues >= 0.0)

    def test_trace_tracks_signal_plus_noise_power(self):
        r = sample_covariance(generate_snapshots(10, 10000, (0.9,), (), 0.0,
                                                 np.random.default_rng(4)))
        level = np.trace(r).real / 10
        assert level == pytest.approx(2.0, rel=0.05)  # unit source + unit noise

    def test_statistical_rank_equals_source_count(self):
        # noise-free, well-separated sources: exactly K eigenvalues above
        # 1e-3 of the top one
        for k, seed in ((1, 0), (2, 1), (4, 2)):
            doas = tuple(-1.0 + 2.0 * i / k for i in range(k))
            r = sample_covariance(generate_snapshots(10, 10000, doas, (), math.inf,
                                                     np.random.default_rng(seed)))
            w = hermitian_eig(r).eigenvalues
            assert int(np.sum(w > 1e-3 * w[0])) == k

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            sample_covariance(np.zeros((4, 0), dtype=complex))

    def test_rejects_a_vector(self):
        with pytest.raises(ValueError, match="M x N matrix or a stack"):
            sample_covariance(np.ones(4, dtype=complex))


class TestFbssCovariance:
    def test_full_subarray_collapses_to_single_term(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((6, 30)) + 1j * rng.standard_normal((6, 30))
        r = sample_covariance(x)
        out = fbss_covariance(r, 6)
        assert np.allclose(out, 0.5 * (r + np.flip(r, (-2, -1)).conj()))

    def test_matches_triple_loop_oracle_and_stays_hermitian(self):
        # At M0 = M the one forward term gives (A + J conj(A) J) / 2, J the anti-identity.
        rng = np.random.default_rng(21)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        a = 0.5 * (a + a.conj().T)
        m = a.shape[0]
        j = np.zeros((m, m))
        for i in range(m):
            j[i, m - 1 - i] = 1.0
        expected = np.zeros((m, m), dtype=complex)
        for r in range(m):
            for c in range(m):
                for s in range(m):
                    for t in range(m):
                        expected[r, c] += j[r, s] * np.conj(a[s, t]) * j[t, c]
        out = fbss_covariance(a, m)
        assert np.allclose(out, 0.5 * (a + expected), atol=1e-14)
        check_hermitian(out)  # raises unless Hermitian

    def test_identity_invariant(self):
        for m0 in (1, 3, 5):
            out = fbss_covariance(np.eye(5, dtype=complex), m0)
            assert np.allclose(out, np.eye(m0))

    def test_averages_a_diagonal_with_its_reverse(self):
        # J conj(D) J reverses a diagonal D, so M0 = M gives (d + d[::-1]) / 2.
        out = fbss_covariance(np.diag([1.0 + 0j, 2.0 + 0j, 4.0 + 0j]), 3)
        assert np.array_equal(out, np.diag([2.5 + 0j, 2.0 + 0j, 2.5 + 0j]))

    def test_full_subarray_result_is_a_fixed_point(self):
        # (A + J conj(A) J) / 2 is its own exchanged conjugate, so smoothing
        # it again at M0 = M returns it bit for bit.
        rng = np.random.default_rng(2)
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        a = 0.5 * (a + a.conj().T)
        once = fbss_covariance(a, 5)
        assert np.array_equal(fbss_covariance(once, 5), once)

    def test_rejects_non_square(self):
        for r in (np.ones((2, 3), dtype=complex), np.ones((3, 2, 3), dtype=complex),
                  np.ones(4, dtype=complex)):
            with pytest.raises(ValueError, match="square"):
                fbss_covariance(r, 1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
    def test_rejects_non_finite_entries(self, bad):
        r = np.eye(4, dtype=complex)
        r[1, 2] = bad
        with pytest.raises(ValueError, match=r"^matrix has non-finite entries \(NaN or inf\)$"):
            fbss_covariance(r, 2)

    def test_decorrelates_coherent_pair(self):
        r = sample_covariance(generate_snapshots(10, 200, (0.3, 1.1), (0,), math.inf,
                                                 np.random.default_rng(7)))
        w_full = hermitian_eig(r).eigenvalues
        assert int(np.sum(w_full > 1e-6 * w_full[0])) == 1  # rank-deficient
        w_smooth = hermitian_eig(fbss_covariance(r, 5)).eigenvalues
        assert w_smooth[1] > 1e-6 * w_smooth[0]  # rank restored

    def test_preserves_psd(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            x = rng.standard_normal((8, 12)) + 1j * rng.standard_normal((8, 12))
            r = sample_covariance(x)
            w = hermitian_eig(fbss_covariance(r, 4)).eigenvalues
            assert np.all(w >= -1e-9 * np.trace(r).real)

    def test_output_is_hermitian(self):
        data = generate_snapshots(10, 20, DOAS, (), 5.0, np.random.default_rng(3))
        out = fbss_covariance(sample_covariance(data), 5)
        check_hermitian(out)  # raises unless Hermitian

    @pytest.mark.parametrize("m, m0", [(6, 1), (6, 3), (6, 6), (10, 1), (10, 2), (10, 5),
                                       (10, 10)])
    def test_stack_equals_per_matrix(self, m, m0):
        # M0 = 1 and M0 = M are the ends of the allowed range. A stack sums its windows in a
        # loop and one matrix in one accumulate, both in order: a sum of the up to 10 windows
        # in another order, such as a pairwise one, would round otherwise.
        rng = np.random.default_rng(14)
        x = rng.standard_normal((7, m, 9)) + 1j * rng.standard_normal((7, m, 9))
        stack = np.stack([sample_covariance(snapshots) for snapshots in x])
        out = fbss_covariance(stack, m0)
        assert out.shape == (7, m0, m0)
        for i, r in enumerate(stack):
            assert np.array_equal(out[i], fbss_covariance(r, m0))
        smoothed = hermitian_eig(out)
        for i, r in enumerate(out):
            one = hermitian_eig(r)
            assert np.array_equal(smoothed.eigenvalues[i], one.eigenvalues)
            assert np.array_equal(smoothed.eigenvectors[i], one.eigenvectors)

    @pytest.mark.parametrize("m0", [1, 5, 10])
    def test_overflowing_sum_rejected(self, m0):
        # Entries near the float limit would overflow the 2T-term sum.
        huge = 1e308 * np.eye(10, dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for r in (huge, np.stack([np.eye(10, dtype=complex), huge])):
                with pytest.raises(ValueError, match="overflows"):
                    fbss_covariance(r, m0)

    def test_largest_summable_entries_accepted(self):
        limit = np.finfo(float).max / 12  # 2T = 12 terms at M=10, M0=5
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = fbss_covariance(limit * np.eye(10, dtype=complex), 5)
        assert np.isfinite(out).all()

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2 ** 32 - 1), num=st.integers(1, 4), m=st.integers(1, 12),
           data=st.data())
    def test_equals_the_sum_from_zeros_bit_for_bit(self, seed, num, m, data):
        # Entries include signed zeros: 0.0 + -0.0 is 0.0, so the sum must
        # start as if from zeros. One matrix, 2-D or not, takes another path than a stack;
        # sums of 0.1 round, so a sum of the windows in another order would differ.
        m0 = data.draw(st.integers(1, m))
        rng = np.random.default_rng(seed)
        parts = rng.choice([-0.0, 0.0, 0.1, 1.5, -2.25, 1e-300], size=(2, num, m, m))
        r = parts[0] + 1j * parts[1]
        r = np.where(rng.random((num, m, m)) < 0.5, r, r.conj().swapaxes(-1, -2))
        t = m - m0 + 1
        expected = np.zeros((num, m0, m0), dtype=complex)
        for offset in range(t):
            expected += r[:, offset:offset + m0, offset:offset + m0]
        expected = (expected + np.flip(expected, axis=(-2, -1)).conj()) / (2 * t)
        if num == 1 and data.draw(st.booleans()):
            r, expected = r[0], expected[0]
        out = fbss_covariance(r, m0)
        assert out.shape == expected.shape and out.tobytes() == expected.tobytes()

    def test_subarray_size_bounds(self):
        r = np.eye(4, dtype=complex)
        with pytest.raises(ValueError):
            fbss_covariance(r, 0)
        with pytest.raises(ValueError):
            fbss_covariance(r, 5)


# Seeded Monte Carlo against the closed forms: TRIALS trials of M=6, N=8 at 3 dB from
# four fixed DOAs, each real and imaginary part of a mean within SIGMAS standard errors
# of its closed form (plus 1e-12 of round-off, for the parts that are 0 in every trial).
TRIALS, SIGMAS = 4000, 5.0
MC_M, MC_N, MC_M0, MC_SNR_DB, MC_DOAS = 6, 8, 4, 3.0, (0.3, 1.1, 2.0, 4.0)


def closed_form_covariance(targets):
    """``A P A^H + sigma^2 I`` at the Monte-Carlo point, with ``A`` written out
    and ``P[i, j]`` 1 where sources i and j carry one waveform, else 0: the
    identity for independent unit-power sources, and ``P[c, t] = P[t, c] = 1``
    for each coherent copy ``c`` of target ``t`` (and between copies of one target)."""
    waveform = [*range(len(MC_DOAS) - len(targets)), *targets]
    p = np.equal.outer(waveform, waveform).astype(float)
    a = np.exp(1j * math.pi * np.outer(np.arange(MC_M), np.sin(MC_DOAS)))
    return a @ p @ a.conj().T + 10.0 ** (-MC_SNR_DB / 10.0) * np.eye(MC_M)


def assert_mean_within_sigmas(samples, expected):
    parts = samples.reshape(len(samples), -1).view(np.float64)
    error = SIGMAS * parts.std(axis=0, ddof=1) / math.sqrt(len(parts)) + 1e-12
    miss = np.abs(parts.mean(axis=0) - expected.ravel().view(np.float64))
    assert np.all(miss <= error), f"worst miss {np.max(miss / error):.2f} of the tolerance"


@pytest.fixture(scope="module", params=[(), (0,), (0, 0), (1, 0)],
                ids=["independent", "one-copy", "two-copies-of-one", "copies-of-two"])
def monte_carlo_covariances(request):
    """The coherent targets and TRIALS sample covariances drawn with them."""
    rng = np.random.default_rng(31)
    snapshots = [generate_snapshots(MC_M, MC_N, MC_DOAS, request.param, MC_SNR_DB, rng)
                 for _ in range(TRIALS)]
    return request.param, sample_covariance(np.stack(snapshots))


class TestClosedForm:
    def test_mean_sample_covariance(self, monte_carlo_covariances):
        targets, r = monte_carlo_covariances
        assert_mean_within_sigmas(r, closed_form_covariance(targets))

    def test_mean_fbss_covariance(self, monte_carlo_covariances):
        targets, r = monte_carlo_covariances
        assert_mean_within_sigmas(fbss_covariance(r, MC_M0),
                                  fbss_covariance(closed_form_covariance(targets), MC_M0))
