"""Tests for the complex linear algebra helpers."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sourcecount import linalg
from sourcecount.linalg import (
    HERMITIAN_RTOL,
    PSD_CLAMP_RTOL,
    _frobenius,
    check_count,
    check_hermitian,
    hermitian_eig,
)


def screen(a):
    """check_hermitian's message for the matrix or stack ``a``, or None if it passes."""
    try:
        check_hermitian(np.asarray(a, dtype=np.complex128))
    except ValueError as exc:
        return str(exc)
    return None


class TestCheckCount:
    @pytest.mark.parametrize("value", [0, 3, np.int64(3), np.uint8(2), np.int8(0)])
    def test_an_integer_in_range_comes_back_as_a_python_int(self, value):
        count = check_count("k", value, 0, 3)
        assert count == value and type(count) is int

    @pytest.mark.parametrize("value", [2.5, 3.0, np.float64(2.0), True, np.bool_(False), "3",
                                       None, [1], -1, 4, np.int64(4)])
    def test_one_message_for_every_rejection(self, value):
        with pytest.raises(ValueError) as info:
            check_count("k", value, 0, 3)
        assert str(info.value) == f"k must be an integer in [0, 3], got {value!r}"

    def test_unbounded_above_by_default(self):
        assert check_count("seed", 10 ** 30, 0) == 10 ** 30
        with pytest.raises(ValueError, match=r"^seed must be an integer in \[0, inf\], got -1$"):
            check_count("seed", -1, 0)


def random_hermitian(rng, m):
    a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    return 0.5 * (a + a.conj().T)


def eig2x2_closed_form(a):
    """Oracle: eigenvalues of a 2x2 Hermitian matrix from the quadratic
    formula on its characteristic polynomial."""
    p, q = a[0, 0].real, a[1, 1].real
    disc = np.sqrt((p - q) ** 2 + 4.0 * abs(a[0, 1]) ** 2)
    return np.array([(p + q + disc) / 2.0, (p + q - disc) / 2.0])


class TestHermitianEig:
    def test_identity(self):
        d = hermitian_eig(np.eye(4, dtype=complex))
        assert np.allclose(d.eigenvalues, [1, 1, 1, 1])

    def test_real_diagonal(self):
        d = hermitian_eig(np.diag([3.0, 1.0]).astype(complex))
        assert np.allclose(d.eigenvalues, [3.0, 1.0])
        # eigenvectors are permuted identity columns (up to sign)
        assert np.allclose(np.abs(d.eigenvectors), np.eye(2))

    def test_result_is_numpys_eigh_result(self):
        a = np.diag([1.0, 3.0]).astype(complex)
        d = hermitian_eig(a)
        assert type(d) is type(np.linalg.eigh(a))
        w, u = d
        assert w is d.eigenvalues and u is d.eigenvectors and u.base is not None

    def test_one_finiteness_pass_per_stack(self, monkeypatch):
        # hermitian_eig branches on check_hermitian's is_moderate value: one np.vdot
        # per call, on a moderate stack and on one that is too large alike.
        calls = []

        def counting_is_moderate(a, _original=linalg.is_moderate):
            calls.append(a.shape)
            return _original(a)

        monkeypatch.setattr(linalg, "is_moderate", counting_is_moderate)
        hermitian_eig(random_psd_stack(np.random.default_rng(8), 5, 4, 2))
        assert len(calls) == 1
        with pytest.raises(ValueError, match="overflows"):
            hermitian_eig(1e200 * np.eye(3, dtype=complex))
        assert len(calls) == 2

    def test_2x2_matches_closed_form(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            a = random_hermitian(rng, 2)
            d = hermitian_eig(a)
            expected = eig2x2_closed_form(a)
            assert np.max(np.abs(d.eigenvalues - expected)) <= 1e-10

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            m = int(rng.integers(2, 13))
            a = random_hermitian(rng, m)
            d = hermitian_eig(a)
            u, w = d.eigenvectors, d.eigenvalues
            rebuilt = u @ np.diag(w) @ u.conj().T
            scale = max(1.0, np.linalg.norm(a))
            assert np.linalg.norm(rebuilt - a) <= 1e-9 * scale
            assert np.linalg.norm(u.conj().T @ u - np.eye(m)) <= 1e-9
            assert np.all(np.diff(w) <= 0.0)

    def test_trace_equals_eigenvalue_sum(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            a = random_hermitian(rng, 6)
            w = hermitian_eig(a).eigenvalues
            tr = np.trace(a).real
            assert abs(w.sum() - tr) <= 1e-9 * max(1.0, abs(tr))

    def test_psd_input_yields_nonnegative_spectrum(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
            a = x @ x.conj().T  # rank 2, three zero eigenvalues
            w = hermitian_eig(a).eigenvalues
            assert np.all(w >= 0.0)

    def test_indefinite_spectrum_not_clamped(self):
        w = hermitian_eig(np.diag([1.0, -2.0]).astype(complex)).eigenvalues
        assert np.allclose(w, [1.0, -2.0])

    def test_deterministic(self):
        a = random_hermitian(np.random.default_rng(5), 8)
        d1 = hermitian_eig(a)
        d2 = hermitian_eig(a.copy())
        assert np.array_equal(d1.eigenvalues, d2.eigenvalues)
        assert np.array_equal(d1.eigenvectors, d2.eigenvectors)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            hermitian_eig(np.ones((2, 3), dtype=complex))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            hermitian_eig(np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.inf)])
    def test_rejects_non_finite_entries(self, bad):
        a = np.eye(3, dtype=complex)
        a[0, 2] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite entries"):
                hermitian_eig(a)


def random_psd_stack(rng, num, m, rank):
    """``num`` Hermitian PSD matrices of the given rank: their clamp fires."""
    x = rng.standard_normal((num, m, rank)) + 1j * rng.standard_normal((num, m, rank))
    return x @ x.conj().swapaxes(-1, -2)


class TestStacks:
    """A stack of matrices gives, bit for bit, what each matrix gives alone."""

    def test_hermitian_eig_stack_equals_per_matrix(self):
        rng = np.random.default_rng(23)
        for m in (1, 2, 5, 10):
            stack = np.concatenate([
                np.stack([random_hermitian(rng, m) for _ in range(6)]),
                random_psd_stack(rng, 6, m, max(1, m // 2)),
                np.zeros((1, m, m), dtype=complex)])
            d = hermitian_eig(stack)
            assert d.eigenvalues.shape == (13, m) and d.eigenvectors.shape == (13, m, m)
            for i, a in enumerate(stack):
                one = hermitian_eig(a)
                assert np.array_equal(d.eigenvalues[i], one.eigenvalues)
                assert np.array_equal(d.eigenvectors[i], one.eigenvectors)

    def test_stack_of_stacks(self):
        stack = random_psd_stack(np.random.default_rng(24), 6, 4, 2)
        d = hermitian_eig(stack.reshape(2, 3, 4, 4))
        assert np.array_equal(d.eigenvalues.reshape(6, 4), hermitian_eig(stack).eigenvalues)

    def test_one_bad_matrix_rejects_the_stack(self):
        stack = np.stack([np.eye(3, dtype=complex)] * 4)
        asymmetric = stack.copy()
        asymmetric[2, 0, 1] = 1e-3
        with pytest.raises(ValueError, match="not Hermitian"):
            hermitian_eig(asymmetric)
        assert [screen(a) is None for a in asymmetric] == [True, True, False, True]
        for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
            broken = stack.copy()
            broken[1, 2, 0] = bad
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="non-finite entries"):
                    hermitian_eig(broken)
                assert [screen(a) is None for a in broken] == [True, False, True, True]

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            hermitian_eig(np.ones((3, 2, 3), dtype=complex))
        with pytest.raises(ValueError, match="square"):
            hermitian_eig(np.ones(4, dtype=complex))


class TestExtremeScales:
    """Tiny (subnormal) and huge matrices: a spectrum, or a clear error,
    never a RuntimeWarning."""

    @pytest.mark.parametrize("scale", [1e-310, 1e-300, 1e-150, 1e150])
    def test_scaled_psd_spectrum(self, scale):
        rng = np.random.default_rng(26)
        stack = random_psd_stack(rng, 4, 5, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = hermitian_eig(scale * stack).eigenvalues
        assert np.all(w >= 0.0) and np.all(np.diff(w, axis=1) <= 0.0)
        assert np.all(w[:, 0] > 0.0)
        if scale >= 1e-150:  # normal range: the spectrum scales with the matrix
            expected = scale * hermitian_eig(stack).eigenvalues
            assert np.allclose(w[:, :3], expected[:, :3], rtol=1e-9, atol=0.0)

    def test_identity_at_subnormal_scale(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = hermitian_eig(1e-310 * np.eye(4, dtype=complex)).eigenvalues
        assert np.allclose(w, 1e-310, rtol=1e-6, atol=0.0)

    @pytest.mark.parametrize("scale", [1e155, 1e200, 1e308])
    def test_overflowing_norm_rejected(self, scale):
        single = scale * np.eye(4, dtype=complex)
        stack = np.stack([np.eye(4, dtype=complex), single])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for a in (single, stack):
                with pytest.raises(ValueError, match="overflows"):
                    hermitian_eig(a)


def is_hermitian(a):
    """Oracle: whether every entry is finite and |A[i,j] - conj(A[j,i])| <=
    HERMITIAN_RTOL * max(1, max|A|) entrywise, for each matrix of a stack."""
    with np.errstate(over="ignore", invalid="ignore"):
        asym = np.abs(a - a.swapaxes(-1, -2).conj())
        bound = HERMITIAN_RTOL * np.abs(a).max(axis=(-2, -1), initial=1.0, keepdims=True)
    return bool(((asym <= bound) & np.isfinite(a)).all())


def hypot_norm_eigenvalues(a):
    """Oracle: the eigenvalues that hermitian_eig gave when it computed the
    hypot Frobenius norm of every matrix on every call, or its error."""
    a = np.asarray(a, dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        norm = np.hypot.reduce(np.abs(a.reshape(*a.shape[:-2], -1)), axis=-1, initial=0.0)
    top = float(norm.max(initial=0.0))
    if not math.isfinite(top * top):
        if not np.isfinite(a).all():
            raise ValueError("matrix has non-finite entries (NaN or inf)")
        raise ValueError("matrix is too large: its squared Frobenius norm overflows")
    if not is_hermitian(a):
        raise ValueError("matrix is not Hermitian")
    values = np.linalg.eigh(a)[0][..., ::-1].copy()
    tiny = PSD_CLAMP_RTOL * norm[..., np.newaxis]
    values[(values < 0.0) & (values >= -tiny)] = 0.0
    return values


@settings(max_examples=200)
@given(seed=st.integers(0, 2 ** 32 - 1), num=st.integers(1, 4), m=st.integers(2, 8),
       rank=st.integers(1, 8), which=st.integers(0, 3), exponent=st.floats(-320.0, 308.0),
       fault=st.sampled_from(["scale", "nan", "inf"]))
def test_screened_eig_equals_hypot_norm_eig(seed, num, m, rank, which, exponent, fault):
    """Screening before eigh gives the same eigenvalue bytes, or the same
    error, as computing the hypot norm on every call: over a stack where
    one matrix is scaled by 10**exponent (tiny, huge or overflowing), or
    has a NaN or inf entry, and low-rank matrices make the clamp fire."""
    rng = np.random.default_rng(seed)
    stack = random_psd_stack(rng, num, m, min(rank, m))
    stack = 0.5 * (stack + stack.conj().swapaxes(-1, -2))  # exactly Hermitian
    which %= num
    with np.errstate(over="ignore", invalid="ignore"):
        if fault == "scale":
            stack[which] *= 10.0 ** exponent
        else:
            i, j = rng.integers(0, m, size=2)
            stack[which, i, j] = math.nan if fault == "nan" else complex(0.0, math.inf)
    try:
        expected = hypot_norm_eigenvalues(stack)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            hermitian_eig(stack)
        assert str(got.value) == str(exc)
    else:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = hermitian_eig(stack).eigenvalues
        assert values.tobytes() == expected.tobytes()


@pytest.mark.parametrize("m", [1, 3])
def test_empty_stack_gives_empty_rows(m):
    d = hermitian_eig(np.zeros((0, m, m), dtype=complex))
    assert d.eigenvalues.shape == (0, m) and d.eigenvectors.shape == (0, m, m)
    assert _frobenius(np.zeros((0, m, m), dtype=complex)).shape == (0,)


def test_hermitian_tolerance():
    a = np.array([[1.0, 1j], [-1j, 2.0]])
    assert screen(a) is None
    a[0, 1] += 1e-6
    assert screen(a) == "matrix is not Hermitian (max asymmetry 1.000e-06)"
    a[0, 1] = 1j + 1e-10  # within HERMITIAN_RTOL * max(1, max|A|) = 2e-10
    assert screen(a) is None


def test_hermitian_screen_at_the_float_edge():
    # |1.5e308 (1 + 1j)| overflows, so a stack past is_moderate is compared after an
    # exact scale by 1/4, its floor of 1 scaled too, which makes the unscaled decision.
    a = np.array([[1.0, 1.5e308 * (1 + 1j)], [1.5e308 * (1 - 1j) * (1 + 1e-3), 1.0]])
    exact = np.array([[1e308, 1.5e308 * (1 + 1j)], [1.5e308 * (1 - 1j), -1e308]])
    within, outside = exact.copy(), exact.copy()
    within[1, 0] *= 1 + 0.5 * HERMITIAN_RTOL
    outside[1, 0] *= 1 + 2.0 * HERMITIAN_RTOL
    asymmetric = np.eye(2, dtype=complex)
    asymmetric[0, 1] = 1e-3
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert screen(a) == "matrix is not Hermitian (max asymmetry 2.121e+305)"
        assert screen([[1.0, 1.5e308 * (1 + 1j)], [-1.5e308 * (1 + 1j), 1.0]]) == (
            "matrix is not Hermitian (max asymmetry inf)")
        assert screen(exact) is None and screen(within) is None
        assert screen(outside) == "matrix is not Hermitian (max asymmetry 4.243e+298)"
        # Past is_moderate, a moderate matrix and a tiny one keep their unscaled decision.
        assert screen([within, 1e-320 * asymmetric, np.eye(2)]) is None
        assert screen([exact, asymmetric]) == "matrix is not Hermitian (max asymmetry 1.000e-03)"
        assert check_hermitian(within) is False and check_hermitian(np.eye(2)) is True
