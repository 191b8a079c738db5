import numpy as np
import pytest
from scipy import fft as sfft

from edgelab import hermite
from edgelab.hermite import (
    HermiteAmplitude,
    X1Grid,
    apply_L,
    hermite_functions,
    invert_L,
    kernel_amplitude,
    kernel_project,
)
from hermite_basis import _TILDE, default_x2_grid, hermite_analyze, hermite_synthesize

GRID = X1Grid(n=128, half_extent=12.0)
NH = 32


def random_amplitude(rng, grid=GRID, nh=NH, bands=10, kernel_free=False):
    a = HermiteAmplitude.zeros(grid, nh)
    a.coeffs[:, :, :bands] = rng.standard_normal((2, grid.n, bands)) + 1j * rng.standard_normal(
        (2, grid.n, bands)
    )
    a.coeffs *= np.exp(-0.5 * (grid.x / 3.0) ** 2)[None, :, None]
    if kernel_free:
        _, a = kernel_project(a)
    return a


def test_hermite_functions_orthonormal():
    x = np.linspace(-16, 16, 1600)
    phi = hermite_functions(12, x)
    gram = phi.T @ phi * (x[1] - x[0])
    assert np.max(np.abs(gram - np.eye(12))) < 1e-10


def test_round_trip_and_parseval():
    rng = np.random.default_rng(0)
    a = random_amplitude(rng)
    x2 = default_x2_grid(NH)
    field = hermite_synthesize(a, x2)
    back = hermite_analyze(field, GRID, x2, NH)
    assert (a - back).norm() / a.norm() <= 1e-12
    n_field = np.sqrt(np.sum(np.abs(field) ** 2) * GRID.dx * (x2[1] - x2[0]))
    assert abs(a.norm() - n_field) / a.norm() <= 1e-10


def test_single_mode_orthonormality():
    a = HermiteAmplitude.zeros(GRID, NH)
    a.coeffs[1, :, 3] = np.exp(-0.5 * GRID.x**2) / np.sqrt(np.sqrt(np.pi) * 1.0)
    x2 = default_x2_grid(NH)
    field = hermite_synthesize(a, x2)
    phi = hermite_functions(NH, x2)
    w = x2[1] - x2[0]
    # tilde components against each mode: only n = 3 carries weight
    tilde = np.einsum("dc,cjx->djx", _TILDE, field)
    proj = np.einsum("jx,xn->jn", tilde[1], phi * w)
    mass = np.sum(np.abs(proj) ** 2, axis=0)
    assert mass[3] > 0
    off = np.delete(mass, 3)
    assert np.max(off) <= 1e-20 * mass[3]
    assert abs(a.norm() - 1.0) < 1e-10 or a.norm() > 0  # norm finite


def test_under_resolved_x2_grid_rejected():
    a = HermiteAmplitude.zeros(GRID, 64)
    with pytest.raises(ValueError):
        hermite_synthesize(a, np.linspace(-14, 14, 32))


def test_kernel_annihilation_exact_representation():
    rng = np.random.default_rng(1)
    for _ in range(20):
        coeffs = rng.standard_normal(5)
        f = sum(c * hermite_functions(5, GRID.x)[:, i] for i, c in enumerate(coeffs))
        k = kernel_amplitude(f, GRID, NH)
        out = apply_L(k)
        assert out.norm() <= 1e-10 * max(k.norm(), 1e-300)


def test_kernel_annihilation_from_sampled_field():
    # build f(x1) e^{-x2^2/2} (1, -1) on a tensor grid, analyze, apply L
    x2 = default_x2_grid(NH)
    f = np.exp(-0.5 * GRID.x**2) * (1.0 + 0.5 * GRID.x)
    field = np.zeros((2, GRID.n, x2.size), dtype=complex)
    field[0] = f[:, None] * np.exp(-0.5 * x2**2)[None, :]
    field[1] = -field[0]
    a = hermite_analyze(field, GRID, x2, NH)
    assert apply_L(a).norm() <= 1e-10 * a.norm()


def test_apply_L_pure_mode_matrix():
    # single Fourier-Hermite mode: L acts as [[0, s], [s, 2 xi]] with s = sqrt(2n+2)
    m0, n0 = 5, 2
    xi0 = GRID.k[m0]
    a = HermiteAmplitude.zeros(GRID, NH)
    wave = np.exp(1j * xi0 * GRID.x)
    a.coeffs[0, :, n0 + 1] = wave  # w1 at Hermite offset n0+1
    a.coeffs[1, :, n0] = 2.0 * wave
    out = apply_L(a)
    s = np.sqrt(2.0 * n0 + 2.0)
    assert np.max(np.abs(out.coeffs[0, :, n0 + 1] - s * 2.0 * wave)) < 1e-12
    assert np.max(np.abs(out.coeffs[1, :, n0] - (s * wave + 2.0 * xi0 * 2.0 * wave))) < 1e-12


def test_apply_L_self_adjoint_dense_instance():
    # dense matrices at N1 = 8, Nh = 6, independently assembled from the
    # Fourier-Hermite blocks, against the FFT/ladder implementation
    grid = X1Grid(n=8, half_extent=4.0)
    nh = 6
    dim = 2 * grid.n * nh

    def to_vec(a):
        return a.coeffs.ravel()

    mat = np.zeros((dim, dim), dtype=complex)
    for j in range(dim):
        a = HermiteAmplitude.zeros(grid, nh)
        a.coeffs.ravel()[j] = 1.0
        mat[:, j] = to_vec(apply_L(a))

    # independent assembly: DFT to (xi, n) space, apply the 2x2 blocks, DFT back
    F = sfft.fft(np.eye(grid.n), axis=0)
    Finv = np.linalg.inv(F)

    def idx(c, j, n):
        return (c * grid.n + j) * nh + n

    dense = np.zeros((dim, dim), dtype=complex)
    for mm in range(grid.n):
        xi = grid.k[mm]
        for jr in range(grid.n):
            for jc in range(grid.n):
                phase = Finv[jr, mm] * F[mm, jc]
                for n in range(nh):
                    s = np.sqrt(2.0 * n + 2.0)
                    if n + 1 < nh:
                        dense[idx(0, jr, n + 1), idx(1, jc, n)] += s * phase
                        dense[idx(1, jr, n), idx(0, jc, n + 1)] += s * phase
                    dense[idx(1, jr, n), idx(1, jc, n)] += 2.0 * xi * phase

    assert np.max(np.abs(mat - dense)) < 1e-10
    # self-adjointness with respect to the dx1-weighted inner product
    assert np.max(np.abs(mat - mat.conj().T)) < 1e-10


def test_invert_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = random_amplitude(rng, bands=NH - 6, kernel_free=True)
        b = invert_L(a)
        back = apply_L(b)
        assert (back - a).norm() / a.norm() <= 1e-8
        f, _ = kernel_project(b)
        assert np.max(np.abs(f)) <= 1e-12


def test_invert_second_component_band_zero():
    # constant-in-xi second component at band 0: output first component at
    # band 1 equals +input/sqrt(2) (the sign consistent with L b = a)
    a = HermiteAmplitude.zeros(GRID, NH)
    g = np.exp(-0.5 * (GRID.x / 2.0) ** 2)
    a.coeffs[1, :, 0] = g
    b = invert_L(a)
    assert np.max(np.abs(b.coeffs[0, :, 1] - g / np.sqrt(2.0))) < 1e-12
    assert np.max(np.abs(b.coeffs[1])) < 1e-12
    assert (apply_L(b) - a).norm() <= 1e-10 * a.norm()


def test_invert_annihilates_kernel():
    f = np.exp(-0.5 * GRID.x**2)
    k = kernel_amplitude(f, GRID, NH)
    assert invert_L(k).norm() <= 1e-14


def test_kernel_project_recovers_profile():
    f = np.exp(-0.5 * GRID.x**2)
    a = kernel_amplitude(f, GRID, NH)
    got, rem = kernel_project(a)
    assert np.max(np.abs(got - f)) <= 1e-12
    assert rem.norm() <= 1e-14


def test_kernel_project_orthogonality():
    rng = np.random.default_rng(7)
    a = random_amplitude(rng)
    f, rem = kernel_project(a)
    for _ in range(5):
        g = rng.standard_normal(GRID.n) * np.exp(-0.5 * (GRID.x / 2) ** 2)
        k = kernel_amplitude(g, GRID, NH)
        ip = abs(complex(np.conj(k.coeffs.ravel()) @ rem.coeffs.ravel()) * GRID.dx)
        assert ip <= 1e-10 * k.norm() * max(rem.norm(), 1e-300)
    # a perp kernel -> zero profile
    f2, _ = kernel_project(rem)
    assert np.max(np.abs(f2)) == 0.0


def test_truncation_health():
    rng = np.random.default_rng(5)
    a = random_amplitude(rng, bands=8)
    assert a.truncation_health() <= 1e-8
    a.coeffs[0, :, -1] = 1.0
    assert a.truncation_health() > 1e-8


def test_apply_poly_matches_pointwise_multiplication():
    rng = np.random.default_rng(9)
    a = random_amplitude(rng, bands=6)
    coeff = np.zeros((3, 3))
    coeff[2, 0], coeff[1, 1], coeff[0, 2], coeff[0, 0] = 0.4, -0.7, 1.1, 0.3
    x2 = default_x2_grid(NH)
    f = hermite_synthesize(a, x2)
    fp = hermite_synthesize(HermiteAmplitude(GRID, hermite.apply_poly(a.coeffs, coeff, GRID)), x2)
    poly = sum(coeff[i, j] * GRID.x[:, None] ** i * x2[None, :] ** j for i in range(3) for j in range(3))
    assert np.max(np.abs(fp - poly[None] * f)) < 1e-10


def test_apply_poly_sigma1_swaps_components():
    rng = np.random.default_rng(10)
    a = random_amplitude(rng, bands=4)
    one = np.array([[1.0]])
    out = hermite.apply_poly_sigma1(a.coeffs, one, GRID)
    assert np.allclose(out[0], a.coeffs[1])
    assert np.allclose(out[1], a.coeffs[0])


def test_trig_interpolation_exact_and_masked():
    rng = np.random.default_rng(12)
    vals = np.exp(-0.5 * GRID.x**2) * (1 + 0.3 * np.sin(GRID.x))
    pts = rng.uniform(-11, 11, 200)
    got = hermite.eval_on_points(vals, GRID, pts)
    ref = np.exp(-0.5 * pts**2) * (1 + 0.3 * np.sin(pts))
    assert np.max(np.abs(got - ref)) < 1e-12
    # outside the window: zero, not the periodic alias
    out = hermite.eval_on_points(vals, GRID, np.array([15.0, -30.0, 24.0, -12.0, 12.0]))
    assert np.max(np.abs(out)) == 0.0


@pytest.mark.parametrize("n", [128, 256])
def test_trig_interp_matrix_direct_formula(n):
    # column m is exp(i k_m (x + L)) / N; column N/2 is the Nyquist mode at -N/2
    grid = X1Grid(n=n, half_extent=12.0)
    pts = np.random.default_rng(n).uniform(-12.0, 12.0, 500)
    M = hermite.trig_interp_matrix(grid, pts)
    direct = np.exp(1j * np.outer(pts + grid.half_extent, grid.k)) / n
    assert M.shape == (pts.size, n)
    assert grid.k[n // 2] < 0
    # entries have modulus 1/N; both sides round the phase to about m ulp
    assert np.max(np.abs(M - direct)) <= 1e-13


@pytest.mark.parametrize("n", [8, 64, 256])
def test_eval_dilated_matches_trig_interp_matrix(n):
    # chirp-z dilation against the phase-table interpolant at the same points
    grid = X1Grid(n=n, half_extent=12.0)
    rng = np.random.default_rng(n)
    vals = rng.standard_normal((16, n)) + 1j * rng.standard_normal((16, n))
    scales = rng.uniform(0.3, 3.0, 16)
    got = hermite.eval_dilated(vals, grid, scales)
    for b in range(16):
        pts = scales[b] * grid.x
        ref = hermite.trig_interp_matrix(grid, pts) @ sfft.fft(vals[b])
        inside = np.abs(pts) < grid.half_extent
        assert np.max(np.abs(got[b, inside] - ref[inside])) <= 1e-12 * np.max(np.abs(ref[inside]))


def test_eval_dilated_window_edge_and_batching():
    rng = np.random.default_rng(5)
    vals = np.exp(-0.5 * GRID.x**2)[None, :] * (1 + rng.standard_normal((16, GRID.n)))
    scales = np.concatenate([[1.0, 2.0, 0.5, 3.0], rng.uniform(0.3, 3.0, 12)])
    got = hermite.eval_dilated(vals, GRID, scales)
    # points on or beyond the window edge are exactly zero, the rest are not
    outside = np.abs(scales[:, None] * GRID.x) >= GRID.half_extent
    assert outside[0, 0] and np.count_nonzero(outside[1]) == GRID.n // 2 + 1
    assert np.all(got[outside] == 0.0) and np.all(got[~outside] != 0.0)
    # a row comes out the same alone as in a batch, and a shared scale broadcasts
    for b in range(16):
        assert np.array_equal(hermite.eval_dilated(vals[b : b + 1], GRID, scales[b : b + 1])[0], got[b])
    assert np.array_equal(hermite.eval_dilated(vals[:3], GRID, 2.0),
                          hermite.eval_dilated(vals[:3], GRID, np.full(3, 2.0)))


def _ladder_three_term(c, sign):
    """(a + sign adag)/2 along the last axis, written out term by term."""
    nb = c.shape[-1]
    w = np.sqrt(2.0 * np.arange(nb - 1) + 2.0)
    out = np.empty_like(c)
    out[..., 0] = 0.5 * w[0] * c[..., 1]
    out[..., 1:-1] = 0.5 * (w[1:] * c[..., 2:] + sign * w[: nb - 2] * c[..., : nb - 2])
    out[..., -1] = sign * 0.5 * w[-1] * c[..., -2]
    return out


@pytest.mark.parametrize("nb", [2, 3, 9, 64])
def test_ladder_band_products(nb):
    # x2_mult and dx2_op are band-matrix products; they may differ from the
    # three-term sums only in the last bits of the two-term sum
    rng = np.random.default_rng(nb)
    c = rng.standard_normal((2, 16, nb)) + 1j * rng.standard_normal((2, 16, nb))
    bound = 8 * np.finfo(float).eps * _ladder_three_term(np.abs(c), 1.0)
    for op, sign in ((hermite.x2_mult, 1.0), (hermite.dx2_op, -1.0)):
        got = op(c)
        assert got.shape == c.shape and got.dtype == c.dtype
        assert np.all(np.abs(got - _ladder_three_term(c, sign)) <= bound)
    ladders = 0.5 * (hermite._raise_op(c) + hermite._lower_op(c))
    assert np.all(np.abs(hermite.x2_mult(c) - ladders) <= bound)


def test_grid_requires_power_of_two():
    with pytest.raises(ValueError):
        X1Grid(n=100, half_extent=10.0)
