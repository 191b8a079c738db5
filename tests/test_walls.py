import numpy as np
import pytest

from edgelab.walls import (
    SingularPointError,
    TransversalityError,
    evaluate_wall,
    make_wall,
    normalize_wall,
    straight_wall,
    _central_diff,
    _check_away_from,
    _symmetrize3,
)
from edgelab.geometry import project_to_interface


def _symmetrize2(H):
    return 0.5 * (H + np.swapaxes(H, -1, -2))


def test_linear_wall_derivatives():
    wall = make_wall("linear", (0.0, 1.0))
    d = evaluate_wall(wall, np.array([3.0, 0.5]))
    assert d.value == pytest.approx(0.5)
    assert np.allclose(d.gradient, [0.0, 1.0])
    assert np.allclose(d.hessian, 0.0)
    assert np.allclose(d.third, 0.0)


def test_circle_wall_derivatives():
    wall = make_wall("circle", (1.0,))
    d = evaluate_wall(wall, np.array([1.0, 0.0]))
    assert d.value == pytest.approx(0.0, abs=1e-15)
    assert np.allclose(d.gradient, [1.0, 0.0])
    assert np.allclose(d.hessian, [[0.0, 0.0], [0.0, 1.0]])


def test_tanh_wall_derivatives():
    wall = make_wall("tanh")
    d = evaluate_wall(wall, np.array([0.0, 0.0]))
    assert d.value == pytest.approx(0.0)
    assert np.allclose(d.gradient, [-1.0, 1.0])


def test_straight_wall_helper():
    theta, r = 0.7, 2.0
    wall = straight_wall(theta, r)
    g = wall.gradient(np.zeros(2))
    assert np.allclose(g, r * np.array([-np.sin(theta), np.cos(theta)]))


@pytest.mark.parametrize("family,params", [
    ("linear", (0.3, 1.1)),
    ("tanh", ()),
    ("circle", (1.0,)),
    ("modulated_straight", (0.9,)),
    ("corner", (0.5,)),
    ("crossing", ()),
    ("two_ring", (1.0,)),
])
def test_fd_matches_analytic_at_order_two(family, params):
    wall = make_wall(family, params)
    rng = np.random.default_rng(11)
    pts = rng.uniform(-1.5, 1.5, size=(6, 2)) + np.array([0.3, 0.2])
    # gradient and Hessian by nested central differences of the values, the
    # third tensor by central differences of the wall's own Hessian
    grad = lambda q, h: _central_diff(wall.value, q, h)
    reference = {
        "gradient": grad,
        "hessian": lambda q, h: _symmetrize2(_central_diff(lambda p: grad(p, h), q, h)),
        "third": lambda q, h: _symmetrize3(_central_diff(wall.hessian, q, h)),
    }
    for order, fd in reference.items():
        exact = getattr(wall, order)(pts)
        errs = [np.max(np.abs(fd(pts, h) - exact)) for h in (1e-3, 5e-4)]
        # central differences: halving h divides the error by ~4 (unless the
        # difference is exact, e.g. polynomials, and only roundoff remains)
        if errs[0] > 1e-8:
            assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.4)
        else:
            assert errs[1] < 1e-8


def test_central_diff_one_call_per_stencil():
    # the shifted points go to fn in one stacked call (a nested stencil too), and the
    # differences equal the per-direction loop bit for bit
    wall, calls = make_wall("circle", (1.0, 0.2, -0.1)), []
    pts = np.random.default_rng(4).uniform(-1.5, 1.5, size=(7, 5, 2))

    def hess(q):
        calls.append(q.shape)
        return wall.hessian(q)

    got = _central_diff(hess, pts, 1e-5)
    loop = np.stack([(wall.hessian(pts + 1e-5 * e) - wall.hessian(pts - 1e-5 * e)) / 2e-5 for e in np.eye(2)], -1)
    assert calls == [(4, 7, 5, 2)] and np.array_equal(got, loop)
    calls.clear()
    nested = _central_diff(lambda q: _central_diff(hess, q, 1e-3), pts, 1e-3)
    assert calls == [(4, 4, 7, 5, 2)] and nested.shape == (7, 5, 2, 2, 2, 2)


_SYM_PARAMS = {
    "linear": (0.3, 1.1), "circle": (1.0,), "two_ring": (1.0,),
    "tanh": (), "crossing": (), "modulated_straight": (0.9,), "corner": (0.5,),
}


@pytest.mark.parametrize("family,params", sorted(_SYM_PARAMS.items()))
def test_derivative_tensor_symmetry(family, params):
    wall = make_wall(family, params)
    rng = np.random.default_rng(5)
    pts = rng.uniform(0.2, 1.4, size=(4, 2))
    H = wall.hessian(pts)
    assert np.allclose(H, np.swapaxes(H, -1, -2))
    T = wall.third(pts)
    for perm in ((0, 2, 1), (1, 0, 2), (2, 1, 0)):
        assert np.allclose(T, np.transpose(T, (0,) + tuple(1 + p for p in perm)), atol=1e-6)


def test_corner_singular_point():
    wall = make_wall("corner", (0.0,))
    assert wall.value(np.array([0.0, 1.0])) == pytest.approx(1.0)
    with pytest.raises(SingularPointError):
        evaluate_wall(wall, np.array([0.0, 0.0]))
    # smoothed corner is fine everywhere
    smooth = make_wall("corner", (0.5,))
    evaluate_wall(smooth, np.array([0.0, 0.0]))


def test_circle_derivatives_reject_the_centre_and_non_finite_points():
    wall = make_wall("circle", (1.0,))
    for x in ((0.0, 0.0), (np.nan, 0.0), (np.inf, 0.0), (-np.inf, 0.0)):
        for derivative in (wall.gradient, wall.hessian):
            with pytest.raises(SingularPointError, match="circle center"):
                derivative(np.array([x, (0.5, 0.5)]))
    # the threshold: distances from 1e-300 on are regular, whatever the point that has them
    _check_away_from(np.array([1e-299, 1.0]), "test")
    with pytest.raises(SingularPointError):
        _check_away_from(np.array([1e-301, 1.0]), "test")


def test_families_without_params_reject_them():
    # tanh and crossing take no parameters; a value given to them is an error, not ignored
    for family in ("tanh", "crossing"):
        assert make_wall(family, ()).describe() == f"{family}()"
        with pytest.raises(ValueError, match=f"{family} wall takes no params"):
            make_wall(family, (2.0,))


def gamma_samples(wall, seeds):
    return np.array([project_to_interface(wall, np.asarray(s, dtype=float)) for s in seeds])


def test_normalize_circle_is_fixed_point():
    wall = make_wall("circle", (1.0,))
    nw = normalize_wall(wall, 0.4)
    th = np.linspace(0, 2 * np.pi, 30)
    ring = np.stack([np.cos(th), np.sin(th)], axis=-1)
    assert np.max(np.abs(nw.value(ring) - wall.value(ring))) < 1e-14
    near = 1.1 * ring
    assert np.max(np.abs(nw.value(near) - wall.value(near))) < 1e-12


def test_normalize_linear_rescales_gradient():
    wall = make_wall("linear", (0.0, 2.0))
    nw = normalize_wall(wall, 0.5)
    pts = gamma_samples(nw, [(x, 0.0) for x in np.linspace(-2, 2, 9)])
    g = nw.gradient(pts)
    assert np.max(np.abs(np.hypot(g[:, 0], g[:, 1]) - 1.0)) < 1e-10


def test_normalize_tanh_satisfies_geometric_condition():
    nw = normalize_wall(make_wall("tanh"), 0.5)
    seeds = [(x, np.tanh(x)) for x in np.linspace(-3, 3, 25)]
    pts = gamma_samples(nw, seeds)
    g = nw.gradient(pts)
    gn = np.hypot(g[:, 0], g[:, 1])
    Hg = np.einsum("...ij,...j->...i", nw.hessian(pts), g)
    assert np.max(np.abs(gn - 1.0)) <= 1e-6
    assert np.max(np.hypot(Hg[:, 0], Hg[:, 1])) <= 1e-6


def test_normalize_preserves_zero_set():
    base = make_wall("tanh")
    nw = normalize_wall(base, 0.5)
    x1 = np.linspace(-2, 2, 21)
    on_gamma = np.stack([x1, np.tanh(x1)], axis=-1)
    assert np.max(np.abs(base.value(on_gamma))) <= 1e-12
    assert np.max(np.abs(nw.value(on_gamma))) <= 1e-8


def test_normalize_rejects_degenerate_tube():
    # crossing wall: gradient vanishes at the origin, inside any tube around it
    nw = normalize_wall(make_wall("crossing"), 0.5)
    with pytest.raises(TransversalityError):
        nw.value(np.array([[0.0, 0.0], [0.1, 0.1]]))


def test_evaluate_wall_rejects_bad_points():
    wall = make_wall("tanh")
    with pytest.raises(ValueError):
        evaluate_wall(wall, np.array([np.inf, 0.0]))


def test_walls_reject_nan_parameters():
    for family, params in (("circle", (np.nan,)), ("corner", (np.nan,))):
        with pytest.raises(ValueError):
            make_wall(family, params)
    with pytest.raises(ValueError):
        normalize_wall(make_wall("tanh"), np.nan)
