import functools
import itertools
import re
from operator import attrgetter

import numpy as np
import pytest

from chancap import (
    CapabilityError,
    ConvexCombinationChannel,
    CPViolationError,
    DensityMatrix,
    DimensionMismatchError,
    Ensemble,
    KrausChannel,
    PeriodicChannel,
    Povm,
    apply,
    basis_state,
    convex_uses,
    depolarizing,
    eigenvalues,
    identity_channel,
    maximally_mixed,
    mix_channels,
    partial_trace,
    periodic_branch,
    periodic_uses,
    random_povm,
    tensor,
    tensor_channels,
)
from chancap import capacity, channels, optimize
from random_inputs import random_density_matrix, random_pure_state


def depolarize_directly(d, lam, rho):
    return lam * rho + (1 - lam) / d * np.eye(d)


@pytest.mark.parametrize("d,lam", [(2, 1.0), (2, 0.5), (2, 0.0), (2, -1 / 3), (3, 0.7), (3, -0.125)])
def test_depolarizing_matches_map_form(d, lam):
    ch = depolarizing(d, lam)
    rng = np.random.default_rng(1)
    for _ in range(10):
        rho = random_density_matrix(d, rng)
        out = apply(ch, rho)
        np.testing.assert_allclose(out.mat, depolarize_directly(d, lam, rho.mat), atol=1e-10)


def test_depolarizing_identity_at_lambda_one():
    ch = depolarizing(2, 1.0)
    rng = np.random.default_rng(2)
    rho = random_density_matrix(2, rng)
    np.testing.assert_allclose(apply(ch, rho).mat, rho.mat, atol=1e-12)


def test_depolarizing_constant_at_lambda_zero():
    ch = depolarizing(2, 0.0)
    rng = np.random.default_rng(3)
    rho = random_density_matrix(2, rng)
    np.testing.assert_allclose(apply(ch, rho).mat, np.eye(2) / 2, atol=1e-12)


def test_depolarizing_cp_violation():
    with pytest.raises(CPViolationError, match=r"\[-0.333333, 1\]"):
        depolarizing(2, -0.4)
    with pytest.raises(CPViolationError):
        depolarizing(2, 1.1)
    with pytest.raises(CPViolationError, match=r"\[-0.125000, 1\]"):
        depolarizing(3, -0.2)


def test_kraus_completeness_checked():
    with pytest.raises(ValueError, match="trace preserving"):
        KrausChannel((np.eye(2) * 0.5,))


@pytest.mark.parametrize(
    "terms,message",
    [
        ((), "at least one Kraus term"),
        ((np.ones(2),), re.escape("must be matrices, got shape (2,)")),
        ((np.eye(2), np.eye(3)), "share one shape"),
        (1.0, re.escape("must be matrices, got shape ()")),
        (np.zeros((1, 2, 0)), re.escape("must have nonzero dimensions, got shape (2, 0)")),
        (np.zeros((1, 0, 0)), re.escape("must have nonzero dimensions, got shape (0, 0)")),
        (np.zeros((1, 0, 2)), re.escape("must have nonzero dimensions, got shape (0, 2)")),
    ],
    ids=["empty", "vector", "ragged", "scalar", "no-input-dim", "no-dims", "no-output-dim"],
)
def test_kraus_terms_checked(terms, message):
    with pytest.raises(ValueError, match=message):
        KrausChannel(terms)


def _weyl_reference(d):
    """X^a Z^b, term a*d + b, as matrix powers of shift and phase and their
    product."""
    omega = np.exp(2j * np.pi / d)
    shift = np.roll(np.eye(d), 1, axis=0)  # X|j> = |j+1 mod d>
    phase = np.diag(omega ** np.arange(d))  # Z|j> = omega^j |j>
    return np.array([
        np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(phase, b)
        for a in range(d) for b in range(d)
    ])


@pytest.mark.parametrize("d", range(2, 9))
def test_weyl_operators_closed_form(d):
    ops, reference = channels._weyl_operators(d), _weyl_reference(d)
    assert ops.shape == (d * d, d, d)
    if d <= 4:
        assert np.array_equal(ops, reference)
    else:
        assert np.max(np.abs(ops - reference)) <= 1e-15


@pytest.mark.parametrize("d", [2, 3, 4])
def test_depolarizing_needs_no_matrix_power(monkeypatch, d):
    lam = 0.3
    weights = np.full(d * d, (1 - lam) / d**2)
    weights[0] += lam
    expected = np.sqrt(weights)[:, None, None] * _weyl_reference(d)

    def refuse(*args):
        raise AssertionError("matrix_power called")

    monkeypatch.setattr(np.linalg, "matrix_power", refuse)
    assert np.array_equal(depolarizing(d, lam).kraus, expected)


def test_apply_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        apply(depolarizing(2, 0.5), maximally_mixed(3))


def test_apply_example_qubit():
    out = apply(depolarizing(2, 0.5), basis_state(2, 0))
    np.testing.assert_allclose(out.mat, np.diag([0.75, 0.25]), atol=1e-12)


def test_apply_preserves_trace_randomly():
    rng = np.random.default_rng(4)
    for _ in range(100):
        d = int(rng.integers(2, 4))
        lam = rng.uniform(-1 / (d * d - 1), 1)
        rho = random_density_matrix(d, rng)
        out = apply(depolarizing(d, lam), rho)
        assert abs(np.trace(out.mat) - 1) < 1e-12


_PAULIS = (np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1]))

# channels with d^2 or more Kraus terms on input dimension d, as every search builds
_MANY_TERM_CASES = {
    "depolarizing-2": lambda: depolarizing(2, 0.7),
    "depolarizing-3": lambda: depolarizing(3, -0.1),
    "depolarizing-4": lambda: depolarizing(4, 0.37),
    "depolarizing-16": lambda: depolarizing(16, 0.5),
    "two-use": lambda: tensor_channels([depolarizing(2, 0.5)] * 2),
    "two-use-3-mixed": lambda: tensor_channels([depolarizing(3, 0.9), depolarizing(3, -0.1)]),
    "two-use-4": lambda: tensor_channels([depolarizing(4, 0.5)] * 2),
    "periodic-uses": lambda: periodic_uses(
        PeriodicChannel((depolarizing(2, -1 / 3), depolarizing(2, 2 / 3))), 2),
    "convex-uses": lambda: convex_uses(
        ConvexCombinationChannel((depolarizing(2, 0.9), depolarizing(2, 0.5)), [0.3, 0.7]), 2),
}

# channels with fewer terms, on which greedy contracts rho first
_FEW_TERM_CASES = {
    "identity": lambda: identity_channel(2),
    "identity-x-depolarizing": lambda: tensor_channels([identity_channel(2), depolarizing(2, 0.3)]),
    "amplitude-damping": lambda: KrausChannel(
        (np.array([[1, 0], [0, np.sqrt(0.7)]]), np.array([[0, np.sqrt(0.3)], [0, 0]]))),
    "correlated-pauli": lambda: KrausChannel(
        tuple(np.sqrt(w) * np.kron(s, s) for w, s in zip([0.5, 1 / 6, 1 / 6, 1 / 6], _PAULIS))),
}


def _greedy_outputs(ch):
    """(apply, greedy einsum) output pairs on three random states."""
    rng = np.random.default_rng(8)
    k = ch.kraus
    for _ in range(3):
        rho = random_density_matrix(ch.din, rng)
        yield apply(ch, rho).mat, np.einsum("kij,jl,kml->im", k, rho.mat, k.conj(), optimize=True)


@pytest.mark.parametrize("build", _MANY_TERM_CASES.values(), ids=_MANY_TERM_CASES.keys())
def test_apply_keeps_the_bits_of_the_greedy_einsum(build):
    for out, expected in _greedy_outputs(build()):
        assert np.array_equal(out, expected)


@pytest.mark.parametrize("build", _FEW_TERM_CASES.values(), ids=_FEW_TERM_CASES.keys())
def test_apply_is_within_rounding_of_the_greedy_einsum(build):
    for out, expected in _greedy_outputs(build()):
        assert np.abs(out - expected).max() <= 1e-15


def test_apply_runs_no_contraction_order_search(monkeypatch):
    orders = []
    einsum = np.einsum

    def refuse(*args, **kwargs):
        raise AssertionError("einsum_path called")

    def recording(*args, **kwargs):
        orders.append(kwargs.get("optimize"))
        return einsum(*args, **kwargs)

    monkeypatch.setattr(np, "einsum_path", refuse)
    monkeypatch.setattr(np, "einsum", recording)
    rng = np.random.default_rng(9)
    for ch in (depolarizing(3, 0.4), identity_channel(2), tensor_channels([depolarizing(2, 0.5)] * 2)):
        apply(ch, random_density_matrix(ch.din, rng))
    assert orders == [("einsum_path", (0, 2), (0, 1))] * 3


def test_kraus_channel_copies_a_given_stack_and_freezes_its_own():
    given = np.stack([np.eye(2), np.zeros((2, 2))])
    ch = KrausChannel(given)
    assert given.flags.writeable and not np.shares_memory(given, ch.kraus)
    assert KrausChannel(np.asfortranarray(given)).kraus.flags.c_contiguous
    given[0, 0, 0] = 7.0  # the channel does not see it
    assert ch.kraus[0, 0, 0] == 1.0
    for built in (ch, identity_channel(2), depolarizing(2, 0.5), tensor_channels([ch, ch]),
                  mix_channels([ch, ch], [0.5, 0.5])):
        assert not built.kraus.flags.writeable
        assert built.kraus.flags.c_contiguous


def test_tensor_channels_identity():
    ch = tensor_channels([identity_channel(2), identity_channel(2)])
    rng = np.random.default_rng(5)
    rho = random_density_matrix(4, rng)
    np.testing.assert_allclose(apply(ch, rho).mat, rho.mat, atol=1e-12)


def test_tensor_channels_product_spectrum():
    ch = tensor_channels([depolarizing(2, 0.9), depolarizing(2, 0.5)])
    out = apply(ch, tensor(basis_state(2, 0), basis_state(2, 0)))
    expected = sorted(
        [0.95 * 0.75, 0.95 * 0.25, 0.05 * 0.75, 0.05 * 0.25], reverse=True
    )
    np.testing.assert_allclose(eigenvalues(out), expected, atol=1e-10)


def test_tensor_channels_term_count():
    a = depolarizing(2, 0.5)  # 4 terms
    b = depolarizing(2, 0.9)  # 4 terms
    assert len(tensor_channels([a, b]).kraus) == 16


@pytest.mark.parametrize("lambdas", [(0.7, 0.3), (0.9, 0.5, -0.1)], ids=["two", "three"])
def test_tensor_channels_terms_are_kron_products(lambdas):
    # bit for bit, in the order of itertools.product over the factors' terms
    factors = [depolarizing(2, lam) for lam in lambdas]
    expected = [functools.reduce(np.kron, combo) for combo in itertools.product(*(f.kraus for f in factors))]
    np.testing.assert_array_equal(tensor_channels(factors).kraus, np.stack(expected))
    # a 3 x 2 term beside two 2 x 3 ones, cut from random isometries
    rng = np.random.default_rng(8)
    isometry = [np.linalg.qr(rng.normal(size=(r, c)) + 1j * rng.normal(size=(r, c)))[0] for r, c in ((3, 2), (4, 3))]
    a, b = KrausChannel((isometry[0],)), KrausChannel((isometry[1][:2], isometry[1][2:]))
    np.testing.assert_array_equal(tensor_channels([a, b]).kraus, np.stack([np.kron(a.kraus[0], k) for k in b.kraus]))


def test_tensor_channels_product_action():
    rng = np.random.default_rng(6)
    a, b = depolarizing(2, 0.7), depolarizing(2, 0.3)
    prod = tensor_channels([a, b])
    rho = random_density_matrix(2, rng)
    sigma = random_density_matrix(2, rng)
    out = apply(prod, tensor(rho, sigma))
    np.testing.assert_allclose(
        out.mat, np.kron(apply(a, rho).mat, apply(b, sigma).mat), atol=1e-10
    )


def two_branch_periodic():
    return PeriodicChannel((depolarizing(2, 0.9), depolarizing(2, 0.5)))


def test_periodic_branch_order():
    per = two_branch_periodic()
    rng = np.random.default_rng(7)
    rho = random_density_matrix(4, rng)
    direct = tensor_channels([depolarizing(2, 0.9), depolarizing(2, 0.5)])
    np.testing.assert_allclose(
        apply(periodic_branch(per, 0, 2), rho).mat, apply(direct, rho).mat, atol=1e-12
    )


def test_periodic_branch_modular_wrap():
    per = two_branch_periodic()
    rng = np.random.default_rng(8)
    rho = random_density_matrix(4, rng)
    wrapped = tensor_channels([depolarizing(2, 0.5), depolarizing(2, 0.9)])
    np.testing.assert_allclose(
        apply(periodic_branch(per, 1, 2), rho).mat, apply(wrapped, rho).mat, atol=1e-12
    )


def test_periodic_branch_period_one():
    per = PeriodicChannel((depolarizing(2, 0.5),))
    rng = np.random.default_rng(9)
    rho = random_density_matrix(8, rng)
    direct = tensor_channels([depolarizing(2, 0.5)] * 3)
    np.testing.assert_allclose(
        apply(periodic_branch(per, 0, 3), rho).mat, apply(direct, rho).mat, atol=1e-12
    )


def test_periodic_branch_recursion_identity():
    # Psi_i^(n) acts as branch_i tensor Psi_{i+1}^(n-1)
    per = two_branch_periodic()
    rng = np.random.default_rng(10)
    for i in range(2):
        lhs = periodic_branch(per, i, 2)
        rhs = tensor_channels([per.branches[i], periodic_branch(per, (i + 1) % 2, 1)])
        for _ in range(5):
            rho = random_density_matrix(4, rng)
            np.testing.assert_allclose(apply(lhs, rho).mat, apply(rhs, rho).mat, atol=1e-12)


def test_periodic_branch_index_error():
    with pytest.raises(IndexError):
        periodic_branch(two_branch_periodic(), 2, 1)


def test_product_size_cap():
    per = PeriodicChannel((depolarizing(3, 0.5),))
    with pytest.raises(CapabilityError):
        periodic_branch(per, 0, 3)  # 3^3 = 27 > 16


def test_two_use_product_size_cap():
    # two uses count against the cap like any other number: 5^2 = 25 > 16
    per = PeriodicChannel((depolarizing(5, 0.5),))
    with pytest.raises(CapabilityError, match="^input dimension 25 exceeds the desk-scale cap 16$"):
        periodic_branch(per, 0, 2)
    with pytest.raises(CapabilityError):
        periodic_uses(per, 2)
    with pytest.raises(CapabilityError):
        convex_uses(ConvexCombinationChannel(per.branches, [1.0]), 2)


@pytest.mark.parametrize(
    "n,error,message",
    [
        (0, ValueError, "number of uses must be positive, got 0"),
        (-1, ValueError, "number of uses must be positive, got -1"),
        (2.0, TypeError, "n must be an integer, got 2.0"),
        (5, CapabilityError, "input dimension 32 exceeds the desk-scale cap 16"),
    ],
)
@pytest.mark.parametrize(
    "uses,channel",
    [
        (periodic_uses, PeriodicChannel((depolarizing(2, 0.9), depolarizing(2, 0.5)))),
        (convex_uses, ConvexCombinationChannel((depolarizing(2, 0.9), depolarizing(2, 0.5)), [0.3, 0.7])),
    ],
    ids=["periodic", "convex"],
)
def test_bad_number_of_uses_same_error(monkeypatch, uses, channel, n, error, message):
    # both n-use constructors refuse a bad n alike, before any product is formed
    def kron(*args):
        raise AssertionError("np.kron called")

    monkeypatch.setattr(np, "kron", kron)
    with pytest.raises(error, match=f"^{re.escape(message)}"):
        uses(channel, n)


def test_tensor_channels_size_cap(monkeypatch):
    # refused before any Kronecker product of the 625 pairs of 5x5 terms is formed
    def kron(*args):
        raise AssertionError("Kronecker products formed")

    monkeypatch.setattr(channels, "_kron_terms", kron)
    with pytest.raises(CapabilityError, match="input dimension 25"):
        tensor_channels([depolarizing(5, 0.5)] * 2)


# every entry point that the size cap guards: a builder of its input, the call
# on that input, and the input dimension the call would reach
OVER_CAP = {
    "tensor_channels": (lambda: [depolarizing(5, 0.5)] * 2, tensor_channels, 25),
    "periodic_uses": (lambda: PeriodicChannel((depolarizing(2, 0.9), depolarizing(2, 0.5))),
                      lambda ch: periodic_uses(ch, 5), 32),
    "convex_uses": (lambda: ConvexCombinationChannel((depolarizing(2, 0.9),), [1.0]),
                    lambda ch: convex_uses(ch, 5), 32),
    "verify_additivity": (lambda: None, lambda _: capacity.verify_additivity(5, 0.5), 25),
    "verify_theorem1": (lambda: None, lambda _: capacity.verify_theorem1(5, [0.9, 0.5]), 25),
    "verify_theorem2": (lambda: None, lambda _: capacity.verify_theorem2(5, [0.9, 0.5]), 25),
    "maximize_chi": (lambda: identity_channel(17), optimize.maximize_chi, 17),
}


@pytest.mark.parametrize("entry", OVER_CAP)
def test_every_over_cap_entry_point_refuses_alike(monkeypatch, entry):
    # one message, raised before any Kronecker product, channel, transfer
    # matrix or start state is built
    build, call, dim = OVER_CAP[entry]
    arg = build()

    def fail(*args, **kwargs):
        raise AssertionError("work done before the size check")

    for owner, name in [(np, "kron"), (channels, "_kron_terms"), (channels, "depolarizing"), (optimize, "random_unit_vectors"),
                        (optimize, "_ascend")]:
        monkeypatch.setattr(owner, name, fail)
    monkeypatch.setattr(KrausChannel, "transfer", property(fail))
    with pytest.raises(CapabilityError, match=f"^input dimension {dim} exceeds the desk-scale cap 16$"):
        call(arg)


@pytest.mark.parametrize("d, n, dim", [(np.uint8(16), 2, 256), (np.int64(2**32), 2, 2**64), (2, np.uint8(8), 256)],
                         ids=repr)
def test_size_rule_computes_in_python_integers(d, n, dim):
    # in the numpy type each of these powers wraps to 0
    with pytest.raises(CapabilityError, match=f"^input dimension {dim} exceeds the desk-scale cap 16$"):
        channels.check_product_size(d, n)


def test_size_rule_takes_only_an_integer_dimension():
    with pytest.raises(TypeError, match="^d must be an integer, got 2.5$"):
        channels.check_product_size(2.5, 2)


def test_depolarizing_over_cap_refuses_before_its_weyl_stack(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("Weyl stack built before the size check")

    monkeypatch.setattr(channels, "_weyl_operators", fail)
    with pytest.raises(CapabilityError, match="^input dimension 17 exceeds the desk-scale cap 16$"):
        depolarizing(17, 0.5)


_PERIODIC = PeriodicChannel((depolarizing(2, 0.9), depolarizing(2, 0.5)))
_RHO4 = random_density_matrix(4, np.random.default_rng(5))

# each public function that takes an integer, called with the integer type `i`
INTEGER_CALLS = {
    "identity_channel": lambda i: identity_channel(i(3)).kraus,
    # np.uint8(16)**2 wraps to 0, by which the weights were divided
    "depolarizing": lambda i: depolarizing(i(16), 0.5).kraus,
    "check_product_size": lambda i: (channels.check_product_size(i(2), i(4)),),
    "periodic_branch": lambda i: periodic_branch(_PERIODIC, i(1), i(2)).kraus,
    "basis_state": lambda i: basis_state(i(3), i(2)).mat,
    "maximally_mixed": lambda i: maximally_mixed(i(3)).mat,
    "partial_trace": lambda i: partial_trace(_RHO4, [i(2), i(2)], [i(1)]).mat,
    "random_povm": lambda i: random_povm(i(2), np.random.default_rng(0)).elements,
    "random_unit_vectors": lambda i: optimize.random_unit_vectors(i(2), i(3), np.random.default_rng(0)),
    "maximize_chi": lambda i: attrgetter("value", "seed", "duality_gap")(optimize.maximize_chi(
        depolarizing(2, 0.5), i(4), optimize.OptimizerConfig(restarts=i(1), iters=i(5), seed=i(0)))),
    "OptimizerConfig": lambda i: attrgetter("restarts", "iters", "seed")(
        optimize.OptimizerConfig(restarts=i(2), iters=i(5), seed=i(4))),
}


@pytest.mark.parametrize("kind", [np.int64, np.uint8], ids=lambda kind: kind.__name__)
@pytest.mark.parametrize("call", INTEGER_CALLS)
def test_numpy_integers_give_the_python_integer_result(call, kind):
    result, expected = INTEGER_CALLS[call](kind), INTEGER_CALLS[call](int)
    if isinstance(expected, np.ndarray):
        np.testing.assert_array_equal(result, expected)
    else:
        assert result == expected
        assert [type(x) for x in result] == [type(x) for x in expected]


def test_mix_channels_dimension_mismatch():
    with pytest.raises(DimensionMismatchError,
                       match=re.escape("channels to mix must share one (din, dout), got [(2, 2), (3, 3)]")):
        mix_channels([depolarizing(3, 0.5), depolarizing(2, 0.5)], [0.5, 0.5])


def test_apply_periodic_single_branch():
    per = PeriodicChannel((depolarizing(2, 0.5),))
    rng = np.random.default_rng(11)
    rho = random_density_matrix(4, rng)
    direct = tensor_channels([depolarizing(2, 0.5)] * 2)
    np.testing.assert_allclose(apply(periodic_uses(per, 2), rho).mat, apply(direct, rho).mat, atol=1e-12)


def test_apply_periodic_single_use_average():
    per = two_branch_periodic()
    rng = np.random.default_rng(12)
    rho = random_density_matrix(2, rng)
    expected = 0.5 * (
        apply(depolarizing(2, 0.9), rho).mat + apply(depolarizing(2, 0.5), rho).mat
    )
    np.testing.assert_allclose(apply(periodic_uses(per, 1), rho).mat, expected, atol=1e-12)


def test_apply_periodic_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        apply(periodic_uses(two_branch_periodic(), 1), maximally_mixed(3))


def test_apply_convex_single_branch():
    cc = ConvexCombinationChannel((depolarizing(2, 0.5),), [1.0])
    rng = np.random.default_rng(14)
    rho = random_density_matrix(2, rng)
    np.testing.assert_allclose(
        apply(convex_uses(cc, 1), rho).mat, apply(depolarizing(2, 0.5), rho).mat, atol=1e-12
    )


def test_apply_convex_degenerate_mixture():
    cc = ConvexCombinationChannel((depolarizing(2, 0.5), depolarizing(2, 0.5)), [0.5, 0.5])
    rng = np.random.default_rng(15)
    rho = random_density_matrix(2, rng)
    np.testing.assert_allclose(
        apply(convex_uses(cc, 1), rho).mat, apply(depolarizing(2, 0.5), rho).mat, atol=1e-12
    )


def test_apply_convex_weighted_example():
    cc = ConvexCombinationChannel((depolarizing(2, 0.9), depolarizing(2, 0.5)), [0.3, 0.7])
    out = apply(convex_uses(cc, 1), basis_state(2, 0))
    expected = 0.3 * np.diag([0.95, 0.05]) + 0.7 * np.diag([0.75, 0.25])
    np.testing.assert_allclose(out.mat, expected, atol=1e-12)


def test_convex_gamma_validation():
    with pytest.raises(ValueError, match="probability"):
        ConvexCombinationChannel((depolarizing(2, 0.5),), [0.9])
    with pytest.raises(ValueError, match="flat sequence"):
        ConvexCombinationChannel((depolarizing(2, 0.9), depolarizing(2, 0.5)), [[0.5], [0.5]])


def test_convex_gammas_must_be_positive():
    # with weight 0 the channel is the other branch alone, whose capacity is
    # not the worst branch's; mix_channels keeps nonnegative weights
    branches = (depolarizing(2, 0.9), depolarizing(2, 0.5))
    with pytest.raises(ValueError, match=r"gammas must be positive, got \[1.0, 0.0\]"):
        ConvexCombinationChannel(branches, [1.0, 0.0])
    assert mix_channels(branches, [1.0, 0.0]).din == 2


def test_weights_reject_nan():
    branches = (depolarizing(2, 0.9), depolarizing(2, 0.5))
    with pytest.raises(ValueError, match="probability"):
        ConvexCombinationChannel(branches, [float("nan"), float("nan")])
    with pytest.raises(ValueError, match="probability"):
        mix_channels(branches, [float("nan"), 1.0])


_PAIR = (depolarizing(2, 0.9), depolarizing(2, 0.5))
_FAST = optimize.OptimizerConfig(restarts=1, iters=2, seed=0)


@pytest.mark.parametrize(
    "weights",
    [np.array([0.5 + 1j, 0.5 - 1j]), np.array([0.5 + 1j, 0.5 - 1j], dtype=np.complex64),
     [0.5 + 1j, 0.5 - 1j], ["0.3", "0.7"], [b"0.3", b"0.7"], [0.3, "0.7"], np.array(["0.3", "0.7"])],
    ids=["complex128", "complex64", "python", "str", "bytes", "float-and-str", "numpy-str"],
)
@pytest.mark.parametrize(
    "call,name",
    [
        (lambda w: Ensemble(w, (basis_state(2, 0), basis_state(2, 1))), "probs"),
        (lambda w: ConvexCombinationChannel(_PAIR, w), "gammas"),
        (lambda w: mix_channels(_PAIR, w), "weights"),
        (lambda w: capacity.report_convex(2, [0.5, 0.9], w), "gammas"),
        (lambda w: capacity.verify_theorem2(2, [0.9, 0.5], w, None, _FAST), "gammas"),
    ],
    ids=["Ensemble", "ConvexCombinationChannel", "mix_channels", "report_convex", "verify_theorem2"],
)
def test_weights_reject_complex(call, name, weights):
    # rejected before any cast to float could drop the imaginary parts or parse text
    with pytest.raises(ValueError, match=f"^{name} must be real numbers, got "):
        call(weights)


@pytest.mark.parametrize(
    "lam",
    [np.complex128(0.5 + 0.3j), 0.5 + 0j, "0.5", np.str_("0.5"), True, float("nan")],
    ids=["numpy-complex", "python-complex", "str", "numpy-str", "bool", "nan"],
)
@pytest.mark.parametrize(
    "call",
    [
        lambda lam: capacity.s_min_depolarizing(2, lam),
        lambda lam: depolarizing(2, lam),
        lambda lam: capacity.capacity_periodic_depolarizing(2, [0.9, lam]),
        lambda lam: capacity.verify_additivity(2, lam, None, _FAST),
    ],
    ids=["s_min_depolarizing", "depolarizing", "capacity_periodic_depolarizing", "verify_additivity"],
)
def test_lambda_must_be_real(call, lam):
    # numpy orders complex numbers, so the range test alone would pass a
    # complex lambda on to a complex "capacity"; text fails to compare, True
    # would pass as 1 and NaN would read as a completely positive violation
    with pytest.raises(ValueError, match=r"^lambda must be a real number, got "):
        call(lam)


@pytest.mark.parametrize("dtype", [np.float32, np.float16])
def test_reduced_precision_lambda_is_computed_in_double(dtype):
    lam = dtype(0.3)
    exact = float(lam)
    for call in (lambda x: capacity.s_min_depolarizing(2, x),
                 lambda x: capacity.chi_star_depolarizing(2, x),
                 lambda x: capacity.capacity_periodic_depolarizing(2, [x, 0.5])):
        value = call(lam)
        assert type(value) is float and value == call(exact)
    # in lam's own precision the Kraus weights miss the identity sum by 1e-8 (float32)
    np.testing.assert_array_equal(depolarizing(2, lam).kraus, depolarizing(2, exact).kraus)
    report = capacity.verify_additivity(2, lam, None, _FAST)
    assert report.results_dict() == capacity.verify_additivity(2, exact, None, _FAST).results_dict()


def test_mix_channels_needs_a_channel():
    with pytest.raises(ValueError, match="^need at least one channel$"):
        mix_channels([], [])


def test_item_sequences_may_be_generators():
    # each is read once, into a tuple, and every item checked; the message
    # tests pin the empty and wrong-type errors
    ch, mixed = depolarizing(2, 0.5), maximally_mixed(2)
    np.testing.assert_array_equal(tensor_channels(c for c in (ch, ch)).kraus, tensor_channels((ch, ch)).kraus)
    np.testing.assert_array_equal(mix_channels((c for c in (ch, ch)), [0.5, 0.5]).kraus,
                                  mix_channels((ch, ch), [0.5, 0.5]).kraus)
    assert PeriodicChannel(c for c in (ch, ch)).branches == (ch, ch)
    assert Ensemble([1.0], (s for s in (mixed,))).states == (mixed,)
    with pytest.raises(TypeError, match="^channels must be KrausChannel, got ndarray$"):
        tensor_channels(c for c in (ch, ch.kraus))


NAN = float("nan")
INF = float("inf")


@pytest.mark.parametrize(
    "build",
    [
        lambda: Ensemble([NAN, NAN], (maximally_mixed(2), maximally_mixed(2))),
        lambda: DensityMatrix(np.full((2, 2), NAN)),
        lambda: KrausChannel((np.eye(2), np.full((2, 2), NAN))),
        lambda: Povm((np.eye(2) / 2, np.full((2, 2), NAN))),
        lambda: DensityMatrix(np.diag([INF, 0])),
        lambda: KrausChannel((np.eye(2), np.full((2, 2), INF))),
        lambda: Povm((np.diag([INF, 0.0]), np.diag([-INF, 1.0]))),
    ],
    ids=["Ensemble", "DensityMatrix", "KrausChannel", "Povm",
         "DensityMatrix-inf", "KrausChannel-inf", "Povm-inf"],
)
def test_constructors_reject_nan(build):
    # rejected before arithmetic on an infinite entry could warn
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize("value", ["ab", None, [["a", "b"], ["c", "d"]]], ids=["str", "None", "str-matrix"])
@pytest.mark.parametrize(
    "build,what",
    [(DensityMatrix, "density matrix"), (KrausChannel, "Kraus terms"), (Povm, "POVM elements")],
    ids=["DensityMatrix", "KrausChannel", "Povm"],
)
def test_constructors_reject_non_numbers(build, what, value):
    # not read as ragged, non-finite or numpy's malformed complex string
    with pytest.raises(ValueError, match=f"^{what} must be numbers, got "):
        build(value)


@pytest.mark.parametrize(
    "build",
    [
        lambda: maximally_mixed(2),
        lambda: depolarizing(2, 0.5),
        lambda: PeriodicChannel((depolarizing(2, 0.9), depolarizing(2, 0.5))),
        lambda: ConvexCombinationChannel((depolarizing(2, 0.9),), [1.0]),
        lambda: Ensemble([1.0], (maximally_mixed(2),)),
        lambda: Povm((np.eye(2),)),
    ],
    ids=["DensityMatrix", "KrausChannel", "PeriodicChannel",
         "ConvexCombinationChannel", "Ensemble", "Povm"],
)
def test_array_holders_compare_by_identity(build):
    # comparing or hashing the arrays inside would raise
    a, b = build(), build()
    assert not a == b and a != b
    assert {a: 1, b: 2}[a] == 1


@pytest.mark.parametrize("d", [2, 3])
def test_depolarizing_output_spectrum_law(d):
    rng = np.random.default_rng(16 + d)
    lambdas = np.linspace(-1 / (d * d - 1), 1.0, 5)
    for lam in lambdas:
        ch = depolarizing(d, lam)
        for _ in range(10):
            psi = random_pure_state(d, rng)
            spec = eigenvalues(apply(ch, psi))
            expected = np.sort(
                np.concatenate([[lam + (1 - lam) / d], np.full(d - 1, (1 - lam) / d)])
            )[::-1]
            np.testing.assert_allclose(spec, expected, atol=1e-10)

