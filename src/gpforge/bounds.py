"""Closed-form fidelity calculators and divergence inequalities.

Everything here is pure arithmetic: given data size and hyperparameters, compute how
many random features, quadrature nodes or Krylov iterations suffice for a target
total-variation budget, plus the condition bounds and the KL/TV plumbing that connect
matrix error norms to statistical indistinguishability. Every fidelity default lives
here, pciq's preconditioner rank default_rank(n) among them.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace

from .kernel import KernelParams

# the ciq noise split, and the total-variation budget of a default Q and J
DEFAULT_ETA = 0.5
DEFAULT_EPSILON = 0.1
DEFAULT_DELTA = 0.01  # the failure probability of a default rff D
# the decay-model constants and the slack of a default pciq J
DEFAULT_C1 = 1.0
DEFAULT_C2 = 1.0
DEFAULT_C_TILDE = 0.0


@dataclass(frozen=True)
class FidelitySpec:
    """Target fidelity budget plus the method parameters chosen to meet it.

    Fields that do not apply to a given sampler are left as None: an
    exact Cholesky draw carries no parameters at all, a random-feature
    draw populates D, a quadrature draw populates eta, Q and J, and a
    preconditioned quadrature draw adds rank.

    epsilon      total-variation budget, in (0, 1]
    delta        failure probability of the random-feature guarantee
    delta_Q      quadrature error budget (must stay below its cap,
                 epsilon * sigma_xi * sqrt(1 - eta))
    eta          fraction of the noise variance folded into the kernel
                 diagonal before the square root is taken
    D            number of random features (even)
    Q            number of quadrature nodes
    J            Krylov iteration cap
    rank         Nystrom preconditioner rank (>= 0); a sample records the
                 rank the factor reached, which may fall below the request,
                 down to 0 for a kernel whose signal rounds away in K_eta
    """

    epsilon: float | None = None
    delta: float | None = None
    delta_Q: float | None = None
    eta: float | None = None
    D: int | None = None
    Q: int | None = None
    J: int | None = None
    rank: int | None = None

    def __post_init__(self) -> None:
        if self.epsilon is not None and not 0 < self.epsilon <= 1:
            raise ValueError(f"epsilon must lie in (0, 1], got {self.epsilon}")
        if self.delta is not None and not 0 < self.delta < 1:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
        if self.delta_Q is not None and self.delta_Q <= 0:
            raise ValueError(f"delta_Q must be > 0, got {self.delta_Q}")
        if self.eta is not None and not 0 < self.eta < 1:
            raise ValueError(f"eta must lie in (0, 1), got {self.eta}")
        if self.D is not None and (self.D < 2 or self.D % 2 != 0):
            raise ValueError(f"D must be an even count >= 2, got {self.D}")
        if self.Q is not None and self.Q < 1:
            raise ValueError(f"Q must be >= 1, got {self.Q}")
        if self.J is not None and self.J < 1:
            raise ValueError(f"J must be >= 1, got {self.J}")
        if self.rank is not None and self.rank < 0:
            raise ValueError(f"rank must be >= 0, got {self.rank}")

    @classmethod
    def for_ciq(
        cls, n: int, params: KernelParams, epsilon: float, eta: float = DEFAULT_ETA,
        delta_Q: float | None = None, Q: int | None = None, J: int | None = None,
    ) -> "FidelitySpec":
        """Keep a given Q and J and size only what is missing: Q by
        ciq_min_quadrature, then J by ciq_min_iterations at that Q. With both
        given, neither runs. delta_Q defaults to half its cap, the Krylov
        headroom at delta_Q = 0, so the quadrature and Krylov error budgets are
        split evenly; those calculators refuse a delta_Q outside (0, 1) and one
        at or above its cap.
        """
        cls(epsilon=epsilon, eta=eta)  # rejects either out of range before sqrt(1 - eta)
        if delta_Q is None:
            delta_Q = 0.5 * _krylov_headroom(n, eta, params.noise_variance, epsilon, 0.0)
        if Q is None:
            Q = ciq_min_quadrature(n, eta, params.noise_variance, delta_Q)
        if J is None:
            J = ciq_min_iterations(n, eta, params.noise_variance, epsilon, delta_Q, Q)
        return cls(epsilon=epsilon, delta_Q=delta_Q, eta=eta, Q=Q, J=J)

    @classmethod
    def for_pciq(
        cls, n: int, params: KernelParams, epsilon: float, eta: float = DEFAULT_ETA,
        delta_Q: float | None = None, c1: float = DEFAULT_C1, c2: float = DEFAULT_C2,
        c_tilde: float = DEFAULT_C_TILDE, Q: int | None = None, J: int | None = None,
    ) -> "FidelitySpec":
        """for_ciq, but a missing J comes from the preconditioned iteration bound at
        rank default_rank(n), with lambda_(rank+1) from the decay model of constants
        c1, c2 and sigma_f = sqrt(variance). That bound reads no Q, so for_ciq sizes
        Q alone, at a stand-in J of 1, and no ciq J. Raises where for_ciq sizes Q."""
        rank = default_rank(n)
        spec = cls.for_ciq(n, params, epsilon, eta, delta_Q, Q, 1 if J is None else J)
        if J is None:
            model = DecayModel(c1=c1, c2=c2, sigma_f=math.sqrt(params.variance), dim=params.dim)
            J = precond_min_iterations(
                belkin_lambda_bound(rank + 1, n, model),
                n, eta, params.noise_variance, epsilon, spec.delta_Q, c_tilde,
            )
        return replace(spec, J=J, rank=rank)


@dataclass(frozen=True)
class DecayModel:
    """Exponential eigenvalue-decay envelope lambda_k <= n*sigma_f*c2*exp(-c1*k^(1/d))."""

    c1: float
    c2: float
    sigma_f: float
    dim: int

    def __post_init__(self) -> None:
        if not (self.c1 > 0 and self.c2 > 0):
            raise ValueError(f"c1 and c2 must be positive, got {self.c1}, {self.c2}")
        if not self.sigma_f > 0:
            raise ValueError(f"sigma_f must be positive, got {self.sigma_f}")
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")


def _finite(name: str, formula: Callable[[], float]) -> float:
    """formula(); one that raises at extreme inputs (a square overflows, a divisor
    underflows to zero) or gives inf or NaN is refused with ValueError."""
    try:
        value = formula()
    except (OverflowError, ZeroDivisionError):
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"{name} is not a finite number at these inputs")
    return value


def default_rank(n: int) -> int:
    """The preconditioner rank floor(sqrt(n)) that the iteration bound assumes."""
    return max(1, math.isqrt(n))


def rff_min_features(n: int, epsilon: float, delta: float, sigma_xi2: float) -> int:
    """Smallest even feature count sufficient for the elementwise guarantee: the
    published D >= 8*log(n/sqrt(delta))*n^2 / (8*eps^2*sigma_xi^4), written as
    8*log(n/sqrt(delta)) / t^2 for the per-entry budget t of rff_element_budget.
    Dividing by t twice forms no square: a noise variance whose square would
    overflow gives D = 2, and a D that is not finite is refused."""
    t = rff_element_budget(n, epsilon, sigma_xi2)
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    D = max(2, math.ceil(_finite("D", lambda: 8.0 * math.log(n / math.sqrt(delta)) / t / t)))
    return D + D % 2


def rff_element_budget(n: int, epsilon: float, sigma_xi2: float) -> float:
    """Per-entry error threshold of the feature-count guarantee.

    The aggregate Frobenius budget that keeps the sampled law within
    total-variation distance epsilon is 2*sqrt(2)*epsilon*sigma_xi^2;
    spreading it over the n x n Gram entries gives this threshold.  With
    D chosen by rff_min_features, the chance that any entry deviates by
    more than this is at most delta.
    """
    if n < 1 or epsilon <= 0 or sigma_xi2 <= 0:
        raise ValueError("n, epsilon and sigma_xi2 must be positive")
    return 2.0 * math.sqrt(2.0) * epsilon * sigma_xi2 / n


def _check_noise_split(n: int, eta: float, sigma_xi2: float) -> None:
    if n < 1 or sigma_xi2 <= 0 or not 0 < eta < 1:
        raise ValueError("need n >= 1, sigma_xi2 > 0 and eta in (0, 1)")


def _krylov_headroom(n: int, eta: float, sigma_xi2: float, epsilon: float, delta_Q: float) -> float:
    """The budget left to the Krylov error: epsilon*sigma_xi*sqrt(1-eta) - delta_Q > 0."""
    _check_noise_split(n, eta, sigma_xi2)
    cap = epsilon * math.sqrt(sigma_xi2) * math.sqrt(1.0 - eta)
    if cap - delta_Q <= 0:
        raise ValueError(
            f"delta_Q={delta_Q} must stay below its cap epsilon*sigma_xi*sqrt(1-eta) = {cap}"
        )
    return cap - delta_Q


def ciq_min_quadrature(n: int, eta: float, sigma_xi2: float, delta_Q: float) -> int:
    """Smallest node count Q with quadrature error at most delta_Q."""
    _check_noise_split(n, eta, sigma_xi2)
    if not 0 < delta_Q < 1:
        raise ValueError(f"delta_Q must lie in (0, 1), got {delta_Q}")
    raw = _finite(
        "Q",
        lambda: (math.log(n / (eta * sigma_xi2)) + 3.0) * (-math.log(delta_Q)) / (2.0 * math.pi**2),
    )
    return max(1, math.ceil(raw))


def ciq_min_iterations(
    n: int,
    eta: float,
    sigma_xi2: float,
    epsilon: float,
    delta_Q: float,
    Q: int,
) -> int:
    """Sufficient Krylov iteration count for the quadrature sampler.

    Evaluates the exact rearranged iteration bound with kappa from
    condition_number_bound at unit signal variance and smallest shifted
    eigenvalue eta*sigma_xi^2.
    """
    headroom = _krylov_headroom(n, eta, sigma_xi2, epsilon, delta_Q)
    if Q < 1:
        raise ValueError(f"Q must be >= 1, got {Q}")

    def raw() -> float:
        kappa = condition_number_bound(n, eta, sigma_xi2, 1.0)
        lam_n = eta * sigma_xi2
        sqrt_k = math.sqrt(kappa)
        prefactor = math.log(sqrt_k - 1.0) - math.log(sqrt_k + 1.0)
        inner = (
            math.pi
            * headroom
            / (2.0 * Q * math.sqrt(lam_n) * kappa * math.sqrt(n) * math.log(5.0 * sqrt_k))
        )
        return 1.0 + math.log(inner) / prefactor

    return max(1, math.ceil(_finite("J", raw)))


def precond_min_iterations(
    lambda_kp1: float,
    n: int,
    eta: float,
    sigma_xi2: float,
    epsilon: float,
    delta_Q: float,
    C_tilde: float = DEFAULT_C_TILDE,
) -> int:
    """Sufficient iteration count under a rank-floor(sqrt(n)) preconditioner."""
    if lambda_kp1 < 0:
        raise ValueError(f"lambda_kp1 must be >= 0, got {lambda_kp1}")
    headroom = _krylov_headroom(n, eta, sigma_xi2, epsilon, delta_Q)
    sigma_xi = math.sqrt(sigma_xi2)
    tail = 1.25 * math.log(n) - math.log(headroom) + C_tilde
    raw = _finite(
        "J", lambda: 1.0 + math.sqrt(lambda_kp1) * n**0.375 / (math.sqrt(eta) * sigma_xi) * tail
    )
    return max(1, math.ceil(raw))


def decay_regime(n: int, model: DecayModel) -> tuple[float, str, float]:
    """Classify the iteration-growth regime implied by eigenvalue decay.

    gamma = (7/8)*log(n) - (c1/2)*n^(1/d) decides which of three
    scenarios applies; the returned estimate is the matching growth law
    evaluated at n with unit constants. Boundary values fall into the
    adjacent regime with the larger estimate.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    gamma = 0.875 * math.log(n) - 0.5 * model.c1 * n ** (1.0 / model.dim)
    if gamma >= 1.0:
        return gamma, "i", n**0.875 * math.log(n)
    if gamma >= 0.0:
        return gamma, "ii", math.log(n) ** 2
    return gamma, "iii", 1.0


def condition_number_bound(n: int, eta: float, sigma_xi2: float, sigma_f2: float) -> float:
    """Analytic condition-number envelope for the noisy Gram matrix."""
    if n < 1 or sigma_xi2 <= 0 or sigma_f2 <= 0 or not 0 < eta <= 1:
        raise ValueError("arguments must be positive with eta in (0, 1]")
    return _finite("kappa_bound", lambda: n * sigma_f2 / (eta * sigma_xi2) + 1.0)


def preconditioned_condition_bound(
    lambda_kp1: float, n: int, eta: float, sigma_xi2: float, k: int
) -> float:
    """Condition-number bound for the preconditioned noisy kernel."""
    if lambda_kp1 < 0:
        raise ValueError(f"lambda_kp1 must be >= 0, got {lambda_kp1}")
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if sigma_xi2 <= 0 or not 0 < eta <= 1:
        raise ValueError("need sigma_xi2 > 0 and eta in (0, 1]")
    return _finite(
        "kappa_bound",
        lambda: 1.0 + 2.0 * lambda_kp1 * math.sqrt(4.0 * k * (n - k) + 1.0) / (eta * sigma_xi2),
    )


def ciq_error_bound(
    Q: int, J: int, kappa: float, lambda_n: float, norm_u: float
) -> tuple[float, float, float]:
    """Two-term error bound for the quadrature square-root product.

    Returns (quadrature term, Krylov term, total) where the total bounds
    the Euclidean error of the approximate K^(1/2) u product. The
    quadrature term uses a unit leading constant.
    """
    if kappa < 1:
        raise ValueError(f"kappa must be >= 1, got {kappa}")
    if Q < 1 or J < 1:
        raise ValueError(f"need Q >= 1 and J >= 1, got Q={Q}, J={J}")
    eps_Q = math.exp(-2.0 * Q * math.pi**2 / (math.log(kappa) + 3.0))
    sqrt_k = math.sqrt(kappa)
    ratio = (sqrt_k - 1.0) / (sqrt_k + 1.0)
    B = (
        2.0 * Q * math.log(5.0 * sqrt_k) * kappa * math.sqrt(lambda_n) / math.pi
    ) * ratio ** (J - 1)
    return eps_Q, B, eps_Q + B * norm_u


def kl_frobenius_bound(E_frobenius: float, sigma_xi2: float) -> float:
    """KL upper bound in terms of the Frobenius norm of the Gram error."""
    if E_frobenius < 0:
        raise ValueError(f"norm must be >= 0, got {E_frobenius}")
    if sigma_xi2 <= 0:
        raise ValueError(f"sigma_xi2 must be > 0, got {sigma_xi2}")
    return _finite("kl_bound", lambda: E_frobenius**2 / (4.0 * sigma_xi2**2))


def tv_from_kl(kl: float) -> float:
    """Total-variation upper bound from KL, clamped to the TV range [0, 1]."""
    if not kl >= 0:
        raise ValueError(f"kl must be >= 0, got {kl}")
    return min(1.0, math.sqrt(kl / 2.0))


def belkin_lambda_bound(k: int, n: int, model: DecayModel) -> float:
    """Eigenvalue-decay envelope for the k-th Gram eigenvalue."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return n * model.sigma_f * model.c2 * math.exp(-model.c1 * k ** (1.0 / model.dim))
