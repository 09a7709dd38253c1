"""Linear dispersion relation of the symmetric cold two-stream instability.

Two counter-streaming cold electron beams of equal density (each
carrying half the plasma density, so each has beam plasma frequency
``omega_p / sqrt(2)``) obey

.. math::
    1 = \\frac{\\omega_p^2}{2}\\left[\\frac{1}{(\\omega - k v_0)^2}
        + \\frac{1}{(\\omega + k v_0)^2}\\right].

For a purely growing mode ``omega = i*gamma`` this reduces to a
quadratic in ``gamma^2`` with the closed-form solution implemented in
:func:`growth_rate_cold`:

.. math::
    \\gamma^2 = \\frac{-(2a^2 + 1) + \\sqrt{8 a^2 + 1}}{2},
    \\qquad a = k v_0 / \\omega_p .

The system is unstable iff ``a < 1``; the growth rate is maximal,
``gamma = omega_p / (2 sqrt(2))``, at ``a = sqrt(3/8)`` — exactly the
paper's box tuning (``k1 v0 = 3.06 * 0.2 = 0.612 = sqrt(3/8)``).

A general complex root solver (:func:`solve_dispersion`) and a
warm-fluid correction are provided for validation and extensions.  The
root solver is the only function here that needs scipy, and it imports
scipy on first use, so importing :mod:`repro.theory` does not load it.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from repro import constants


def dispersion_residual(
    omega: complex,
    k: float,
    v0: float,
    wp: float = constants.PLASMA_FREQUENCY,
    vth: float = 0.0,
) -> complex:
    """Residual ``D(omega, k)`` whose roots are the plasma eigenmodes.

    ``vth > 0`` applies the warm-fluid (waterbag) correction
    ``(omega -/+ k v0)^2 -> (omega -/+ k v0)^2 - 3 k^2 vth^2``.
    """
    if k == 0.0:
        raise ValueError("k must be non-zero")
    thermal = 3.0 * (k * vth) ** 2
    dp = (omega - k * v0) ** 2 - thermal
    dm = (omega + k * v0) ** 2 - thermal
    if dp == 0 or dm == 0:
        return complex(np.inf)
    return 1.0 - 0.5 * wp**2 * (1.0 / dp + 1.0 / dm)


def growth_rate_cold(k: float, v0: float, wp: float = constants.PLASMA_FREQUENCY) -> float:
    """Closed-form growth rate of the purely growing cold two-stream mode.

    Returns 0 for linearly stable wavenumbers (``k*v0 >= wp``).
    """
    if k <= 0 or v0 <= 0:
        raise ValueError(f"k and v0 must be positive, got k={k}, v0={v0}")
    if wp <= 0:
        raise ValueError(f"wp must be positive, got {wp}")
    a2 = (k * v0 / wp) ** 2
    gamma2 = 0.5 * (-(2.0 * a2 + 1.0) + math.sqrt(8.0 * a2 + 1.0))
    if gamma2 <= 0.0:
        return 0.0
    return wp * math.sqrt(gamma2)


def growth_rate_curve(
    k_values: np.ndarray, v0: float, wp: float = constants.PLASMA_FREQUENCY
) -> np.ndarray:
    """Vectorized :func:`growth_rate_cold` over an array of wavenumbers."""
    return np.array([growth_rate_cold(float(k), v0, wp) for k in np.asarray(k_values)])


def most_unstable_k(v0: float, wp: float = constants.PLASMA_FREQUENCY) -> float:
    """Wavenumber maximizing the cold growth rate: ``k v0 = sqrt(3/8) wp``."""
    if v0 <= 0:
        raise ValueError(f"v0 must be positive, got {v0}")
    return constants.MOST_UNSTABLE_KV0 * wp / v0


def max_growth_rate(wp: float = constants.PLASMA_FREQUENCY) -> float:
    """Maximum cold two-stream growth rate, ``wp / (2 sqrt(2))``."""
    return wp * constants.MAX_TWO_STREAM_GROWTH_RATE


def stability_threshold_k(v0: float, wp: float = constants.PLASMA_FREQUENCY) -> float:
    """Wavenumber above which the cold system is linearly stable."""
    if v0 <= 0:
        raise ValueError(f"v0 must be positive, got {v0}")
    return wp / v0


def solve_dispersion(
    k: float,
    v0: float,
    wp: float = constants.PLASMA_FREQUENCY,
    vth: float = 0.0,
    guess: "complex | None" = None,
) -> complex:
    """Numerically locate a root of the dispersion relation near ``guess``.

    Defaults the guess to the analytic purely growing cold mode (or a
    weakly damped oscillation when stable).  Uses a 2D real Newton
    solve over (Re omega, Im omega).
    """
    import scipy.optimize  # here, not at module level: see the module docstring

    if guess is None:
        gamma = growth_rate_cold(k, v0, wp)
        guess = complex(0.0, gamma) if gamma > 0 else complex(1.05 * k * v0, 0.0)

    def system(z: np.ndarray) -> np.ndarray:
        val = dispersion_residual(complex(z[0], z[1]), k, v0, wp, vth)
        return np.array([val.real, val.imag])

    sol = scipy.optimize.fsolve(system, np.array([guess.real, guess.imag]), full_output=True)
    root, info, ier, _ = sol
    if ier != 1:
        raise RuntimeError(f"dispersion root search failed for k={k}, v0={v0}, vth={vth}")
    return complex(root[0], root[1])
