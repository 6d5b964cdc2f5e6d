"""Scalar special functions used by the significance and heterogeneity tests.

Implemented on the standard library only so results are identical on every
platform: the normal CDF uses ``math.erfc``, the quantile is Wichura's AS 241
(PPND16) rational approximation with one guarded Newton refinement, and the
chi-square survival function evaluates the regularized incomplete gamma
function by series or continued fraction.
"""

from __future__ import annotations

import math

_SQRT2 = math.sqrt(2.0)
_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)

_MAX_GAMMA_ITER = 100_000
_GAMMA_EPS = 1e-17


def normal_cdf(x: float) -> float:
    """Standard normal CDF, accurate in both tails."""
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x!r}")
    return 0.5 * math.erfc(-x / _SQRT2)


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF (AS 241, PPND16 precision).

    Raises ValueError outside the open interval (0, 1).
    """
    if not (0.0 < p < 1.0):
        raise ValueError(f"p must be strictly inside (0, 1), got {p!r}")
    q = p - 0.5
    if abs(q) <= 0.425:
        r = 0.180625 - q * q
        num = (((((((2.5090809287301226727e3 * r + 3.3430575583588128105e4) * r
                    + 6.7265770927008700853e4) * r + 4.5921953931549871457e4) * r
                  + 1.3731693765509461125e4) * r + 1.9715909503065514427e3) * r
                + 1.3314166789178437745e2) * r + 3.3871328727963666080e0)
        den = (((((((5.2264952788528545610e3 * r + 2.8729085735721942674e4) * r
                    + 3.9307895800092710610e4) * r + 2.1213794301586595867e4) * r
                  + 5.3941960214247511077e3) * r + 6.8718700749205790830e2) * r
                + 4.2313330701600911252e1) * r + 1.0)
        x = q * num / den
    else:
        r = p if q < 0 else 1.0 - p
        r = math.sqrt(-math.log(r))
        if r <= 5.0:
            r -= 1.6
            num = (((((((7.74545014278341407640e-4 * r + 2.27238449892691845833e-2) * r
                        + 2.41780725177450611770e-1) * r + 1.27045825245236838258e0) * r
                      + 3.64784832476320460504e0) * r + 5.76949722146069140550e0) * r
                    + 4.63033784615654529590e0) * r + 1.42343711074968357734e0)
            den = (((((((1.05075007164441684324e-9 * r + 5.47593808499534494600e-4) * r
                        + 1.51986665636164571966e-2) * r + 1.48103976427480074590e-1) * r
                      + 6.89767334985100004550e-1) * r + 1.67638483018380384940e0) * r
                    + 2.05319162663775882187e0) * r + 1.0)
        else:
            r -= 5.0
            num = (((((((2.01033439929228813265e-7 * r + 2.71155556874348757815e-5) * r
                        + 1.24266094738807843860e-3) * r + 2.65321895265761230930e-2) * r
                      + 2.96560571828504891230e-1) * r + 1.78482653991729133580e0) * r
                    + 5.46378491116411436990e0) * r + 6.65790464350110377720e0)
            den = (((((((2.04426310338993978564e-15 * r + 1.42151175831644588870e-7) * r
                        + 1.84631831751005468180e-5) * r + 7.86869131145613259100e-4) * r
                      + 1.48753612908506148525e-2) * r + 1.36929880922735805310e-1) * r
                    + 5.99832206555887937690e-1) * r + 1.0)
        x = num / den
        if q < 0:
            x = -x
    # One Newton step sharpens mid-range results to machine precision; skipped
    # where the density underflows and the step would be 0/0. The density and
    # normal_cdf are written out (x is finite here): every normal draw runs this.
    pdf = math.exp(-0.5 * x * x) / _SQRT_TWO_PI
    if pdf > 1e-280:
        x -= (0.5 * math.erfc(-x / _SQRT2) - p) / pdf
    return x


def _lower_reg_gamma_series(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x) by power series; for x < a + 1."""
    term = 1.0 / a
    total = term
    denom = a
    for _ in range(_MAX_GAMMA_ITER):
        denom += 1.0
        term *= x / denom
        total += term
        if abs(term) < abs(total) * _GAMMA_EPS:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _upper_reg_gamma_cf(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) by Lentz continued fraction; x >= a + 1."""
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_GAMMA_ITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _GAMMA_EPS:
            break
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


def chi_square_sf(x: float, df: int) -> float:
    """Survival function of the chi-square distribution with ``df`` degrees of freedom."""
    if not isinstance(df, int) or isinstance(df, bool) or df < 1:
        raise ValueError(f"df must be an integer >= 1, got {df!r}")
    if not math.isfinite(x) or x < 0:
        raise ValueError(f"x must be finite and >= 0, got {x!r}")
    a = 0.5 * df
    half_x = 0.5 * x
    if half_x == 0.0:
        return 1.0
    if half_x < a + 1.0:
        p = 1.0 - _lower_reg_gamma_series(a, half_x)
    else:
        p = _upper_reg_gamma_cf(a, half_x)
    return min(1.0, max(0.0, p))
