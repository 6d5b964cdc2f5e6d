"""Brute-force reference implementation of the meta-analysis chain.

Deliberately independent of the package internals: plain numpy reductions and
scipy distributions, naive summation, no shared helpers. Used to cross-check
the engine on random datasets.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import stats as sps

from roimeta.campaigns import ExperimentDataset


def oracle_effects(dataset: ExperimentDataset):
    """Per-campaign (d, v) pairs by direct application of the formulas."""
    out = []
    for campaign in dataset.campaigns:
        ra = np.array([p.roi for p in campaign.parts_a], dtype=float)
        rb = np.array([p.roi for p in campaign.parts_b], dtype=float)
        m_a, m_b = len(ra), len(rb)
        df = m_a + m_b - 2
        sp2 = ((m_a - 1) * ra.var(ddof=1) + (m_b - 1) * rb.var(ddof=1)) / df
        sp = math.sqrt(sp2)
        c = 1.0 - 3.0 / (4.0 * df - 1.0)
        if sp == 0.0:
            d = 0.0
        else:
            d = c * (rb.mean() - ra.mean()) / sp
        v = c * c * ((m_a + m_b) / (m_a * m_b) + d * d / (m_a + m_b))
        out.append((d, v))
    return out


def oracle_meta(dataset: ExperimentDataset) -> dict:
    """Summary statistics of the whole chain, computed the straightforward way."""
    pairs = oracle_effects(dataset)
    d = np.array([p[0] for p in pairs])
    v = np.array([p[1] for p in pairs])
    n = len(d)
    w = 1.0 / v
    mu = float((w * d).sum() / w.sum())
    nu = float(1.0 / w.sum())
    q = float((w * (d - mu) ** 2).sum())
    p_q = float(sps.chi2.sf(q, n - 1)) if n > 1 else 1.0
    if n > 1 and q >= n - 1:
        lam = float(w.sum() - (w**2).sum() / w.sum())
        tau2 = (q - (n - 1)) / lam if lam > 0 else 0.0
    else:
        tau2 = 0.0
    w_star = 1.0 / (v + tau2)
    mu_star = float((w_star * d).sum() / w_star.sum())
    nu_star = float(1.0 / w_star.sum())
    z = mu_star / math.sqrt(nu_star)
    p_z = float(sps.norm.sf(abs(z)))
    return {
        "mu": mu, "nu": nu, "q": q, "p_q": p_q, "tau2": tau2,
        "mu_star": mu_star, "nu_star": nu_star, "z": z, "p_z": p_z,
    }
