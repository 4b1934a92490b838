"""
Direct ODE integration against the closed forms
===============================================

Nothing in this script touches a Bessel function: bound states are
re-derived by Numerov shooting and transmission probabilities by the
same Numerov sweep from the transmitted wave, matched at the origin.
Agreement with the closed-form numbers validates both routes at once.

Run:  python demos/ode_cross_check.py
"""

import numpy as np

from expwell import (
    PotentialParams,
    amplitudes,
    find_spectrum,
    shooting_kappa,
    transmission_numeric,
)

# %% eigenvalues, state by state
params = PotentialParams(5.0)
spectrum = find_spectrum(params)
print("g = 5 eigenvalues: closed form vs Numerov shooting")
print(f"{'m':>2} {'parity':>6} {'kappa (closed)':>16} {'kappa (ODE)':>16} {'gap':>9}")
for st in spectrum.states:
    k_ode = shooting_kappa(st, params)
    print(f"{st.m:2d} {st.parity:>6} {st.kappa:16.10f} {k_ode:16.10f} "
          f"{abs(st.kappa - k_ode):9.1e}")
print()

# %% transmission probabilities across a momentum sweep
print("transmission probability |t(k)|^2: closed form vs Numerov matching")
print(f"{'g':>4} {'k':>6} {'closed':>12} {'ODE':>12} {'gap':>9}")
for g in (1.0, 5.0):
    p = PotentialParams(g)
    for k in (0.5, 1.0, 2.0):
        t2_closed = abs(amplitudes(k, p).t) ** 2
        _, t = transmission_numeric(k, p)
        print(f"{g:4.1f} {k:6.2f} {t2_closed:12.8f} {abs(t) ** 2:12.8f} "
              f"{abs(t2_closed - abs(t) ** 2):9.1e}")
print()

# %% flux holds by construction: the origin match gives |r|^2 + |t|^2 = 1
p = PotentialParams(2.0)
worst = 0.0
for k in np.geomspace(0.2, 4.0, 8):
    r, t = transmission_numeric(float(k), p)
    worst = max(worst, abs(abs(r) ** 2 + abs(t) ** 2 - 1.0))
print(f"worst ODE flux defect over a g = 2 sweep: {worst:.2e}")
