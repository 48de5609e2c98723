"""Regenerate references.json, the frozen values the benchmark checks against.

    python3 bench/make_references.py            # from the repository root

Quadrature references come from mpmath at 30 digits on unit panels, through
1D forms that share no code with signcorr:

    Phi(i)/i = (2 sqrt2 / pi) Int_0^inf asinh(cos(eta(2r - 1))) e^-r J0(r) dr
    Phi(t)   = (2/pi) (1-t^2)^-1/2 Int_0^inf arcsin(t cos(eta(s - 1)))
                 e^{-s/(1-t^2)} I0(|t| s / (1-t^2)) ds

The second is the radial-kernel reduction of the correlated Gaussian density
(rotate to (x+y)/sqrt2, (x-y)/sqrt2; the angular integral is 2 pi I0). At
eta = 0, Phi(i)/i is the closed form (2/pi) ln(1 + sqrt 2).

The Monte Carlo entries are signcorr's own estimates at seed 42. The README
promises that they reproduce bit for bit from (samples, seed), so they are
frozen from the program itself and are not to be regenerated to make a
changed stream pass.
"""

from __future__ import annotations

import json
import pathlib
import sys

import mpmath as mp

ROOT = pathlib.Path(__file__).resolve().parent.parent
ETA = "0.228"
T_VALUES = ("0.3", "-0.7", "0.95")
MC_SEED = 42


def phi_i_over_i(eta):
    f = lambda r: mp.asinh(mp.cos(eta * (2 * r - 1))) * mp.exp(-r) * mp.besselj(0, r)
    return 2 * mp.sqrt(2) / mp.pi * mp.quad(f, mp.linspace(0, 120, 121))


def phi_real_t(eta, t):
    omt2 = 1 - t * t
    f = lambda s: (
        mp.asin(t * mp.cos(eta * (s - 1)))
        * mp.exp(-s / omt2)
        * mp.besseli(0, abs(t) * s / omt2)
    )
    return 2 / mp.pi / mp.sqrt(omt2) * mp.quad(f, mp.linspace(0, 140, 141))


def mc_estimates() -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    from signcorr import estimate_phi_i, estimate_phi_t, identity1, rotation3

    runs = {
        "mc.phi_i.rotation3.n1e6": lambda: estimate_phi_i(rotation3(0.228), 10**6, MC_SEED),
        "mc.phi_i.rotation3.n4e6": lambda: estimate_phi_i(rotation3(0.228), 4 * 10**6, MC_SEED),
        "mc.phi_t.rotation3.t0.3": lambda: estimate_phi_t(rotation3(0.228), 0.3, 10**6, MC_SEED),
        "mc.phi_t.identity1.t0.5": lambda: estimate_phi_t(identity1(), 0.5, 10**6, MC_SEED),
    }
    out = {}
    for name, run in runs.items():
        est = run()
        out[name] = {"mean": est.mean, "stderr": est.stderr}
    return out


def main() -> None:
    mp.mp.dps = 30
    eta = mp.mpf(ETA)
    refs = {
        "phi_i_over_i": {
            ETA: mp.nstr(phi_i_over_i(eta), 25),
            "0": mp.nstr(2 / mp.pi * mp.log(1 + mp.sqrt(2)), 25),
        },
        "phi_real_t": {t: mp.nstr(phi_real_t(eta, mp.mpf(t)), 25) for t in T_VALUES},
        "mc_seed42": mc_estimates(),
    }
    path = ROOT / "bench" / "references.json"
    path.write_text(json.dumps(refs, indent=2) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
