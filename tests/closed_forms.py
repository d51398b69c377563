"""Closed forms of the Moser pipeline on Reinhardt gauges, in sympy.

A Reinhardt gauge depends on |z1| and |z2| only, so its chart function
m^2(rho), rho = |v|, is radial, and so is the Moser field: the Moser map
is the equal-area radial map of CP^1.  With L = log m^2 and the disk
identity int_0^rho (Delta L) r dr = rho L'(rho), it is
psi(rho) = sqrt(s / (1 - s)), s = rho L'(rho) / 2, and its Beltrami
coefficient is mu_B = (rho psi' - psi) / (rho psi' + psi).  The mode-0
norm of the pipeline's tensor at a node p is |mu_B(psi^-1(|p|))|.

J. Moser, "On the volume elements on a manifold", Trans. AMS 120 (1965);
L. Ahlfors, Lectures on Quasiconformal Mappings (1966).  sympy and scipy
are test extras.
"""

import sympy as sp
from scipy.optimize import brentq

RHO = sp.Symbol("rho", positive=True)


class RadialMoserMap:
    """psi, psi^-1 and |mu_B o psi^-1| of the radial chart function m_sq,
    a sympy expression in RHO."""

    def __init__(self, m_sq):
        s = RHO * sp.diff(sp.log(m_sq), RHO) / 2
        psi = sp.sqrt(s / (1 - s))
        dpsi = sp.diff(psi, RHO)
        self.psi = sp.lambdify(RHO, psi, "math")
        self.beltrami = sp.lambdify(RHO, (RHO * dpsi - psi) / (RHO * dpsi + psi), "math")

    def psi_inverse(self, p):
        """The rho > 0 with psi(rho) = p > 0; psi(0) = 0 and psi grows."""
        hi = 1.0
        while self.psi(hi) < p:
            hi *= 2.0
        return brentq(lambda r: self.psi(r) - p, 0.0, hi, xtol=1e-15)

    def mode0_norm(self, p):
        """|mu_B(psi^-1(p))|, the mode-0 norm at a node of modulus p > 0."""
        return abs(self.beltrami(self.psi_inverse(p)))
