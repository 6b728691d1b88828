"""Matrix-valued polynomial family from a Rodrigues-type derivative formula.

For a system with pole polynomial Q (degree S+2) and matrix weight W
solving W' = W B, the family member of index n = (S+1)m + i (0 <= i <= S)
is

    P_n = W^{-1} d^m/dx^m [ x^i Q(x)^m W ].

Nothing here ever forms W: differentiating the defining product once and
absorbing W turns each derivative into the first-order polynomial operator

    (op_k P)(x) = k Q'(x) P(x) + Q(x) B(x) P(x) + Q(x) P'(x),

with QB the exact matrix polynomial from the model, so

    P_n = op_1 op_2 ... op_m (x^i I)        (op_m applied first).

Members with n <= S are exactly x^n I.  deg P_n = n, with leading
coefficient prod_{j=1..m} (j + n + B_inf); those leading matrices are
invertible whenever k + B_inf is invertible for the relevant k, and then
every polynomial right-hand side g expands uniquely as

    g(x) = sum_n P_n(x) g_n,     g_n constant vectors,

computed by descending-degree back-substitution (``expand``).

Expanding never builds matrix products either: P_n times a constant vector
equals the same operator chain applied to x^i * vector, because
right-multiplication by a constant commutes with every op_k.
"""

from __future__ import annotations

from .exact import from_int
from .matrices import CMatrix, SingularMatrixError, solve_linear, vec_is_zero
from .model import AssumptionError
from .poly import MatPoly, VecPoly


class RodriguesFamily:
    """The polynomial family attached to one Fuchsian system, with caching."""

    def __init__(self, system):
        self.system = system
        self._members = {}
        self._leading = {}

    @property
    def s(self):
        return self.system.s

    def split_index(self, n):
        """n = (S+1)*m + i with 0 <= i <= S: returns (m, i)."""
        if n < 0:
            raise ValueError("family index must be >= 0")
        return divmod(n, self.s + 1)

    # -- the first-order operator ---------------------------------------

    def op_apply(self, k, p):
        """k Q' p + (QB) p + Q p' for a MatPoly or VecPoly p."""
        system = self.system
        q = system.q_poly()
        qp = system.q_prime()
        qb = system.qb_poly()
        if isinstance(p, VecPoly):
            mixed = qb.mul_vec(p)
        else:
            mixed = qb.mul_mat(p)
        out = p.mul_sp(qp).scale(from_int(k, system.exact))
        out = out + mixed
        out = out + p.derivative().mul_sp(q)
        return out

    # -- family members --------------------------------------------------

    def member(self, n):
        """P_n as a matrix polynomial (cached)."""
        if n not in self._members:
            m, i = self.split_index(n)
            size = self.system.size
            p = MatPoly.identity_constant(size, self.system.exact)
            if i:
                p = p.mul_sp(_monomial_sp(i, self.system.exact))
            for k in range(m, 0, -1):
                p = self.op_apply(k, p)
            self._members[n] = p
        return self._members[n]

    def member_times_vector(self, n, vec):
        """P_n @ vec as a VecPoly, via the operator chain on x^i * vec."""
        m, i = self.split_index(n)
        p = VecPoly.monomial(vec, i, self.system.exact)
        for k in range(m, 0, -1):
            p = self.op_apply(k, p)
        return p

    def leading_coeff(self, n):
        """prod_{j=1..m} (j + n + B_inf); the identity for n <= S (cached)."""
        if n not in self._leading:
            m, _ = self.split_index(n)
            binf = self.system.b_infinity()
            acc = None
            for j in range(1, m + 1):
                factor = binf.add_scaled_identity(j + n)
                acc = factor if acc is None else acc @ factor
            if acc is None:
                acc = CMatrix.identity(self.system.size, self.system.exact)
            self._leading[n] = acc
        return self._leading[n]

    # -- expansion of a right-hand side ----------------------------------

    def expand(self, g, tol=1e-12):
        """Coefficient vectors g_0..g_D with g = sum_n P_n g_n (D = deg g).

        Descending back-substitution: the degree-n coefficient of the
        remainder determines g_n through one solve against the leading
        coefficient of P_n.  Raises AssumptionError when a leading
        coefficient is singular.
        """
        system = self.system
        if g.dim != system.size:
            raise ValueError("right-hand side dimension mismatch")
        exact = system.exact
        work = g if exact else g.trim(tol)
        degree = work.degree
        coeffs = []
        scale = max(1.0, work.max_abs())
        for n in range(degree, -1, -1):
            top = work.coefficient(n)
            if vec_is_zero(top, 0.0 if exact else tol * scale):
                coeffs.append(tuple(from_int(0, exact) for _ in range(g.dim)))
                work = _truncate_below(work, n)
                continue
            try:
                g_n = solve_linear(self.leading_coeff(n), top, tol)
            except SingularMatrixError as err:
                raise AssumptionError(
                    f"family member {n} has a singular leading coefficient "
                    f"(an integer shift of the residue sum is singular): {err}"
                ) from None
            coeffs.append(g_n)
            work = work - self.member_times_vector(n, g_n)
            if not exact:
                overshoot = max(
                    (max(abs(c) for c in work.coefficient(k))
                     for k in range(n, work.degree + 1)),
                    default=0.0,
                )
                if overshoot > 1e-6 * scale:
                    raise ArithmeticError(
                        f"expansion failed to reduce degree at n={n} "
                        f"(residual {overshoot:.3e}); system too ill-conditioned"
                    )
            work = _truncate_below(work, n)
        coeffs.reverse()
        return coeffs


def shifted_system(system):
    """The companion system with every residue lowered by the identity.

    Its family extends the original one: members of the lowered system of
    index n <= S are plain monomials, and the two families together split a
    right-hand side into a degree <= S obstruction plus a reachable part.
    """
    return system.shift(-1)


def _monomial_sp(power, exact):
    return tuple(
        from_int(1 if k == power else 0, exact) for k in range(power + 1)
    )


def _truncate_below(p, n):
    """Drop all coefficients of index >= n (they are zero or roundoff)."""
    coeffs = list(p.coeffs[:n])
    while coeffs and vec_is_zero(coeffs[-1]):
        coeffs.pop()
    return VecPoly(p.dim, tuple(coeffs), p.exact)
