"""Registers as decoherence factors: the closed form the register kinds run on.

A device register starts in a ready state and a controlled shift carries it
to the n-th of its record (pointer) states in the branch of outcome n.  The
register kinds measure the system in its computational basis |n>, and no
step is followed by a map on the system, so each state they model is
sum_n a_n |n> (x)_j |x_j(n)>, a_n = <n|psi> the system's amplitudes.  Every
register has record states of one constant overlap c_j (0 for ideal
records, 1 while it is ready), so the system density is
(1 - gamma) diag(|a|^2) + gamma a a^dagger with gamma = prod_j c_j:
``Decoherence``, in O(n) work.  ``check_register`` refuses a register whose
records cannot have the overlap asked for, and
``record_states_with_overlap`` builds them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


def check_register(n_outcomes: int, overlap: float, dim: int) -> None:
    """Refuse a register of width ``dim`` whose n_outcomes records cannot
    have the constant pairwise overlap ``overlap`` beside a ready state."""
    if dim < n_outcomes + 1:
        raise ValidationError(f"dimension {dim} too small for {n_outcomes} records plus ready state")
    # Two or more records with overlap 1 coincide: their Gram matrix is
    # singular and has no Cholesky factor.
    lower = -1.0 / max(1, n_outcomes - 1)
    if not (lower < overlap < 1.0 or (overlap == 1.0 and n_outcomes == 1)):
        raise ValidationError(
            f"overlap {overlap} outside the positive-definite range "
            f"(-1/(n-1), 1) for n = {n_outcomes} records"
        )


def record_states_with_overlap(n_outcomes: int, overlap: float, dim: int) -> np.ndarray:
    """Unit record vectors with constant pairwise inner product ``overlap``,
    the rows of an (n_outcomes, dim) stack.

    Built from the Cholesky factor of the Gram matrix, supported on basis
    indices 1..n so index 0 stays free for a ready state.
    """
    check_register(n_outcomes, overlap, dim)
    gram = np.full((n_outcomes, n_outcomes), float(overlap))
    np.fill_diagonal(gram, 1.0)
    out = np.zeros((n_outcomes, dim), dtype=np.complex128)
    out[:, 1 : 1 + n_outcomes] = np.linalg.cholesky(gram)
    return out


# The overlap of each register of the branch cycle across branches, in the
# order apparatus, env_record, env_reset, for the ready state and after each
# step: 1 while the register is ready in every branch, 0 once it holds an
# ideal record.  Step 1 records the outcome in the apparatus, step 2 in
# env_record, and step 3 resets the apparatus to ready while it records the
# outcome in env_reset.
BRANCH_CYCLE = ((1.0, 1.0, 1.0), (0.0, 1.0, 1.0), (0.0, 0.0, 1.0), (1.0, 0.0, 0.0))


@dataclass(frozen=True, eq=False)
class Decoherence:
    """The system density of sum_n a_n |n> (x)_j |x_j(n)> in closed form.

    Every register the register kinds model has the Gram matrix
    G_j = (1 - c_j) I + c_j J: c_j = 0 for ideal records, and c_j = 1 while
    the register is ready in every branch.  The system density is
    (a a^dagger) o prod_j G_j^T, and a Hadamard product of such matrices is
    another one, with c the product of the c's, so

        rho = (1 - gamma) diag(p) + gamma a a^dagger,  gamma = prod_j c_j,

    with p = |a|^2 and gamma the decoherence factor of Joos and Zeh (Z. Phys.
    B 59, 223 (1985)).  This keeps the sums of the n >= 2 amplitudes that
    rho's values need; each method takes one gamma or an array of them.
    """

    populations: np.ndarray  # p, the diagonal of rho for every gamma
    trace: float  # sum p
    square_sum: float  # sum p^2
    top_pair: float  # the product of the two largest |a_n|
    support: int  # the number of nonzero amplitudes

    @classmethod
    def from_amplitudes(cls, amplitudes) -> Decoherence:
        a = np.asarray(amplitudes).reshape(-1)
        mags = np.abs(a)
        p = (a * a.conj()).real
        top = np.partition(mags, mags.size - 2)[-2:]
        return cls(p, float(p.sum()), float(p @ p), float(top[0] * top[1]), int(np.count_nonzero(mags)))

    def off_diagonal_max(self, gamma):
        """The largest |rho_nm|, n != m: |gamma| times the two largest |a_n|."""
        return np.abs(gamma) * self.top_pair

    def purity(self, gamma):
        """tr rho^2 = sum p^2 + gamma^2 ((sum p)^2 - sum p^2)."""
        return self.square_sum + gamma * gamma * (self.trace * self.trace - self.square_sum)

    def linear_entropy(self, gamma):
        """tr rho - tr rho^2, clipped at 0 as ``entanglement.linear_entropy`` is."""
        return np.maximum(0.0, self.trace - self.purity(gamma))

    def check(self, gammas, first_step: int = 0) -> None:
        """Refuse a density that is not one, naming the first step at fault.

        The global state is pure, so its purity (tr rho)^2 = |psi|^4 must
        stay within 1e-10 of 1, which holds the trace within 5e-11 of 1.  As
        rho = diag(a) G diag(a)^dagger with G = (1 - gamma) I + gamma J,
        Sylvester's law of inertia makes rho positive semidefinite exactly
        when G is on the n' nonzero amplitudes: when 1 - gamma >= 0 and
        1 + (n' - 1) gamma >= 0.
        """
        purity = self.trace**2
        if not abs(purity - 1.0) <= 1e-10:
            raise ValidationError(f"global purity drifted to {purity!r}")
        g = np.asarray(gammas, dtype=np.float64).reshape(-1)
        bad = ~((1.0 - g >= 0.0) & (1.0 + (self.support - 1) * g >= 0.0))
        if bad.any():
            i = int(np.argmax(bad))
            raise ValidationError(
                f"system density not positive semidefinite at step {first_step + i}: "
                f"decoherence factor {float(g[i])!r} for {self.support} nonzero amplitudes"
            )
