"""What the command line needs before any numpy-backed module loads: the names
of the Phi(i)/i routes, for `--method`, and the error that exits 3. `phi` and
`quad` re-export them, so the package states each once.
"""

# the verify routes, in the order phi pairs them with its route functions
METHODS = ("polar", "cartesian", "bessel", "fourier")


class NonConvergenceError(RuntimeError):
    """Raised when adaptive subdivision exhausts its evaluation budget or the
    integrand returns a non-finite value."""
