"""No code in ``src/`` reaches LAPACK.

A least-squares fit or a dense solve through ``np.linalg``, ``polyfit``,
``lstsq`` or ``scipy.linalg`` allocates LAPACK's workspace, over a
megabyte on its first call in a process, for problems the package solves
in closed form or by its own factor.  ``factor._blas_routines`` alone
names ``np.linalg``, to find the BLAS that numpy's linear-algebra
extension links, and ``scipy.linalg.cython_blas``, its fallback."""

from support import scopes, scopes_in_src, uses_module

# np.polynomial's fits call lstsq too.
LAPACK_NAMES = {"linalg", "polyfit", "lstsq", "polynomial"}


def test_only_the_blas_lookup_names_a_linear_algebra_module():
    assert scopes_in_src(uses_module(LAPACK_NAMES)) == {("factor.py", "_blas_routines")}


def test_the_guard_sees_every_form_of_lapack_use():
    source = ("from scipy.linalg import solve\n"
              "def f(t, y):\n    return np.polyfit(t, y, 1)\n"
              "def g(a, b):\n    return np.linalg.lstsq(a, b)\n"
              "class C:\n    def h(self):\n        from numpy import polyfit\n"
              "def k(t, y):\n    return np.polynomial.Polynomial.fit(t, y, 1)\n"
              "def clean(x):\n    return np.fft.rfft(x)\n")
    assert scopes(source, uses_module(LAPACK_NAMES)) == {"<module>", "f", "g", "C.h", "k"}
