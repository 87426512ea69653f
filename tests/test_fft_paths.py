"""Every FFT in ``src/`` goes through one convolution helper.

A fixed-kernel convolution takes its period, its transforms and its
aliasing condition from ``operators._Convolution``; only
``factor._newton_inverse``, whose kernel changes every pass, keeps its own
products.  A new FFT path must reuse the helper or change this test."""

from support import scopes, scopes_in_src, uses_module

FFT_MODULES = {"fft", "fftpack"}


def test_ffts_are_taken_only_by_the_convolution_helper_and_newtons_iteration():
    assert scopes_in_src(uses_module(FFT_MODULES)) == {
        ("operators.py", "_Convolution.window"), ("factor.py", "_newton_inverse")}


def test_the_guard_sees_every_form_of_fft_use():
    source = ("import numpy.fft\n"
              "from scipy import fft\n"
              "def f(x):\n    return np.fft.rfft(x)\n"
              "class C:\n    def g(self):\n        from numpy.fft import irfft\n")
    assert scopes(source, uses_module(FFT_MODULES)) == {"<module>", "f", "C.g"}
