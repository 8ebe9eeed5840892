import itertools

import pytest

from remest import DistortionFn, ModelSpecB, SmoothPdf, UsageError, reference


@pytest.mark.parametrize("kind, sigma, beta", list(itertools.product(
    ("quadratic", "absolute"), (0.5, 1.0, 2.0), (0.9, 1.0))))
def test_gauss_reset_lm_matches_mpmath(kind, sigma, beta):
    # the form 1 / (1 - beta P(|W| < k)) kept 2 digits of M(0) at beta = 1, k = 8 sigma
    mpmath = pytest.importorskip("mpmath")
    spec = ModelSpecB(a=0.0, pdf=SmoothPdf.gaussian(sigma),
                      distortion=getattr(DistortionFn, kind)(), beta=beta)
    with mpmath.workdps(40):
        s, b = mpmath.mpf(sigma), mpmath.mpf(beta)
        phi = mpmath.npdf
        for z in map(mpmath.mpf, ("0.6", "2", "4.5", "6", "8")):
            inside = mpmath.erf(z / mpmath.sqrt(2))
            moment = (s * s * (inside - 2 * z * phi(z)) if kind == "quadratic"
                      else 2 * s * (phi(0) - phi(z)))
            M0 = 1 / (1 - b * inside)
            L0, M = reference.gauss_reset_lm(spec, float(z * s))
            assert abs(L0 / (b * moment * M0) - 1) <= 1e-14, float(z)
            assert abs(M / M0 - 1) <= 1e-14, float(z)


@pytest.mark.parametrize("spec", [
    ModelSpecB(a=0.5, pdf=SmoothPdf.gaussian(1.0), distortion=DistortionFn.quadratic(), beta=1.0),
    ModelSpecB(a=0.0, pdf=SmoothPdf.tabulated(lambda w: 0.5 * (abs(w) <= 1.0), 1.0),
               distortion=DistortionFn.quadratic(), beta=1.0),
], ids=["a-nonzero", "tabulated"])
def test_gauss_reset_lm_refuses_other_specs(spec):
    with pytest.raises(UsageError, match="a = 0 form"):
        reference.gauss_reset_lm(spec, 1.0)
