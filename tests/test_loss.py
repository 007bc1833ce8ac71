import pytest

from relpose.loss import conf_loss


class TestConfLoss:
    def test_minimizer_is_alpha_over_residual(self):
        # closed form: d/dc (c r - a log c) = r - a/c = 0 at c = a/r
        r, alpha = 0.37, 0.2
        c_star = alpha / r
        best = conf_loss(r, c_star, alpha)
        for c in (0.1, 0.3, c_star * 1.01, c_star * 0.99, 2.0, 10.0):
            assert conf_loss(r, c, alpha) >= best - 1e-12

    def test_positive_inputs_required(self):
        with pytest.raises(ValueError):
            conf_loss(0.1, 0.0, 0.2)
        with pytest.raises(ValueError):
            conf_loss(0.1, 1.0, 0.0)
