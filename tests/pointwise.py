"""Pointwise values of one expression: the test oracle for the plan evaluators."""

import numpy as np

from hoferlab import expr as E


def evaluate(e, points, t):
    """Values of ``e`` at the (N, 2n) ``points``, or at one point, and the time ``t``."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return E.eval_array(e, E.point_env(pts, t), len(pts))
