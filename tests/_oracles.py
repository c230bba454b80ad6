"""Independent reference implementations used as test oracles.

Deliberately written as plain nested loops with none of the package's
machinery, so they share no failure modes with the code under test.
"""

import numpy as np


def naive_conv2d(x, w, groups=1, padding=0):
    """Direct 6-loop grouped convolution, stride 1, zero padding."""
    n, c, h, width = x.shape
    f_out, c_per_group, a, b = w.shape
    assert c == c_per_group * groups
    assert f_out % groups == 0
    f_per_group = f_out // groups
    xp = np.zeros((n, c, h + 2 * padding, width + 2 * padding), dtype=x.dtype)
    xp[:, :, padding : padding + h, padding : padding + width] = x
    ho = h + 2 * padding - a + 1
    wo = width + 2 * padding - b + 1
    out = np.zeros((n, f_out, ho, wo), dtype=x.dtype)
    for ni in range(n):
        for o in range(f_out):
            g = o // f_per_group
            for yy in range(ho):
                for xx in range(wo):
                    acc = 0.0
                    for ci in range(c_per_group):
                        for ky in range(a):
                            for kx in range(b):
                                acc += (w[o, ci, ky, kx]
                                        * xp[ni, g * c_per_group + ci, yy + ky, xx + kx])
                    out[ni, o, yy, xx] = acc
    return out


def naive_conv2d_backward(grad_out, x, w, padding=0):
    """Gradients of the groups=1 naive_conv2d w.r.t. x and w: each output
    element sends its gradient back along the products that formed it."""
    n, c, h, width = x.shape
    f_out, _, a, b = w.shape
    xp = np.zeros((n, c, h + 2 * padding, width + 2 * padding), dtype=x.dtype)
    xp[:, :, padding : padding + h, padding : padding + width] = x
    grad_xp = np.zeros_like(xp)
    grad_w = np.zeros_like(w)
    for ni in range(n):
        for o in range(f_out):
            for yy in range(grad_out.shape[2]):
                for xx in range(grad_out.shape[3]):
                    go = grad_out[ni, o, yy, xx]
                    for ci in range(c):
                        for ky in range(a):
                            for kx in range(b):
                                grad_w[o, ci, ky, kx] += go * xp[ni, ci, yy + ky, xx + kx]
                                grad_xp[ni, ci, yy + ky, xx + kx] += go * w[o, ci, ky, kx]
    return grad_xp[:, :, padding : padding + h, padding : padding + width], grad_w


def naive_maxpool2x2(x):
    """2x2 stride-2 max pool on even spatial sizes."""
    n, c, h, w = x.shape
    assert h % 2 == 0 and w % 2 == 0
    out = np.zeros((n, c, h // 2, w // 2), dtype=x.dtype)
    for ni in range(n):
        for ci in range(c):
            for yy in range(h // 2):
                for xx in range(w // 2):
                    out[ni, ci, yy, xx] = x[ni, ci, 2 * yy : 2 * yy + 2,
                                            2 * xx : 2 * xx + 2].max()
    return out


def naive_batchnorm_train(x, gamma, beta, eps):
    """Per-channel train-mode normalization with biased variance."""
    out = np.zeros_like(x)
    for c in range(x.shape[1]):
        vals = x[:, c]
        mean = vals.mean()
        var = ((vals - mean) ** 2).mean()
        out[:, c] = gamma[c] * (vals - mean) / np.sqrt(var + eps) + beta[c]
    return out
