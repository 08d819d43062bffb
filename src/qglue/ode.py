"""DOP853, the explicit Runge-Kutta pair of order 8(5,3) with dense output
of order 7 (Hairer, Norsett & Wanner, Solving Ordinary Differential
Equations I, 2nd ed., secs. II.4-6), forward from t = 0 at the one
tolerance TOL, with the step control of SciPy's solve_ivp(method="DOP853")
operation for operation, so a run gives the same numbers as that routine
at rtol = atol = TOL.  Its one caller is jacobi.monodromy_data.  The
tableau is SciPy's (integrate/_ivp/dop853_coefficients.py, Copyright (c)
2001-2002 Enthought, Inc. 2003, SciPy Developers; BSD 3-Clause licence,
LICENSES/SciPy-BSD-3-Clause.txt in the source tree), written with the
shortest decimals of the same doubles.
"""

import numpy as np

from .errors import NumericalError

__all__ = ["dop853"]


def _floats(text):
    """The ';'-separated rows of whitespace-separated numbers in text."""
    return [[float(x) for x in row.split()] for row in text.split(";")]


_C = np.array(_floats("""
    0 0.05260015195876773 0.0789002279381516 0.1183503419072274
    0.2816496580927726 0.3333333333333333 0.25 0.3076923076923077
    0.6512820512820513 0.6 0.8571428571428571 1.0 1.0 0.1 0.2
    0.7777777777777778""")[0])
# rows 1..15 of A below the diagonal: stages 1..11, the weights B of the
# step (row 12) and the three extra stages of the dense output
_A = np.zeros((16, 16))
for _s, _row in enumerate(_floats("""
    0.05260015195876773;
    0.0197250569845379 0.0591751709536137;
    0.02958758547680685 0 0.08876275643042054;
    0.2413651341592667 0 -0.8845494793282861 0.924834003261792;
    0.037037037037037035 0 0 0.17082860872947386 0.12546768756682242;
    0.037109375 0 0 0.17025221101954405 0.06021653898045596 -0.017578125;
    0.03709200011850479 0 0 0.17038392571223998 0.10726203044637328
    -0.015319437748624402 0.008273789163814023;
    0.6241109587160757 0 0 -3.3608926294469414 -0.868219346841726
    27.59209969944671 20.154067550477894 -43.48988418106996;
    0.47766253643826434 0 0 -2.4881146199716677 -0.590290826836843
    21.230051448181193 15.279233632882423 -33.28821096898486
    -0.020331201708508627;
    -0.9371424300859873 0 0 5.186372428844064 1.0914373489967295
    -8.149787010746927 -18.52006565999696 22.739487099350505
    2.4936055526796523 -3.0467644718982196;
    2.273310147516538 0 0 -10.53449546673725 -2.0008720582248625
    -17.9589318631188 27.94888452941996 -2.8589982771350235
    -8.87285693353063 12.360567175794303 0.6433927460157636;
    0.054293734116568765 0 0 0 0 4.450312892752409 1.8915178993145003
    -5.801203960010585 0.3111643669578199 -0.1521609496625161
    0.20136540080403034 0.04471061572777259;
    0.056167502283047954 0 0 0 0 0 0.25350021021662483 -0.2462390374708025
    -0.12419142326381637 0.15329179827876568 0.00820105229563469
    0.007567897660545699 -0.008298;
    0.03183464816350214 0 0 0 0 0.028300909672366776 0.053541988307438566
    -0.05492374857139099 0 0 -0.00010834732869724932 0.0003825710908356584
    -0.00034046500868740456 0.1413124436746325;
    -0.42889630158379194 0 0 0 0 -4.697621415361164 7.683421196062599
    4.06898981839711 0.3567271874552811 0 0 0 -0.0013990241651590145
    2.9475147891527724 -9.15095847217987;""")[:-1], start=1):
    _A[_s, :len(_row)] = _row
_B = _A[12, :12]
# the order-5 and order-3 error estimators over the stages 0..12
_E5 = np.array(_floats("""
    0.01312004499419488 0 0 0 0 -1.2251564463762044 -0.4957589496572502
    1.6643771824549864 -0.35032884874997366 0.3341791187130175
    0.08192320648511571 -0.022355307863886294 0""")[0])
_E3 = np.append(_B, 0.0)
_E3[[0, 8, 11]] -= [0.2440944881889764, 0.7338466882816118,
                    0.022058823529411766]
# the dense output's coefficients of the powers 3..6 over all 16 stages
_D = np.array(_floats("""
    -8.428938276109013 0 0 0 0 0.5667149535193777 -3.0689499459498917
    2.38466765651207 2.117034582445028 -0.871391583777973 2.2404374302607883
    0.6315787787694688 -0.08899033645133331 18.148505520854727
    -9.194632392478356 -4.436036387594894;
    10.427508642579134 0 0 0 0 242.28349177525817 165.20045171727028
    -374.5467547226902 -22.113666853125306 7.733432668472264
    -30.674084731089398 -9.332130526430229 15.697238121770845
    -31.139403219565178 -9.35292435884448 35.81684148639408;
    19.985053242002433 0 0 0 0 -387.0373087493518 -189.17813819516758
    527.8081592054236 -11.57390253995963 6.8812326946963 -1.0006050966910838
    0.7777137798053443 -2.778205752353508 -60.19669523126412
    84.32040550667716 11.99229113618279;
    -25.69393346270375 0 0 0 0 -154.18974869023643 -231.5293791760455
    357.6391179106141 93.40532418362432 -37.45832313645163 104.0996495089623
    29.8402934266605 -43.53345659001114 96.32455395918828 -39.17726167561544
    -149.72683625798564;""")[:-1])

SAFETY = 0.9       # of the asymptotically optimal step
MIN_FACTOR = 0.2   # largest decrease of a step
MAX_FACTOR = 10    # largest increase of a step
EXPONENT = -1 / 8  # the error estimate is of order h^8
# rtol = atol.  The error norm is an RMS over all components, so in a
# batched run of k independent states one component may carry about
# sqrt(k) times the average.  3e-14 stays just above 100 eps, the usual
# floor of DOP853 tolerances: below it the rounding of the stage sums, not
# the truncation, drives the error estimate
TOL = 3e-14


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


def _initial_step(fun, y0, f0, t_end):
    """First step size from one explicit Euler probe (sec. II.4)."""
    scale = TOL + np.abs(y0) * TOL
    d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_end)
    f1 = fun(h0, y0 + h0 * f0)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, t_end)


def dop853(fun, y0, t_end, t_eval):
    """Integrate y' = fun(t, y) from y(0) = y0 to t_end > 0 at tolerance
    TOL.

    Returns (y(t_end), Y): column i of the (len(y0), len(t_eval)) array Y
    is the dense output at t_eval[i], where t_eval ascends inside
    [0, t_end].  Raises NumericalError when the step falls below ten ulps
    of t or is not a number (the right-hand side turned nan)."""
    y = np.asarray(y0, dtype=float)
    ts = np.asarray(t_eval, dtype=float)
    done = 0  # the points of ts sampled so far
    K = np.empty((16, y.size))  # one stage per row
    t, f = 0.0, fun(0.0, y)
    h_abs = _initial_step(fun, y, f, t_end)
    samples = []
    while t < t_end:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if not h_abs >= min_step:  # a nan step fails too
                raise NumericalError("ODE step fell below ten ulps of t "
                                     "or turned nan")
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            h_abs = np.abs(h)
            K[0] = f
            for s in range(1, 12):
                K[s] = fun(t + _C[s] * h, y + np.dot(K[:s].T, _A[s, :s]) * h)
            y_new = y + h * np.dot(K[:12].T, _B)
            f_new = K[12] = fun(t + h, y_new)
            # the order-5 error estimate damped by the order-3 one, as an
            # RMS over the components
            scale = TOL + np.maximum(np.abs(y), np.abs(y_new)) * TOL
            e5 = np.linalg.norm(np.dot(K[:13].T, _E5) / scale) ** 2
            e3 = np.linalg.norm(np.dot(K[:13].T, _E3) / scale) ** 2
            err = (0.0 if e5 == 0 and e3 == 0
                   else h_abs * e5 / np.sqrt((e5 + 0.01 * e3) * y.size))
            if err < 1:
                factor = (MAX_FACTOR if err == 0
                          else min(MAX_FACTOR, SAFETY * err ** EXPONENT))
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * err ** EXPONENT)
            rejected = True
        t_old, y_old, f_old = t, y, f
        t, y, f = t_new, y_new, f_new
        new = np.searchsorted(ts, t, side="right")
        if new == done:
            continue
        # the dense output: three extra stages, then the interpolant of
        # degree 7 in the step's fraction x, evaluated nested
        for s in range(13, 16):
            K[s] = fun(t_old + _C[s] * h,
                       y_old + np.dot(K[:s].T, _A[s, :s]) * h)
        dy = y - y_old
        F = np.empty((7, y.size))
        F[0] = dy
        F[1] = h * f_old - dy
        F[2] = 2 * dy - h * (f + f_old)
        F[3:] = h * np.dot(_D, K)
        x = ((ts[done:new] - t_old) / h)[:, None]
        out = np.zeros((len(x), y.size))
        for i, row in enumerate(F[::-1]):
            out += row
            out *= x if i % 2 == 0 else 1 - x
        samples.append((out + y_old).T)
        done = new
    return y, (np.hstack(samples) if samples else np.empty((y.size, 0)))
