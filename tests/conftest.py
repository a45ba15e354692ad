import numpy as np
import pytest

import hardymeans as hm


def log_uniform(rng, n, lo=1e-3, hi=1e3):
    return np.exp(rng.uniform(np.log(lo), np.log(hi), size=n))


# one representative per family, plus the non-strict extremes
ZOO = {
    "power(1)": hm.Power(1.0),
    "power(0)": hm.Power(0.0),
    "power(-1)": hm.Power(-1.0),
    "power(0.5)": hm.Power(0.5),
    "power(2)": hm.Power(2.0),
    "gini(0.5,-1)": hm.Gini(0.5, -1.0),
    "gini(2,1)": hm.Gini(2.0, 1.0),
    "quasi(log)": hm.QuasiArithmetic(hm.LOG),
    "quasi(pow:0.5)": hm.QuasiArithmetic(hm.power_generator(0.5)),
    "bajrak(pow:2,pow:1)": hm.Bajraktarevic(hm.power_generator(2), hm.power_generator(1)),
    "dev(arith)": hm.Deviation(hm.ARITHMETIC_DEVIATION),
    "dev(pair:pow:2,pow:1)": hm.Deviation(
        hm.PairDeviation(hm.power_generator(2), hm.power_generator(1))
    ),
    "gauss(power(-1),power(0))": hm.Gauss((hm.Power(-1.0), hm.Power(0.0))),
    "min": hm.MinOf(),
    "max": hm.MaxOf(),
}

# pairs with no exact reduction, whose kernel bisects (ZOO's pairs of
# signed powers run the Gini kernel); exp overflows past 709, so these
# are tested on entries in MODERATE rather than ZOO's [1e-3, 1e3]
BISECTED = {
    "bajrak(exp,pow:-1)": hm.Bajraktarevic(hm.EXP, hm.power_generator(-1)),
    "bajrak(pow:-1,exp)": hm.Bajraktarevic(hm.power_generator(-1), hm.EXP),
}
MODERATE = (0.1, 10.0)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
