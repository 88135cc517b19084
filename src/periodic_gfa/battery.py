"""Reference net battery: five negligible-by-construction, five moderate-not-negligible.

All ten are Roumieu-moderate for p! at the default grids, so the
sup-norm null characterization applies to each.  The tests and
scripts/verdict_dump.py import it as periodic_gfa.battery; the package's
__init__ does not.
"""

import math

from . import algebra, embedding, series, weights

WIDE_H = (1.0 / 16, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0)


def negligible_nets(ws, n_max=32):
    sine = series.TrigPoly.sine()
    cosine = series.TrigPoly.cosine()
    return [
        algebra.constant_net(series.TrigPoly.zero(), n_max, "zero"),
        algebra.make_net(lambda n: sine.scaled(math.exp(-n)), n_max, "e^-n sin"),
        algebra.make_net(lambda n: cosine.scaled(math.exp(-n * n)), n_max, "e^-n^2 cos"),
        algebra.make_net(
            lambda n: series.TrigPoly.dirichlet(n).scaled(math.exp(-3 * n)),
            n_max,
            "e^-3n D_n",
        ),
        algebra.make_net(
            lambda n: series.TrigPoly.basis(n).scaled(
                math.exp(-float(weights.associated_gauge(ws, float(n))))
            ),
            n_max,
            "e^-M(n) e^int",
        ),
    ]


def moderate_nets(ws, n_max=32):
    sine = series.TrigPoly.sine()
    cosine = series.TrigPoly.cosine()
    mol = embedding.build_mollifier("dirichlet")
    return [
        algebra.make_net(lambda n: series.TrigPoly.dirichlet(n), n_max, "dirichlet"),
        algebra.constant_net(sine, n_max, "sin"),
        algebra.make_net(
            lambda n: series.multiply(sine, series.TrigPoly.dirichlet(n)), n_max, "sin*D_n"
        ),
        algebra.make_net(
            lambda n: series.multiply(cosine, series.TrigPoly.dirichlet(n)), n_max, "cos*D_n"
        ),
        embedding.embed(series.cot_reg(), mol, n_max),
    ]


def full_battery(ws, n_max=32):
    """[(net, is_negligible_by_construction)] with ten members."""
    return [(net, True) for net in negligible_nets(ws, n_max)] + [
        (net, False) for net in moderate_nets(ws, n_max)
    ]
