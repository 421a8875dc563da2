"""Set-up of one workload in a fresh interpreter, timed by its parent.

    python3 setup_probe.py ROOT CONFIG.json [CONFIG.json ...]

Imports boundcount from ROOT/src, validates each config with parse_config
and, for each potential, builds the decomposition, the effective potential,
the Weyl coefficient and (except for tabulated potentials) the bound
functional.  It prints "ready" when the
first count could start, and nothing else.
"""

import json
import os
import sys


def main(argv) -> int:
    root, paths = argv[0], argv[1:]
    sys.path.insert(0, os.path.join(root, "src"))
    import boundcount as bc

    for path in paths:
        with open(path) as fh:
            config = bc.parse_config(json.load(fh))
        dec = bc.decompose(config.spec, config.angular_nodes)
        G = bc.effective_potential(dec)
        bc.weyl_coefficient(G)
        if not isinstance(config.spec, bc.TabulatedPotential):
            # zhat reaches t = -e^40 and r = e^t underflows to 0, which the
            # tabulated radial part rejects: no bound functional exists there
            bc.bound_functional(dec, G, p=config.p, J=config.truncation_index,
                                n_theta=config.angular_nodes)
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
