"""Fresh-interpreter set-up: import sqznet, parse one configuration, build its network.

    python3 perfbench/ready.py preset:NAME | yaml:PATH | design:PATH [--request]

Prints ``ready`` once the network is built; ``run.py`` times a fresh
interpreter up to that line as ``setup_s``.  ``design:PATH`` names a JSON
list [scenario mapping, [omega, ...], mismatch] written by the cancel-scan
workload.  With ``--request`` and a design it then runs that workload's
request (a cancellation solve plus ``suppression_db`` at each frequency)
and prints [[eps1, phi, suppression_db], ...] as JSON: sqznet has no CLI
command for it, so this is the cancel-scan workload's cold command.
"""

from __future__ import annotations

import json
import sys


def load_input(config, spec: str):
    """ScenarioConfig named by ``spec``, parsed by sqznet's ``config`` module."""
    kind, _, arg = spec.partition(":")
    if kind == "preset":
        return config.load_preset(arg)
    if kind == "yaml":
        return config.load_config(arg)
    if kind == "design":
        with open(arg, encoding="utf-8") as fh:
            return config.parse_config(json.load(fh)[0])
    raise ValueError(f"unknown configuration '{spec}'")


def main(argv: list[str]) -> None:
    import sqznet
    import sqznet.cli
    import sqznet.config
    import sqznet.network

    cfg = load_input(sqznet.config, argv[0])
    sqznet.network.build_mach_zehnder(cfg.mach_zehnder)
    print("ready", flush=True)
    if argv[1:] == ["--request"]:
        with open(argv[0].partition(":")[2], encoding="utf-8") as fh:
            _, omegas, mismatch = json.load(fh)
        scan = []
        for omega in omegas:
            sol = sqznet.solve_cancellation_numeric(cfg.mach_zehnder, omega)
            scan.append([sol.epsilon1, sol.phi, sqznet.suppression_db(cfg.mach_zehnder, omega, mismatch)])
        print(json.dumps(scan))


if __name__ == "__main__":
    main(sys.argv[1:])
