"""Cold set-up probe, run in a fresh interpreter: import, load, build the gain map.

Usage: python3 probe.py <scenario path or bundled name> <grid scale or "none">
Prints the elapsed seconds from before `import pinchplan` to after
`Scenario.gain_map()`, which is what every CLI invocation pays first.
"""

import sys
import time


def main() -> None:
    t0 = time.perf_counter()
    import pinchplan

    config, scale = sys.argv[1], sys.argv[2]
    if config.endswith(".json"):
        scn = pinchplan.load_scenario(config)
    else:
        scn = pinchplan.load_bundled(config)
    if scale != "none":
        scn = scn.with_grid_scale(float(scale))
    scn.gain_map()
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main()
