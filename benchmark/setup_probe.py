"""Set-up time of one fresh interpreter, as every CLI user pays it.

    python3 setup_probe.py SRC CONFIG COMMAND MINIMAL_CONFIG OUT

Times importing ``kslab.cli``, parsing CONFIG and a warm-up run of COMMAND
on MINIMAL_CONFIG, which finishes the one-time lazy set-up (the sympy
generation in ``carleman``).  Prints the seconds.
"""

import sys
import time


def main(argv):
    src, config, command, minimal, out = argv
    start = time.perf_counter()
    sys.path.insert(0, src)
    from kslab import cli
    cli.RunConfig.from_file(config)
    cli.main([command, "--config", minimal, "--out", out])
    print(time.perf_counter() - start)


if __name__ == "__main__":
    main(sys.argv[1:])
