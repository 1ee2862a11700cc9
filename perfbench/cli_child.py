"""Run one `gamtl` command with spans around the package's layers.

Usage: python3 perfbench/cli_child.py SPANS_JSON <gamtl arguments>

The traced CLI run starts each command through this file instead of the
`gamtl` entry point; the spans go to SPANS_JSON when the command ends.
"""

import sys

import tracing


def main(argv):
    from gamtl.cli import main as gamtl_main

    tracer = tracing.Tracer()
    tracer.install(tracing.CLI_TARGETS)
    code = gamtl_main(argv[1:])
    tracer.dump(argv[0])
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
