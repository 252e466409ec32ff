"""Fresh-process probes, started by run.py with PYTHONPATH pointing at src/.

    python3 perfbench/probe.py setup WORKLOAD SEED   import pathqv, build the inputs,
                                                     print their digest
    python3 perfbench/probe.py import-cli            print the time taken by
                                                     `import pathqv.cli`
"""

import sys
import time


def main(argv):
    if argv[:1] == ["import-cli"]:
        t0 = time.perf_counter()
        import pathqv.cli  # noqa: F401

        print(repr(time.perf_counter() - t0))
        return 0
    if argv[:1] == ["setup"] and len(argv) == 3:
        import workloads

        print(workloads.inputs_digest(workloads.build_inputs(argv[1], int(argv[2]))))
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
