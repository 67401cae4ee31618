"""Child-process entry points of the benchmark.

  python perfbench/probe.py setup --workload JSON --seed N --workdir DIR
      one cold set-up in this fresh process; prints {"setup_s": seconds}
  python perfbench/probe.py blas1 --scene JSON --spans FILE --run-id ID --parent SPAN
      the operator thread probe under this process's BLAS environment
      (run with OPENBLAS_NUM_THREADS=1); writes its spans to FILE
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="probe.py")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workdir", required=True)
    p = sub.add_parser("blas1")
    p.add_argument("--scene", required=True)
    p.add_argument("--spans", required=True)
    p.add_argument("--run-id", required=True)
    p.add_argument("--parent", default="")
    args = parser.parse_args(argv)

    import harness
    import nfmimo.forward as nforward
    import tracing

    if args.command == "setup":
        _, seconds = harness.setup(harness.workload_from_json(args.workload), args.seed, Path(args.workdir))
        print(json.dumps({"setup_s": seconds}))
        return 0
    scenario = harness.build_scenario(json.loads(args.scene))
    nforward.forward_apply(np.zeros(scenario.n_voxels, dtype=np.complex128), scenario)  # builds the plan
    tracer = tracing.Tracer(args.run_id, args.parent or None)
    harness.layer_probe(tracer, scenario, "blas1", 1, harness.THREAD_PATHS)
    tracer.write(args.spans)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
