"""nfmimo benchmark entry point.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the package from the
checkout's ``src`` and nowhere else. With ``--trace 0`` it prints every
end-to-end metric of BENCHMARK.json, with ``--trace 1`` every per-layer
metric. The last line of standard output is the result object; the lines
before it, starting with ``#``, carry the machine facts and run details,
which also go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    package = root / "src" / "nfmimo" / "__init__.py"
    spec_path = root / "BENCHMARK.json"
    if not package.is_file():
        return _fail(f"no nfmimo package under {root / 'src'}; run from the root of a checkout")
    if not spec_path.is_file():
        return _fail(f"no BENCHMARK.json in {root}")
    sys.path.insert(0, str(root / "src"))
    import nfmimo

    if Path(nfmimo.__file__).resolve() != package.resolve():
        return _fail(f"imported nfmimo from {nfmimo.__file__}, not from the checkout")

    import harness
    import machine

    if args.workload not in harness.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; choose from {sorted(harness.WORKLOADS)}")
    spec = json.loads(spec_path.read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    facts = machine.machine_facts(root, nfmimo.__file__)
    result = harness.run(harness.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), root)
    detail = result.pop("detail")
    measured = dict(result["metrics"], **{"machine.calib_ms": facts["calib_ms"]})
    metrics, missing = {}, []
    for entry in declared:
        value = measured.get(entry["name"])
        if value is None or not math.isfinite(value):
            missing.append(entry["name"])
        else:
            metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    if missing:
        detail["missing_metrics"] = missing
        result["correct"] = False
    result["metrics"] = metrics

    out_dir = Path(__file__).resolve().parent / "out"
    out_dir.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": facts, "detail": detail, "result": result}
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print("# machine " + json.dumps(facts))
    print("# detail " + json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
